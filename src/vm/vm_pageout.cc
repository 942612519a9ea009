// Page replacement (§5.4) and the kernel ends of the data manager → kernel
// interface (Table 3-6).
//
// The pageout daemon keeps a pool of free frames by aging pages from the
// active queue through the inactive queue (second-chance on the hardware
// reference bit) and writing dirty victims back to their data managers with
// pager_data_write. A dirty victim is clustered with its object's
// contiguous dirty neighbours so one message carries the whole run (up to
// Config::pageout_cluster_max pages; runs split at non-contiguous, clean,
// busy or pinned pages). All sends on this path are non-blocking: a manager
// that cannot accept its dirty data promptly has the data *parked* with the
// trusted default pager instead (§6.2.2), so an errant manager can never
// wedge the kernel's memory pool.
//
// Locking: the scan runs under queue_mu_ and must take object locks in the
// reverse of the documented order, so it only ever try_locks an object —
// contended pages rotate to the queue tail and the scan moves on. A chosen
// victim is unqueued, queue_mu_ is dropped, and the pageout itself runs
// under the object lock alone. Manager handlers run under the owning
// object's lock and finish with a targeted cv broadcast.

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "src/base/log.h"
#include "src/pager/protocol.h"
#include "src/vm/vm_system.h"

namespace mach {

void VmSystem::StartPageoutDaemon() {
  std::lock_guard<std::mutex> lk(pageout_mu_);
  if (pageout_running_) {
    return;
  }
  pageout_running_ = true;
  shutting_down_ = false;
  pageout_thread_ = std::thread([this] { PageoutDaemonMain(); });
}

void VmSystem::StopPageoutDaemon() {
  {
    std::lock_guard<std::mutex> lk(pageout_mu_);
    if (!pageout_running_) {
      return;
    }
    shutting_down_ = true;
    pageout_wake_.notify_all();
  }
  pageout_thread_.join();
  std::lock_guard<std::mutex> lk(pageout_mu_);
  pageout_running_ = false;
}

void VmSystem::PageoutDaemonMain() {
  std::unique_lock<std::mutex> lk(pageout_mu_);
  while (!shutting_down_) {
    pageout_wake_.wait_for(lk, config_.pageout_interval);
    if (shutting_down_) {
      break;
    }
    lk.unlock();
    MaybeDrainDeferred();
    {
      std::lock_guard<std::mutex> qlk(queue_mu_);
      AgeQueuesLocked();
    }
    // Replenish free memory.
    uint32_t free = phys_->free_frames();
    if (free < free_target_) {
      ReclaimPass(free_target_ - free);
    }
    lk.lock();
  }
}

void VmSystem::AgeQueuesLocked() {
  // Keep roughly a third of the in-use pool on the inactive queue so
  // reference information accumulates.
  const uint32_t inactive_target = (active_count_ + inactive_count_) / 3;
  while (inactive_count_ < inactive_target && !active_queue_.empty()) {
    PageDeactivateLocked(active_queue_.Front());
  }
}

uint32_t VmSystem::ReclaimPass(uint32_t want) {
  uint32_t freed = 0;
  std::unique_lock<std::mutex> qlk(queue_mu_);
  // Bounded scan: each iteration either frees, reactivates, rotates or
  // deactivates a page; give every resident page at most one look.
  uint32_t guard = active_count_ + inactive_count_ + 8;
  while (freed < want && guard-- > 0) {
    if (inactive_queue_.empty()) {
      if (active_queue_.empty()) {
        break;
      }
      // Age a batch, as the daemon would, rather than one page: a lone
      // inactive victim has no aged neighbours to cluster with, so a
      // faulting thread that outruns the daemon would write page by page.
      AgeQueuesLocked();
      if (inactive_queue_.empty()) {
        PageDeactivateLocked(active_queue_.Front());
      }
      continue;
    }
    VmPage* page = inactive_queue_.Front();
    // Identity is stable while queue_mu_ is held (collapse relabels pages
    // under queue_mu_), but the object lock order is the reverse of ours:
    // try only, and rotate contended pages to the tail.
    VmObject* owner = page->object;
    if (!owner->mu.try_lock()) {
      inactive_queue_.Remove(page);
      inactive_queue_.PushBack(page);
      continue;
    }
    ObjectLock olk(owner->mu, std::adopt_lock);
    // A queued page's owner is always alive (termination unqueues), so a
    // strong reference is safe to take here and keeps the object across the
    // pageout I/O below.
    std::shared_ptr<VmObject> object = owner->shared_from_this();
    if (page->busy) {
      // Busy pages are normally unqueued by their owner; be safe.
      PageRemoveFromQueueLocked(page);
      continue;
    }
    if (page->pin_count > 0) {
      // A fault is installing this frame right now; clearly not idle.
      inactive_queue_.Remove(page);
      inactive_queue_.PushBack(page);
      continue;
    }
    if (phys_->IsReferenced(page->frame)) {
      // Second chance: touched while inactive.
      phys_->ClearReference(page->frame);
      PageActivateLocked(page);
      counters_.reactivations.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    PageRemoveFromQueueLocked(page);
    qlk.unlock();
    freed += PageoutPageLocked(olk, object, page);
    olk.unlock();
    qlk.lock();
  }
  qlk.unlock();
  if (freed > 0) {
    free_cv_.notify_all();
  }
  return freed;
}

bool VmSystem::EnsureInternalPager(ChainLock& chain, ObjectLock& olk,
                                   const std::shared_ptr<VmObject>& object) {
  (void)chain;
  (void)olk;
  if (object->pager.valid()) {
    return true;
  }
  if (!default_pager_service_.valid() || default_pager_service_.IsDead()) {
    return false;
  }
  // The kernel itself creates the memory object port and passes its receive
  // right to the default pager in a pager_create call (§3.4.1).
  PortPair obj_port = PortAllocate("kernel-object");
  // Pageout sends are non-blocking; a roomy queue keeps bursts of dirty
  // pages flowing to the (trusted, always-draining) default pager.
  obj_port.receive.port()->SetBacklog(1024);
  PortPair request = PortAllocate("pager-request");
  PortPair name = PortAllocate("pager-name");
  PagerCreateArgs args;
  args.new_memory_object = std::move(obj_port.receive);
  args.new_request_port = request.send;
  args.new_name_port = name.send;
  args.page_size = page_size();
  KernReturn kr = MsgSend(default_pager_service_, EncodePagerCreate(std::move(args)), kPoll);
  if (!IsOk(kr)) {
    // The (trusted) default pager could not take the message right now; the
    // receive right died with the message, so start fresh next time.
    return false;
  }
  object->pager = obj_port.send;
  object->request_receive = std::move(request.receive);
  object->request_send = request.send;
  object->name_receive = std::move(name.receive);
  object->name_send = name.send;
  object->pager_initialized = true;
  objects_by_pager_.emplace(object->pager.id(), object);
  objects_by_request_.emplace(object->request_send.id(), object);
  pager_requests_->Add(object->request_receive);
  // Even the trusted default pager gets a death watch: if it goes away the
  // same §6.2.1 policy applies instead of a hung fault.
  object->pager.port()->RequestDeathNotification(death_notify_send_);
  return true;
}

uint32_t VmSystem::PageoutPageLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                     VmPage* page) {
  for (;;) {
    // Invalidate all hardware mappings first, then sample the modify bit:
    // no access can slip in after the sample. (The loop re-runs this after
    // any window where the object lock was dropped.)
    Pmap::PageProtect(phys_, page->frame, kVmProtNone);
    bool dirty = page->dirty || phys_->IsModified(page->frame);
    if (!dirty) {
      // Clean data: the manager (or a zero fill) can reproduce it.
      PageFreeLocked(olk, page);
      return 1;
    }
    if (object->pager.valid()) {
      break;
    }
    // Kernel-created object touched for the first time: hand it to the
    // default pager via pager_create. That needs chain_mu_, which sits
    // *above* the object lock — pin the victim, drop the object lock, take
    // the chain lock, relock, revalidate.
    ++page->pin_count;
    olk.unlock();
    bool have_pager;
    {
      ChainLock chain(chain_mu_);
      olk.lock();
      have_pager = object->alive && EnsureInternalPager(chain, olk, object);
    }
    --page->pin_count;
    if (!object->alive) {
      // Terminated while unlocked; the page was orphaned for us to free.
      if (page->pin_count == 0 && !page->busy) {
        PageFreeLocked(olk, page);
        object->cv.notify_all();
        return 1;
      }
      object->cv.notify_all();
      return 0;
    }
    if (page->busy || page->pin_count > 0) {
      // A fault claimed the page during the gap: no longer a victim.
      PageActivate(page);
      object->cv.notify_all();
      return 0;
    }
    if (!have_pager) {
      PageActivate(page);  // Try again later.
      return 0;
    }
    // A mapping may have been re-established during the gap; loop to
    // re-protect and resample so no modification is lost.
  }
  // Dirty: the data must reach backing storage (pager_data_write). Gather
  // the object's contiguous dirty neighbours so one message carries the
  // whole run instead of one per page.
  std::vector<VmPage*> run = CollectPageoutClusterLocked(object.get(), page);
  switch (WritePageoutRun(olk, object, run, /*park_on_failure=*/true)) {
    case RunWriteResult::kWritten:
    case RunWriteResult::kParked:
      for (VmPage* p : run) {
        PageFreeLocked(olk, p);
      }
      return static_cast<uint32_t>(run.size());
    case RunWriteResult::kFailed:
      break;
  }
  // Unprotected mode (ablation): give up on these pages for now.
  for (VmPage* p : run) {
    PageActivate(p);
  }
  return 0;
}

std::vector<VmPage*> VmSystem::CollectPageoutClusterLocked(VmObject* object, VmPage* seed) {
  std::vector<VmPage*> run{seed};
  if (config_.pageout_cluster_max <= 1) {
    return run;
  }
  const VmSize ps = page_size();
  const size_t cap = config_.pageout_cluster_max;
  // Claims the page at `off` for the run if it is a settled dirty
  // neighbour that is already aging out (on the inactive queue, like the
  // seed was): stealing a hot active neighbour would save one message now
  // at the price of a near-certain refault. Sample the modify bit first so
  // clean pages keep their mappings, then protect-and-resample like the
  // seed: a page dirty before the protect stays dirty, and no access can
  // slip in after it.
  auto claim = [&](VmOffset off) -> VmPage* {
    VmPage* p = object->pages.Find(off);
    if (p == nullptr || p->busy || p->pin_count > 0 ||
        p->queue.load(std::memory_order_relaxed) != VmPage::Queue::kInactive) {
      return nullptr;
    }
    if (!p->dirty && !phys_->IsModified(p->frame)) {
      return nullptr;  // Clean: the run splits here.
    }
    Pmap::PageProtect(phys_, p->frame, kVmProtNone);
    p->dirty = true;
    PageRemoveFromQueue(p);
    return p;
  };
  std::vector<VmPage*> below;
  for (VmOffset off = seed->offset; off >= ps && run.size() + below.size() < cap;) {
    off -= ps;
    VmPage* p = claim(off);
    if (p == nullptr) {
      break;
    }
    below.push_back(p);
  }
  std::reverse(below.begin(), below.end());
  below.insert(below.end(), run.begin(), run.end());
  run = std::move(below);
  for (VmOffset off = seed->offset + ps; run.size() < cap; off += ps) {
    VmPage* p = claim(off);
    if (p == nullptr) {
      break;
    }
    run.push_back(p);
  }
  return run;
}

void VmSystem::WriteBackDirtyLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                    std::vector<VmPage*> dirty, bool park_on_failure) {
  if (dirty.empty() || !object->pager.valid()) {
    return;
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const VmPage* a, const VmPage* b) { return a->offset < b->offset; });
  const VmSize ps = page_size();
  std::vector<VmPage*> run;
  auto write_run = [&] {
    if (WritePageoutRun(olk, object, run, park_on_failure) == RunWriteResult::kWritten) {
      for (VmPage* page : run) {
        page->dirty = false;
        phys_->ClearModify(page->frame);
      }
    }
    run.clear();
  };
  for (VmPage* page : dirty) {
    if (!run.empty() && (run.size() >= config_.pageout_cluster_max ||
                         run.back()->offset + ps != page->offset)) {
      write_run();
    }
    run.push_back(page);
  }
  write_run();
}

VmSystem::RunWriteResult VmSystem::WritePageoutRun(ObjectLock& olk,
                                                   const std::shared_ptr<VmObject>& object,
                                                   const std::vector<VmPage*>& run,
                                                   bool park_on_failure) {
  (void)olk;
  const VmSize ps = page_size();
  PagerDataWriteArgs args;
  args.offset = run.front()->offset;
  // Copy (rather than move into the message): the parking fallback below
  // may still need the data.
  args.data.resize(run.size() * ps);
  for (size_t i = 0; i < run.size(); ++i) {
    phys_->ReadFrame(run[i]->frame, 0, args.data.data() + i * ps, ps);
  }
  counters_.pageout_runs.fetch_add(1, std::memory_order_relaxed);
  counters_.pageout_run_pages.fetch_add(run.size(), std::memory_order_relaxed);
  if (IsOk(MsgSend(object->pager, EncodePagerDataWrite(args), kPoll))) {
    counters_.pageouts.fetch_add(run.size(), std::memory_order_relaxed);
    // The pager now holds these offsets: chain collapse must account for
    // them even though no pages are resident.
    for (VmPage* p : run) {
      object->paged_offsets.insert(p->offset);
    }
    return RunWriteResult::kWritten;
  }
  // The manager did not accept the data (queue full / port dead).
  if (park_on_failure && config_.errant_manager_protection && parking_ != nullptr) {
    // §6.2.2: divert to the default pager so pageout is never starved. The
    // parking store is per-page; the run is split back up for it.
    for (size_t i = 0; i < run.size(); ++i) {
      std::vector<std::byte> page_data(args.data.begin() + static_cast<ptrdiff_t>(i * ps),
                                       args.data.begin() + static_cast<ptrdiff_t>((i + 1) * ps));
      parking_->Park(object->id(), run[i]->offset, std::move(page_data));
      object->parked_offsets.insert(run[i]->offset);
    }
    counters_.parked_pageouts.fetch_add(run.size(), std::memory_order_relaxed);
    return RunWriteResult::kParked;
  }
  return RunWriteResult::kFailed;
}

// --- data manager -> kernel calls (Table 3-6) -------------------------------

void VmSystem::HandlePagerMessage(uint64_t request_port_id, Message&& msg) {
  if (msg.id() == kMsgIdPortDeath) {
    // Death notification for a watched memory-object port. Only the
    // kernel's dedicated notify port is trusted: a kMsgIdPortDeath landing
    // on an ordinary request port was sent by a manager, and honoring it
    // would let an errant manager (the §6 threat model) forge the death of
    // another object's pager.
    if (request_port_id != death_notify_receive_.id()) {
      MACH_LOG(kWarn) << "forged death notification on request port " << request_port_id;
      return;
    }
    // The payload is the dead port's id.
    Result<uint64_t> dead_id = msg.TakeU64();
    if (dead_id.ok()) {
      ChainLock chain(chain_mu_);
      auto dead_it = objects_by_pager_.find(dead_id.value());
      if (dead_it != objects_by_pager_.end()) {
        HandlePagerDeath(chain, dead_it->second);
      }
    }
    return;
  }
  if (msg.id() == kMsgIdNoSenders) {
    // The kernel never registers for no-senders on the ports it watches (it
    // holds its own send rights to them, which would keep the count up), so
    // any no-senders message on a request port is a manager forging the
    // notification protocol — same §6 threat as a forged death above.
    if (request_port_id != death_notify_receive_.id()) {
      MACH_LOG(kWarn) << "forged no-senders notification on request port " << request_port_id;
    }
    return;
  }
  std::shared_ptr<VmObject> object;
  {
    ChainLock chain(chain_mu_);
    auto it = objects_by_request_.find(request_port_id);
    if (it == objects_by_request_.end()) {
      MACH_LOG(kDebug) << "pager message for unknown request port " << request_port_id;
      return;
    }
    object = it->second;
  }
  switch (msg.id()) {
    case kMsgPagerDataProvided: {
      Result<PagerDataProvidedArgs> args = DecodePagerDataProvided(msg);
      if (args.ok()) {
        HandleDataProvided(object, args.value().offset, args.value().data,
                           args.value().lock_value);
      }
      break;
    }
    case kMsgPagerDataUnavailable: {
      Result<PagerDataUnavailableArgs> args = DecodePagerDataUnavailable(msg);
      if (args.ok()) {
        HandleDataUnavailable(object, args.value().offset, args.value().size);
      }
      break;
    }
    case kMsgPagerDataLock: {
      Result<PagerDataLockArgs> args = DecodePagerDataLock(msg);
      if (args.ok()) {
        HandleDataLock(object, args.value().offset, args.value().length,
                       args.value().lock_value);
      }
      break;
    }
    case kMsgPagerFlushRequest: {
      Result<PagerRangeArgs> args = DecodePagerFlushRequest(msg);
      if (args.ok()) {
        HandleFlush(object, args.value().offset, args.value().length);
      }
      break;
    }
    case kMsgPagerCleanRequest: {
      Result<PagerRangeArgs> args = DecodePagerCleanRequest(msg);
      if (args.ok()) {
        HandleClean(object, args.value().offset, args.value().length);
      }
      break;
    }
    case kMsgPagerCache: {
      Result<PagerCacheArgs> args = DecodePagerCache(msg);
      if (args.ok()) {
        HandleCache(object, args.value().may_cache);
      }
      break;
    }
    default:
      MACH_LOG(kWarn) << "unknown pager message id " << msg.id();
      break;
  }
}

void VmSystem::HandleDataProvided(const std::shared_ptr<VmObject>& object, VmOffset offset,
                                  const std::vector<std::byte>& data, VmProt lock_value) {
  const VmSize ps = page_size();
  if (offset % ps != 0) {
    return;  // Alignment violation: discard.
  }
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  // Only integral multiples of the page size are accepted; a trailing
  // partial page is discarded (§3.4.1).
  const VmSize full = (data.size() / ps) * ps;
  for (VmOffset delta = 0; delta < full; delta += ps) {
    VmOffset off = offset + delta;
    VmPage* page = PageLookup(object.get(), off);
    if (page != nullptr) {
      if (page->busy && page->absent) {
        phys_->WriteFrame(page->frame, 0, data.data() + delta, ps);
        phys_->ClearModify(page->frame);
        phys_->ClearReference(page->frame);
        page->page_lock = lock_value;
        page->busy = false;
        page->absent = false;
        page->unavailable = false;
        page->dirty = false;
        // Batched: the object lock (held to the end) keeps the page stable
        // until the flush below, and a multi-page provision pays for one
        // queue lock instead of one per page.
        PageActivateDeferred(page);
        counters_.pageins.fetch_add(1, std::memory_order_relaxed);
      }
      // Already-resident data: duplicate provision is ignored.
      continue;
    }
    // Unsolicited data (pre-paging by an advanced manager). Accept it only
    // while memory is plentiful — a flooding manager must not drain the
    // pool (§6.1).
    if (phys_->free_frames() <= free_target_) {
      continue;
    }
    Result<VmPage*> np = PageAllocLocked(object.get(), off, /*allow_reserve=*/false);
    if (!np.ok()) {
      continue;
    }
    phys_->WriteFrame(np.value()->frame, 0, data.data() + delta, ps);
    phys_->ClearModify(np.value()->frame);
    phys_->ClearReference(np.value()->frame);
    np.value()->page_lock = lock_value;
    PageActivateDeferred(np.value());
    counters_.pageins.fetch_add(1, std::memory_order_relaxed);
  }
  FlushQueueBatch();
  object->cv.notify_all();
}

void VmSystem::HandleDataUnavailable(const std::shared_ptr<VmObject>& object, VmOffset offset,
                                     VmSize size) {
  const VmSize ps = page_size();
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  for (VmOffset off = TruncPage(offset, ps); off < offset + size; off += ps) {
    VmPage* page = PageLookup(object.get(), off);
    if (page != nullptr && page->busy && page->absent) {
      // The faulting thread resolves the substitution (zero fill or shadow
      // copy) in its own context.
      page->unavailable = true;
      page->busy = false;
    }
  }
  object->cv.notify_all();
}

void VmSystem::HandleDataLock(const std::shared_ptr<VmObject>& object, VmOffset offset,
                              VmSize length, VmProt lock_value) {
  const VmSize ps = page_size();
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  for (VmOffset off = TruncPage(offset, ps); off < offset + length; off += ps) {
    VmPage* page = PageLookup(object.get(), off);
    if (page == nullptr) {
      continue;
    }
    page->page_lock = lock_value;
    page->unlock_pending = false;
    // Lower existing hardware mappings to the newly permitted access. (A
    // busy placeholder has no mappings, so this is a no-op for it; pinned
    // pages are re-clamped at unpin if the lock changed under them.)
    Pmap::PageProtect(phys_, page->frame, kVmProtAll & ~lock_value);
  }
  object->cv.notify_all();
}

void VmSystem::HandleFlush(const std::shared_ptr<VmObject>& object, VmOffset offset,
                           VmSize length) {
  const VmSize ps = page_size();
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  std::vector<VmPage*> victims;
  for (VmPage* page : object->pages) {
    if (page->offset >= TruncPage(offset, ps) && page->offset < offset + length &&
        !page->busy && page->pin_count == 0) {
      victims.push_back(page);
    }
  }
  // Invalidate every victim's mappings first, then sample: the dirty ones
  // go back to the manager in contiguous multi-page runs before anything
  // is freed (invalidation writes back modifications first, §3.4.1).
  std::vector<VmPage*> dirty;
  for (VmPage* page : victims) {
    Pmap::PageProtect(phys_, page->frame, kVmProtNone);
    if (page->dirty || phys_->IsModified(page->frame)) {
      page->dirty = true;
      dirty.push_back(page);
    }
  }
  // A run refused in unprotected mode stays unwritten; the victims are
  // discarded below either way.
  WriteBackDirtyLocked(olk, object, std::move(dirty), /*park_on_failure=*/true);
  for (VmPage* page : victims) {
    PageFreeLocked(olk, page);
  }
  // Acknowledge (memory_object_lock_completed): dirty data, if any, went
  // out above on the same port, so the manager can distinguish "copy was
  // clean" from "flush still in flight" without a timeout.
  if (object->pager.valid()) {
    MsgSend(object->pager,
            EncodePagerLockCompleted(PagerLockCompletedArgs{object->request_send, offset, length}),
            kPoll);
  }
  object->cv.notify_all();
}

void VmSystem::HandleClean(const std::shared_ptr<VmObject>& object, VmOffset offset,
                           VmSize length) {
  const VmSize ps = page_size();
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  std::vector<VmPage*> dirty;
  for (VmPage* page : object->pages) {
    if (page->offset < TruncPage(offset, ps) || page->offset >= offset + length ||
        page->busy || page->pin_count > 0) {
      continue;
    }
    // Write-protect before sampling so no modification slips past the copy.
    Pmap::PageProtect(phys_, page->frame, kVmProtRead | kVmProtExecute);
    if (page->dirty || phys_->IsModified(page->frame)) {
      dirty.push_back(page);
    }
  }
  // A refused run's pages simply stay dirty; pageout retries later.
  WriteBackDirtyLocked(olk, object, std::move(dirty), /*park_on_failure=*/false);
  if (object->pager.valid()) {
    MsgSend(object->pager,
            EncodePagerLockCompleted(PagerLockCompletedArgs{object->request_send, offset, length}),
            kPoll);
  }
  object->cv.notify_all();
}

void VmSystem::HandleCache(const std::shared_ptr<VmObject>& object, bool may_cache) {
  ChainLock chain(chain_mu_);
  object->can_persist = may_cache;
  if (!may_cache && object->cached) {
    // Permission rescinded after the object went idle: terminate now.
    TerminateObject(chain, object);
  }
}

void VmSystem::HandlePagerDeath(ChainLock& chain, std::shared_ptr<VmObject> object) {
  const bool zero_fill = config_.on_pager_timeout == Config::OnPagerTimeout::kZeroFill;
  if (zero_fill && object->cached) {
    // A §3.4.1 cache entry has no map references: the pager registries are
    // the only thing keeping it alive, so the severing below would drop
    // the last reference to an object that still owns resident pages —
    // and nothing could ever map the re-homed internal object anyway.
    // Terminate instead; the dead pager takes no write-backs, so the
    // cached copies are simply discarded.
    counters_.manager_deaths.fetch_add(1, std::memory_order_relaxed);
    TerminateObject(chain, object);
    return;
  }
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  counters_.manager_deaths.fetch_add(1, std::memory_order_relaxed);
  for (VmPage* page : object->pages) {
    if (page->busy && page->absent) {
      // In-flight placeholder: the requested data can never arrive. Resolve
      // it under the same §6.2.1 policy a timeout would apply, but now.
      // (Settling another thread's busy page is the documented exception to
      // busy ownership: the owner only ever observes the settled state.)
      if (SettleByPolicyLocked(page)) {
        PageActivateDeferred(page);  // Stable: olk held until the flush.
      } else {
        page->error = true;
        page->busy = false;
        page->absent = false;
      }
      counters_.death_resolved_pages.fetch_add(1, std::memory_order_relaxed);
    }
    // A dead manager can never answer pager_data_unlock: lift its locks.
    page->page_lock = kVmProtNone;
    page->unlock_pending = false;
  }
  FlushQueueBatch();
  if (zero_fill) {
    // Sever the association with the dead manager cleanly. The object
    // lives on as an internal one: future non-resident faults zero-fill,
    // and future pageouts re-home it with the default pager.
    if (object->pager.valid()) {
      objects_by_pager_.erase(object->pager.id());
    }
    if (object->request_receive.valid()) {
      objects_by_request_.erase(object->request_receive.id());
      pager_requests_->Remove(object->request_receive);
    }
    object->pager = SendRight();
    object->request_send = SendRight();
    object->name_send = SendRight();
    object->request_receive.Destroy();
    object->name_receive.Destroy();
    object->internal = true;
    object->pager_initialized = false;
    // Whatever the dead manager held is gone; a later re-homing with the
    // default pager must not inherit phantom coverage. (Parked offsets stay:
    // the parking store keys by the stable object id and still has the data.)
    object->paged_offsets.clear();
  }
  // Under kError the registries keep the dead pager right: resident error
  // pages answer kMemoryError, and future faults on non-resident pages hit
  // the pager.IsDead() fast path in ResolvePage (kMemoryFailure).
  object->cv.notify_all();
}

}  // namespace mach
