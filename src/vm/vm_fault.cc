// The fault handler (§5.5): validity and protection, page lookup through
// the shadow chain, copy-on-write, data-manager interaction
// (pager_data_request / pager_data_unlock) and hardware validation.
//
// Concurrency shape (see the lock-order comment in vm_system.h): a fault
// resolves its map entry under the map lock(s) taken *shared*, walks the
// shadow chain under per-object locks taken hand over hand (child before
// parent), and installs the frame into the pmap under the map shared lock
// while holding only a pin on the page. Waits for busy pages block on the
// owning object's condition variable — targeted wakeups, not a global poll.
//
// The page walk (ResolvePage) is a loop of passes over named phases. Each
// pass starts at the top object with its lock held and runs the chain walk,
// which hands the fault to the phase that can settle it:
//
//   1. chain walk (WalkChain, UsePage): look the page up in each object of
//      the shadow chain, descending hand over hand, until an object holds
//      the page, its pager must be asked, or the chain ends;
//   2. busy wait (AwaitPage): the page is in transit for another thread, or
//      its manager's lock forbids this access and an unlock is requested;
//   3. pager request (RequestPage, AwaitPlaceholder): a placeholder plus a
//      fault-ahead run of speculative neighbours, one pager_data_request,
//      and the wait for the answer;
//   4. COW copy (CopyOnWrite): a write that found the page in a backing
//      object pushes a private copy into the top object;
//   5. settle / zero fill (Unpark, SettleUnavailable, ZeroFillAtCursor):
//      parked data comes back, a manager's "unavailable" is zeroed (the
//      default pager's means lost data and follows the failure policy), and
//      a chain with no data zero-fills in the top object.
//
// Step contract: a phase is entered with `w.olk` holding `w.object`'s mu and
// returns one FaultStep: kDone with the page pinned; kRescan (start over from
// the top, because a lock was dropped and the world may have changed);
// kNeedFrames (the same, after waiting for free frames); or kFail with the
// fault's verdict. A phase may return with `w.olk` held or released, and
// never with a placeholder it owns still busy.

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <optional>
#include <vector>

#include "src/base/lock_probe.h"
#include "src/base/log.h"
#include "src/pager/protocol.h"
#include "src/vm/vm_system.h"

namespace mach {

namespace {
using SteadyClock = std::chrono::steady_clock;

// Accumulates the VM-tier lock acquisitions made on this thread during the
// enclosing scope (one fault) into the given counter, on every exit path.
struct LockOpScope {
  explicit LockOpScope(std::atomic<uint64_t>& target)
      : target_(target), entry_(lock_probe::Count()) {}
  ~LockOpScope() {
    target_.fetch_add(lock_probe::Count() - entry_, std::memory_order_relaxed);
  }
  std::atomic<uint64_t>& target_;
  uint64_t entry_;
};
}  // namespace

// --- entry resolution -------------------------------------------------------

Result<VmSystem::EntryRef> VmSystem::LookupEntry(TaskVm& task, VmOffset addr, VmProt access) {
  EntryRef out;
  out.top = task.map->Lookup(addr);
  if (out.top == nullptr) {
    return KernReturn::kInvalidAddress;
  }
  if ((access & ~out.top->protection) != 0) {
    return KernReturn::kProtectionFailure;
  }
  VmOffset local;
  if (out.top->is_share) {
    VmOffset share_addr = out.top->offset + (addr - out.top->start);
    lock_probe::Note();
    out.share_lock = std::shared_lock<std::shared_mutex>(out.top->share_map->lock());
    out.holder = out.top->share_map->Lookup(share_addr);
    if (out.holder == nullptr) {
      return KernReturn::kInvalidAddress;
    }
    local = share_addr - out.holder->start;
  } else {
    out.holder = out.top;
    local = addr - out.top->start;
  }
  if (out.holder->object == nullptr ||
      (out.holder->needs_copy && (access & kVmProtWrite) != 0)) {
    // Lazy zero-fill object creation or a copy-on-write shadow push is
    // needed; both mutate the entry, so the caller must run PrepareEntry
    // under exclusive locks and retry.
    out.needs_prepare = true;
  }
  out.object_offset = out.holder->offset + local;
  return out;
}

KernReturn VmSystem::PrepareEntry(TaskVm& task, VmOffset addr, VmProt access) {
  lock_probe::Note();
  MapMutation map_lock(*task.map);
  MapEntry* top = task.map->Lookup(addr);
  if (top == nullptr) {
    return KernReturn::kInvalidAddress;
  }
  if ((access & ~top->protection) != 0) {
    return KernReturn::kProtectionFailure;
  }
  MapEntry* holder = top;
  std::unique_lock<std::shared_mutex> share_lock;
  if (top->is_share) {
    VmOffset share_addr = top->offset + (addr - top->start);
    lock_probe::Note();
    share_lock = std::unique_lock<std::shared_mutex>(top->share_map->lock());
    holder = top->share_map->Lookup(share_addr);
    if (holder == nullptr) {
      return KernReturn::kInvalidAddress;
    }
  }
  if (holder->object == nullptr) {
    // Zero-filled-on-demand region: create the backing object lazily.
    holder->object = CreateInternalObject(holder->size());
    ObjectRef(holder->object);
  }
  if (holder->needs_copy && (access & kVmProtWrite) != 0) {
    // Copy-on-write: shadow before the first write (§5.5). The chain lock
    // guards the shadow_children back-pointer update.
    lock_probe::Note();
    ChainLock chain(chain_mu_);
    MakeShadow(chain, holder);
  }
  return KernReturn::kSuccess;
}

Result<VmSystem::EntryTarget> VmSystem::ResolveEntry(TaskVm& task, VmOffset page_addr,
                                                     VmProt access, bool install) {
  for (;;) {
    lock_probe::Note();
    std::shared_lock<std::shared_mutex> map_lock(task.map->lock());
    if (install && !task.map->snapshot_current()) {
      // Refresh the published snapshot while we are here anyway: under the
      // shared lock the generation is stable (mutators take it exclusive),
      // so concurrent publishers race benignly toward identical snapshots.
      task.map->PublishSnapshot();
    }
    Result<EntryRef> re = LookupEntry(task, page_addr, access);
    if (!re.ok()) {
      return re.status();
    }
    EntryRef& entry = re.value();
    if (entry.needs_prepare) {
      entry.share_lock = {};
      map_lock.unlock();
      KernReturn kr = PrepareEntry(task, page_addr, access);
      if (!IsOk(kr)) {
        return kr;
      }
      continue;  // Re-resolve with the entry prepared.
    }
    EntryTarget target;
    target.object = entry.holder->object;
    target.offset = TruncPage(entry.object_offset, page_size());
    // Probe the page while the map lock still pins the entry (map shared →
    // object → queues → pmap is the documented order).
    lock_probe::Note();
    ObjectLock olk(target.object->mu);
    VmPage* page = PageLookup(target.object.get(), target.offset);
    if (page == nullptr) {
      // A true miss (not even a placeholder): feed the sequentiality
      // detector while the holder pointer is still valid. Re-faults on pages
      // fault-ahead already brought in don't count — only run *starts*
      // advance the detector, which keeps the window doubling across a scan.
      target.fa_window = ComputeFaultAheadWindow(entry.holder, target.offset);
    } else if (install && page->settled()) {
      // Fast path: a settled page resident in the entry's own object is
      // installed in this same critical section. The object lock keeps the
      // page stable across the pmap update, so no pin and no second map
      // lookup are needed. Anything unsettled, locked against this access
      // or with a copy pending on a write goes on to ResolvePage.
      page->readahead = false;  // First demand touch.
      VmProt prot = entry.top->protection;
      if (entry.holder->needs_copy) {
        prot &= ~kVmProtWrite;
      }
      prot &= ~page->page_lock;
      if ((access & ~prot) == 0) {
        task.pmap->Enter(page_addr, page->frame, prot);
        PageActivate(page);
        counters_.fast_faults.fetch_add(1, std::memory_order_relaxed);
        counters_.faults.fetch_add(1, std::memory_order_relaxed);
        target.installed = true;
      }
    }
    return target;
  }
}

// --- adaptive fault-ahead ---------------------------------------------------

uint32_t VmSystem::ComputeFaultAheadWindow(MapEntry* holder, VmOffset object_offset) {
  if (config_.fault_ahead_max <= 1) {
    return 1;
  }
  const VmSize ps = page_size();
  const uint64_t page_no = object_offset / ps;
  const uint64_t prev = holder->fault_ahead.word.load(std::memory_order_relaxed);
  const uint64_t expected = prev & FaultAheadState::kPageMask;  // page+1; 0 = none.
  const uint32_t prev_win =
      static_cast<uint32_t>(prev >> FaultAheadState::kWindowShift);
  uint32_t win = 1;
  if (expected != 0 && page_no + 1 == expected) {
    // This miss landed exactly where the last run ended: a sequential
    // streak. Double the window. A truncated run (neighbour was resident,
    // entry boundary, frame shortage) makes the next miss arrive early and
    // reads as random — conservative, the streak just restarts.
    win = std::min(std::max(prev_win, 1u) * 2, config_.fault_ahead_max);
  }
  // Never let a run cross the mapping: clamp to the entry's remaining
  // object-coordinate range. Shm hash-stripe entries rely on this to keep a
  // run inside one shard's stripe.
  const uint64_t entry_pages_left =
      (holder->offset + holder->size() - object_offset) / ps;
  win = static_cast<uint32_t>(
      std::min<uint64_t>(win, std::max<uint64_t>(entry_pages_left, 1)));
  holder->fault_ahead.word.store(
      ((page_no + win + 1) & FaultAheadState::kPageMask) |
          (uint64_t{win} << FaultAheadState::kWindowShift),
      std::memory_order_relaxed);
  return win;
}

// --- pins -------------------------------------------------------------------

VmSystem::PagePin VmSystem::MakePinLocked(ObjectLock& olk, std::shared_ptr<VmObject> owner,
                                          VmPage* page, bool from_backing) {
  (void)olk;
  ++page->pin_count;
  PagePin pin;
  pin.owner = std::move(owner);
  pin.page = page;
  pin.from_backing = from_backing;
  pin.page_lock = page->page_lock;
  return pin;
}

void VmSystem::UnpinPage(PagePin& pin) {
  if (pin.page == nullptr) {
    return;
  }
  lock_probe::Note();
  ObjectLock olk(pin.owner->mu);
  VmPage* page = pin.page;
  assert(page->pin_count > 0);
  --page->pin_count;
  if (page->pin_count == 0 && !pin.owner->alive) {
    // The object died while we held the pin; the page was orphaned
    // (TerminateObject skips pinned pages) and we are the last holder.
    PageFreeLocked(olk, page);
  } else if (page->page_lock != pin.page_lock) {
    // A manager lock raced with our pmap install: the frame may now be
    // mapped with more access than the lock allows. Re-clamp every mapping.
    Pmap::PageProtect(phys_, page->frame, kVmProtAll & ~page->page_lock);
  }
  pin.page = nullptr;
  pin.owner->cv.notify_all();
  pin.owner.reset();
}

// --- pager interaction ------------------------------------------------------

bool VmSystem::WaitForPage(ObjectLock& olk, VmObject* object,
                           SteadyClock::time_point deadline) {
  // Bounded slice so a lost race (the notifying thread fired before we
  // blocked) costs one slice, not the whole fault budget.
  SteadyClock::time_point slice = SteadyClock::now() + std::chrono::milliseconds(100);
  object->cv.wait_until(olk, std::min(slice, deadline));
  return SteadyClock::now() < deadline;
}

KernReturn VmSystem::SendToPager(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                 Message msg) {
  // A manager whose queue stays full for the whole fault-wait budget is an
  // unresponsive manager (§6.1): bound the send by the same policy timeout.
  Timeout send_timeout = std::chrono::milliseconds(2000);
  if (config_.pager_timeout.has_value() && *config_.pager_timeout < *send_timeout) {
    send_timeout = config_.pager_timeout;
  }
  SendRight pager = object->pager;
  ScopedUnlock unlock(olk);
  return MsgSend(pager, std::move(msg), send_timeout);
}

bool VmSystem::SettleByPolicyLocked(VmPage* page) {
  if (config_.on_pager_timeout != Config::OnPagerTimeout::kZeroFill) {
    return false;
  }
  ZeroFill(page);
  phys_->ClearModify(page->frame);
  phys_->ClearReference(page->frame);
  page->busy = false;
  page->absent = false;
  page->unavailable = false;
  page->dirty = true;  // No backing copy of the zeroes exists.
  return true;
}

// --- the page walk ----------------------------------------------------------

// One ResolvePage call: the fault's parameters, its retry state, and the
// cursor: the chain object the walk has reached (`object`, whose mu `olk`
// holds between phases) and the page's offset in it.
struct VmSystem::FaultWalk {
  std::shared_ptr<VmObject> first_object;
  VmOffset first_offset;
  VmProt fault_type;
  uint32_t fa_window;
  SteadyClock::time_point deadline = SteadyClock::time_point::max();
  bool first_probe = true;
  int shortage_rounds = 0;
  std::shared_ptr<VmObject> object{};
  VmOffset offset = 0;
  ObjectLock olk{};

  // After enough frame-shortage rounds a fault may dip into the reserve
  // (§6.2.3), so the fault that *frees* memory can always complete.
  bool allow_reserve() const { return shortage_rounds >= 100; }

  // Moves the cursor, and the lock, to the top object. The current lock goes
  // first: the cursor may sit at an ancestor, and child-before-parent order
  // forbids taking the top object's lock while holding it.
  void MoveToTop() {
    olk = ObjectLock();
    lock_probe::Note();
    olk = ObjectLock(first_object->mu);
    object = first_object;
    offset = first_offset;
  }
};

// What a phase tells ResolvePage's loop to do next (the step contract in the
// file comment).
struct VmSystem::FaultStep {
  enum class Kind { kDone, kRescan, kNeedFrames, kFail };
  Kind kind;
  KernReturn verdict = KernReturn::kSuccess;  // kFail only.
  PagePin pin{};                              // kDone only.

  static FaultStep Done(PagePin pin) {
    return {Kind::kDone, KernReturn::kSuccess, std::move(pin)};
  }
  static FaultStep Rescan() { return {Kind::kRescan}; }
  static FaultStep Fail(KernReturn verdict) { return {Kind::kFail, verdict}; }
  // A failed PageAllocLocked: another thread filled the slot (rescan and use
  // its page), or frames ran short.
  static FaultStep AllocFailed(KernReturn status) {
    return {status == KernReturn::kMemoryPresent ? Kind::kRescan : Kind::kNeedFrames};
  }
};

Result<VmSystem::PagePin> VmSystem::ResolvePage(std::shared_ptr<VmObject> first_object,
                                                VmOffset first_offset, VmProt fault_type,
                                                uint32_t fa_window) {
  assert(first_offset % page_size() == 0);
  FaultWalk w{std::move(first_object), first_offset, fault_type, fa_window};
  if (config_.pager_timeout.has_value()) {
    // Deadline for data-manager interactions (§6.2.1 failure options).
    w.deadline = SteadyClock::now() + *config_.pager_timeout;
  }
  for (;; w.first_probe = false) {  // Each pass is one full rescan from the top.
    w.MoveToTop();
    FaultStep step = WalkChain(w);
    w.olk = ObjectLock();  // Between passes no lock is held.
    switch (step.kind) {
      case FaultStep::Kind::kDone:
        return std::move(step.pin);
      case FaultStep::Kind::kFail:
        return step.verdict;
      case FaultStep::Kind::kRescan:
        break;
      case FaultStep::Kind::kNeedFrames:
        // Frame shortage below the reserved floor: with every lock dropped,
        // help reclaim and retry.
        if (++w.shortage_rounds > 100) {
          return KernReturn::kResourceShortage;
        }
        WaitForFreeFrames();
        break;
    }
  }
}

VmSystem::FaultStep VmSystem::WalkChain(FaultWalk& w) {
  uint64_t depth = 1;
  for (;;) {
    if (VmPage* page = PageLookup(w.object.get(), w.offset); page != nullptr) {
      return UsePage(w, page);
    }
    if (w.object->pager.valid()) {
      // §6.2.2: data parked with the default pager takes precedence over
      // asking the (possibly errant) manager, and a dead manager's verdict
      // comes before asking whether its pager could hold the page at all.
      if (std::optional<FaultStep> step = Unpark(w)) {
        return std::move(*step);
      }
      if (w.object->pager.IsDead()) {
        // Destruction of a memory object by the data manager aborts
        // requests in progress (§6.2.1).
        if (config_.on_pager_timeout != Config::OnPagerTimeout::kZeroFill) {
          return FaultStep::Fail(KernReturn::kMemoryFailure);
        }
        Result<VmPage*> np = ZeroFillAtCursor(w);
        return np.ok() ? FaultStep::Rescan() : FaultStep::AllocFailed(np.status());
      }
      if (w.object->PagerMayHold(w.offset)) {
        return RequestPage(w);
      }
    }
    if (w.object->shadow == nullptr) {
      // Nothing anywhere in the chain: zero-fill in the *top* object so the
      // page is private to this mapping chain.
      if (w.object != w.first_object) {
        w.MoveToTop();
        if (PageLookup(w.object.get(), w.offset) != nullptr) {
          return FaultStep::Rescan();  // A page appeared while we walked; use it.
        }
      }
      Result<VmPage*> np = ZeroFillAtCursor(w);
      if (!np.ok()) {
        return FaultStep::AllocFailed(np.status());
      }
      return FaultStep::Done(MakePinLocked(w.olk, w.object, np.value(), /*from_backing=*/false));
    }
    // Walk down, hand over hand: the parent's lock is taken before the
    // assignment releases the child's, so the shadow pointer we followed
    // cannot be spliced out from under us mid-step.
    std::shared_ptr<VmObject> parent = w.object->shadow;
    const VmOffset parent_offset = w.offset + w.object->shadow_offset;
    lock_probe::Note();
    w.olk = ObjectLock(parent->mu);
    w.object = std::move(parent);
    w.offset = parent_offset;
    ++depth;
    uint64_t prev_max = counters_.chain_depth_max.load(std::memory_order_relaxed);
    while (depth > prev_max && !counters_.chain_depth_max.compare_exchange_weak(
                                   prev_max, depth, std::memory_order_relaxed)) {
    }
  }
}

VmSystem::FaultStep VmSystem::UsePage(FaultWalk& w, VmPage* page) {
  // A faulting thread has reached this page: whatever happens next (wait,
  // settle, pin), the speculation paid off.
  page->readahead = false;
  if (page->busy) {
    return AwaitPage(w, page);
  }
  if (page->error) {
    return FaultStep::Fail(KernReturn::kMemoryError);
  }
  if (page->unavailable) {
    return SettleUnavailable(w, page);
  }
  if (page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kNone) {
    // Every settled resident page belongs on a pageout queue. Pages settled
    // in place — a pager verdict, unparked data, zero fill on a dead or
    // silent pager — are first seen here, on the rescan. A copy-on-write
    // source settled in a backing object is never activated by the install
    // in Fault, and off every queue it could never be reclaimed.
    PageActivate(page);
  }
  const bool top = w.object == w.first_object;
  if (top && (w.fault_type & page->page_lock) != 0 && w.object->pager.valid()) {
    return AwaitPage(w, page);  // The manager's lock forbids this access.
  }
  if (!top && (w.fault_type & kVmProtWrite) != 0) {
    return CopyOnWrite(w, page);
  }
  if (top && w.first_probe) {
    // Settled page in the top object on the very first probe — the fast
    // path collapse funnels long-lived fork survivors into.
    counters_.fast_faults.fetch_add(1, std::memory_order_relaxed);
  }
  // A backing object's page maps read-only: its copy is still pending.
  return FaultStep::Done(MakePinLocked(w.olk, w.object, page, /*from_backing=*/!top));
}

VmSystem::FaultStep VmSystem::AwaitPage(FaultWalk& w, VmPage* page) {
  const bool busy = page->busy;
  if (!busy && !page->unlock_pending) {
    page->unlock_pending = true;
    counters_.unlock_requests.fetch_add(1, std::memory_order_relaxed);
    PagerDataUnlockArgs args{w.object->request_send, page->offset, page_size(), w.fault_type};
    if (!IsOk(SendToPager(w.olk, w.object, EncodePagerDataUnlock(args)))) {
      // The send dropped the lock, so `page` may be gone: re-find it. Left
      // set, the flag would make every later write wait out the timeout
      // for an answer to a request that was never queued.
      if (VmPage* again = w.object->pages.Find(w.offset); again != nullptr) {
        again->unlock_pending = false;
      }
      return FaultStep::Fail(KernReturn::kMemoryFailure);
    }
  }
  // From here the page pointer may dangle: once the lock drops, the owning
  // thread may free or rename the page. Wait for a state change and rescan.
  if (!WaitForPage(w.olk, w.object.get(), w.deadline)) {
    return FaultStep::Fail(KernReturn::kMemoryFailure);
  }
  VmPage* again = busy ? PageLookup(w.object.get(), w.offset) : nullptr;
  if (again != nullptr && again->busy) {
    counters_.spurious_page_wakeups.fetch_add(1, std::memory_order_relaxed);
  }
  return FaultStep::Rescan();
}

std::optional<VmSystem::FaultStep> VmSystem::Unpark(FaultWalk& w) {
  auto parked = w.object->parked_offsets.find(w.offset);
  if (parked == w.object->parked_offsets.end() || parking_ == nullptr) {
    return std::nullopt;
  }
  std::optional<std::vector<std::byte>> data = parking_->Unpark(w.object->id(), w.offset);
  w.object->parked_offsets.erase(parked);
  if (!data.has_value()) {
    return std::nullopt;
  }
  Result<VmPage*> np = PageAllocLocked(w.object.get(), w.offset, w.allow_reserve());
  if (!np.ok()) {
    // Keep the unparked bytes safe either way.
    w.object->parked_offsets.insert(w.offset);
    parking_->Park(w.object->id(), w.offset, std::move(*data));
    return FaultStep::AllocFailed(np.status());
  }
  phys_->WriteFrame(np.value()->frame, 0, data->data(),
                    std::min<VmSize>(data->size(), page_size()));
  np.value()->dirty = true;  // Never reached its manager.
  w.object->cv.notify_all();
  return FaultStep::Rescan();  // The rescan finds it resident.
}

VmSystem::FaultStep VmSystem::RequestPage(FaultWalk& w) {
  // run[0] is the faulting page's placeholder. Fault-ahead extends the
  // request over a contiguous run of absent neighbours (top-object misses
  // only: shadow descents stay single-page). The run ends at the object
  // end, parked data, an offset the pager cannot hold, or any page
  // PageAllocLocked refuses (resident, busy, pinned, or a frame shortage:
  // speculation never dips into the reserve). Every page is busy+absent and
  // pinned: busy alone stops protecting a placeholder the instant a handler
  // settles it, and a flush, clean or pageout sweeping the object before we
  // re-check would free it under our raw pointer.
  const uint32_t window = w.object == w.first_object ? w.fa_window : 1;
  std::vector<VmPage*> run;
  for (uint32_t i = 0; i < window; ++i) {
    const VmOffset off = w.offset + VmOffset{i} * page_size();
    if (i > 0 && (off >= w.object->size() || w.object->parked_offsets.count(off) != 0 ||
                  !w.object->PagerMayHold(off))) {
      break;
    }
    Result<VmPage*> np = PageAllocLocked(w.object.get(), off, i == 0 && w.allow_reserve());
    if (!np.ok()) {
      if (i == 0) {
        return FaultStep::AllocFailed(np.status());
      }
      break;
    }
    VmPage* page = np.value();
    page->busy = true;
    page->absent = true;
    page->readahead = i > 0;
    ++page->pin_count;
    run.push_back(page);
  }
  if (run.size() > 1) {
    counters_.fault_ahead_requests.fetch_add(1, std::memory_order_relaxed);
    counters_.fault_ahead_pages.fetch_add(run.size() - 1, std::memory_order_relaxed);
  }
  PagerDataRequestArgs args{w.object->request_send, w.offset,
                            VmSize{run.size()} * page_size(), w.fault_type};
  const bool sent = IsOk(SendToPager(w.olk, w.object, EncodePagerDataRequest(args)));
  return AwaitPlaceholder(w, run, sent);
}

VmSystem::FaultStep VmSystem::AwaitPlaceholder(FaultWalk& w, const std::vector<VmPage*>& run,
                                               bool sent) {
  // The lock was dropped during the send and drops in every wait. We still
  // own the placeholders (handlers settle busy+absent pages without freeing
  // them, and the pins keep every sweeper away), so the object's death is
  // the one exit to watch for: TerminateObject then orphans the pinned
  // pages to us, their last holder.
  VmPage* placeholder = run.front();
  bool timed_out = !sent;  // A request that never reached the manager.
  for (;;) {
    if (!w.object->alive) {
      ReleaseRun(w, run, /*abandon=*/true);
      return FaultStep::Fail(KernReturn::kMemoryFailure);
    }
    if (!placeholder->absent || placeholder->unavailable || placeholder->error) {
      break;  // Data, or a verdict, arrived.
    }
    if (timed_out) {
      // §6.2.1: a timeout may abort the memory request: fail the fault, or
      // substitute zero-filled memory in place.
      if (!SettleByPolicyLocked(placeholder)) {
        ReleaseRun(w, run, /*abandon=*/true);
        return FaultStep::Fail(KernReturn::kMemoryFailure);
      }
      break;
    }
    if (!WaitForPage(w.olk, w.object.get(), w.deadline)) {
      timed_out = true;
    } else if (placeholder->absent && !placeholder->unavailable && !placeholder->error) {
      counters_.spurious_page_wakeups.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ReleaseRun(w, run, /*abandon=*/false);
  return FaultStep::Rescan();
}

void VmSystem::ReleaseRun(FaultWalk& w, const std::vector<VmPage*>& run, bool abandon) {
  for (size_t i = 1; i < run.size(); ++i) {
    VmPage* extra = run[i];
    assert(extra->pin_count > 0);
    --extra->pin_count;
    if (w.object->alive ? extra->busy && extra->absent : extra->pin_count == 0) {
      PageFreeLocked(w.olk, extra);
    }
  }
  --run.front()->pin_count;
  if (abandon) {
    PageFreeLocked(w.olk, run.front());
  }
  w.object->cv.notify_all();
}

VmSystem::FaultStep VmSystem::CopyOnWrite(FaultWalk& w, VmPage* source) {
  // Pin the source so it survives while we drop its lock and lock the top
  // object: child-before-parent order forbids taking them the other way
  // round, and we are at the parent now.
  PagePin src = MakePinLocked(w.olk, w.object, source, /*from_backing=*/true);
  w.MoveToTop();
  Result<VmPage*> np = PageAllocLocked(w.object.get(), w.offset, w.allow_reserve());
  FaultStep step = FaultStep::AllocFailed(np.status());
  if (np.ok()) {
    phys_->CopyFrame(source->frame, np.value()->frame);
    np.value()->dirty = true;
    counters_.cow_faults.fetch_add(1, std::memory_order_relaxed);
    step = FaultStep::Done(MakePinLocked(w.olk, w.object, np.value(), /*from_backing=*/false));
    w.object->cv.notify_all();
  }
  w.olk.unlock();
  UnpinPage(src);
  return step;
}

VmSystem::FaultStep VmSystem::SettleUnavailable(FaultWalk& w, VmPage* page) {
  if (w.object->internal) {
    // The default pager is asked only for offsets pushed to it
    // (PagerMayHold), so its "unavailable" means that copy was lost: neither
    // zeroes nor the shadow's older data may stand in for it silently. The
    // §6.2.1 policy decides, as for a timeout.
    if (!SettleByPolicyLocked(page)) {
      page->unavailable = false;
      page->absent = false;
      page->error = true;
      w.object->cv.notify_all();
      return FaultStep::Fail(KernReturn::kMemoryFailure);
    }
  } else {
    // An external manager has no data for the page (§3.4.1). Pager-created
    // objects never shadow another, so there is nothing older to copy.
    assert(w.object->shadow == nullptr);
    ZeroFill(page);
    page->unavailable = false;
    page->absent = false;
  }
  w.object->cv.notify_all();
  return FaultStep::Rescan();
}

Result<VmPage*> VmSystem::ZeroFillAtCursor(FaultWalk& w) {
  Result<VmPage*> np = PageAllocLocked(w.object.get(), w.offset, w.allow_reserve());
  if (np.ok()) {
    ZeroFill(np.value());
    w.object->cv.notify_all();
  }
  return np;
}

// --- the fault entry point --------------------------------------------------

bool VmSystem::TryOptimisticFault(TaskVm& task, VmOffset page_addr, VmProt access) {
  // The ref pins the snapshot — and the shared_ptr<VmObject> inside its
  // entries — against reclamation for the rest of this function.
  AddressMap::SnapshotRef ref(*task.map);
  const MapSnapshot* snap = ref.get();
  if (snap == nullptr) {
    return false;  // Nothing published yet; the locked path will publish.
  }
  if (task.map->generation() != snap->gen) {
    // A mutation landed (or is in flight) since the snapshot was built.
    counters_.map_lookup_retries.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const MapSnapshotEntry* e = snap->Lookup(page_addr);
  if (e == nullptr || e->is_share || e->object == nullptr) {
    // Invalid address, a two-level (sharing map) entry, or a lazy
    // zero-fill entry: all need the locked path — and invalid-address is a
    // *verdict*, which we never return from a snapshot.
    return false;
  }
  VmProt prot = e->protection;
  if (e->needs_copy) {
    prot &= ~kVmProtWrite;  // A write here is a COW push: locked path.
  }
  if ((access & ~prot) != 0) {
    return false;
  }
  const VmOffset object_offset =
      TruncPage(e->offset + (page_addr - e->start), page_size());
  // The snapshot's shared_ptr keeps the object's memory alive; its `alive`
  // flag is re-checked under its lock, exactly like the locked fast path.
  lock_probe::Note();
  ObjectLock olk(e->object->mu);
  if (!e->object->alive) {
    return false;
  }
  VmPage* page = e->object->pages.Find(object_offset);
  if (page == nullptr || !page->settled()) {
    return false;  // Unsettled (or missing) pages are locked-path work.
  }
  // First demand touch of a readahead page: recorded under the object lock
  // (held here), the one lock the flag is guarded by. The detector itself
  // lives in the map entry, which this tier never reads or writes.
  page->readahead = false;
  prot &= ~page->page_lock;
  if ((access & ~prot) != 0) {
    return false;
  }
  // Install with the generation validated inside the pmap lock (see
  // Pmap::EnterIf for why that closes the stale-install race). The object
  // lock keeps the page and its frame stable across the install, matching
  // the object→pmap order the locked fast path uses.
  if (!task.pmap->EnterIf(page_addr, page->frame, prot,
                          task.map->generation_word(), snap->gen)) {
    counters_.map_lookup_retries.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  PageActivate(page);
  counters_.fast_faults.fetch_add(1, std::memory_order_relaxed);
  counters_.faults.fetch_add(1, std::memory_order_relaxed);
  counters_.map_lookups_optimistic.fetch_add(1, std::memory_order_relaxed);
  return true;
}

KernReturn VmSystem::Fault(TaskVm& task, VmOffset addr, VmProt access) {
  const VmOffset page_addr = TruncPage(addr, page_size());
  LockOpScope probe(counters_.fault_lock_ops);
  QueueBatchDrainedCheck batch_check;
  MaybeDrainDeferred();
  // Tier 0: the lock-free resolution. Touches no map lock at all — two
  // locks total (object + pmap) for the common resident re-fault.
  if (TryOptimisticFault(task, page_addr, access)) {
    return KernReturn::kSuccess;
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    // Phase 1: resolve the map entry under the map lock(s), shared mode; a
    // settled resident page is installed right there.
    Result<EntryTarget> target = ResolveEntry(task, page_addr, access, /*install=*/true);
    if (!target.ok()) {
      return target.status();
    }
    if (target.value().installed) {
      return KernReturn::kSuccess;
    }
    const std::shared_ptr<VmObject>& object = target.value().object;
    const VmOffset object_offset = target.value().offset;

    // Phase 2: find/create the page; returns it pinned, no locks held.
    Result<PagePin> rp = ResolvePage(object, object_offset, access, target.value().fa_window);
    if (!rp.ok()) {
      return rp.status();
    }
    PagePin pin = std::move(rp.value());

    // Phase 3: revalidate that the map still leads to the same object and
    // install the translation under the map shared lock. The pin keeps the
    // page alive; holding the map lock keeps the entry's protection and
    // needs_copy stable against concurrent Protect/CopyIn/ForkMap (which
    // all take it exclusively), closing the classic COW install race.
    bool installed = false;
    {
      lock_probe::Note();
      std::shared_lock<std::shared_mutex> map_lock(task.map->lock());
      Result<EntryRef> re = LookupEntry(task, page_addr, access);
      if (re.ok() && !re.value().needs_prepare && re.value().holder->object == object &&
          TruncPage(re.value().object_offset, page_size()) == object_offset) {
        VmProt prot = re.value().top->protection;
        if (pin.from_backing || re.value().holder->needs_copy) {
          prot &= ~kVmProtWrite;  // Copy still pending.
        }
        prot &= ~pin.page_lock;
        if ((access & ~prot) == 0) {
          task.pmap->Enter(page_addr, pin.page->frame, prot);
          installed = true;
        }
      }
    }
    PageActivate(pin.page);
    UnpinPage(pin);
    if (!installed) {
      continue;  // The world changed under us; redo the fault.
    }
    counters_.faults.fetch_add(1, std::memory_order_relaxed);
    // Opportunistic collapse: cheap unlocked precondition checks inside.
    MaybeCollapse(object);
    return KernReturn::kSuccess;
  }
  return KernReturn::kFailure;
}

KernReturn VmSystem::UserAccess(TaskVm& task, VmOffset addr, void* buf, VmSize len,
                                bool is_write) {
  auto* bytes = static_cast<std::byte*>(buf);
  const VmSize ps = page_size();
  while (len > 0) {
    VmOffset page_addr = TruncPage(addr, ps);
    VmSize chunk = std::min<VmSize>(len, page_addr + ps - addr);
    // Hardware fast path; kernel fault on miss, then retry (bounded: the
    // pageout daemon may steal the page between fault and access).
    int tries = 0;
    for (;;) {
      Pmap::AccessResult ar = task.pmap->Access(addr, bytes, chunk, is_write);
      if (ar.fault == Pmap::FaultKind::kNone) {
        break;
      }
      KernReturn kr = Fault(task, ar.fault_addr, is_write ? kVmProtWrite : kVmProtRead);
      if (!IsOk(kr)) {
        return kr;
      }
      if (++tries > 100) {
        return KernReturn::kFailure;
      }
    }
    addr += chunk;
    bytes += chunk;
    len -= chunk;
  }
  return KernReturn::kSuccess;
}

// --- kernel-mediated access -------------------------------------------------

KernReturn VmSystem::ReadMemory(TaskVm& task, VmOffset addr, void* buf, VmSize len) {
  // vm_read: kernel-mediated, faults pages in via the object layer without
  // touching the task's pmap. Pins ride a PinBatch so each page's
  // activation lands in one batched queue_mu_ acquisition instead of one
  // per page.
  auto* out = static_cast<std::byte*>(buf);
  const VmSize ps = page_size();
  PinBatch batch(this);
  while (len > 0) {
    VmOffset page_addr = TruncPage(addr, ps);
    VmSize chunk = std::min<VmSize>(len, page_addr + ps - addr);
    Result<EntryTarget> target = ResolveEntry(task, page_addr, kVmProtRead, /*install=*/false);
    if (!target.ok()) {
      return target.status();
    }
    Result<PagePin> rp = ResolvePage(target.value().object, target.value().offset, kVmProtRead,
                                     target.value().fa_window);
    if (!rp.ok()) {
      return rp.status();
    }
    phys_->ReadFrame(rp.value().page->frame, addr - page_addr, out, chunk);
    batch.Add(std::move(rp.value()));
    addr += chunk;
    out += chunk;
    len -= chunk;
  }
  return KernReturn::kSuccess;  // ~PinBatch flushes and unpins.
}

KernReturn VmSystem::WriteMemory(TaskVm& task, VmOffset addr, const void* buf, VmSize len) {
  const auto* in = static_cast<const std::byte*>(buf);
  const VmSize ps = page_size();
  PinBatch batch(this);
  while (len > 0) {
    VmOffset page_addr = TruncPage(addr, ps);
    VmSize chunk = std::min<VmSize>(len, page_addr + ps - addr);
    Result<EntryTarget> target = ResolveEntry(task, page_addr, kVmProtWrite, /*install=*/false);
    if (!target.ok()) {
      return target.status();
    }
    Result<PagePin> rp = ResolvePage(target.value().object, target.value().offset, kVmProtWrite,
                                     target.value().fa_window);
    if (!rp.ok()) {
      return rp.status();
    }
    PagePin pin = std::move(rp.value());
    bool written = false;
    {
      // ResolvePage waited out any manager lock on the page, but a new one
      // can land before we relock it: then retry the chunk, and ResolvePage
      // asks the manager to unlock.
      ObjectLock olk(pin.owner->mu);
      if ((kVmProtWrite & pin.page->page_lock) == 0 || !pin.owner->pager.valid()) {
        phys_->WriteFrame(pin.page->frame, addr - page_addr, in, chunk);
        pin.page->dirty = true;
        written = true;
      }
    }
    if (!written) {
      UnpinPage(pin);
      continue;
    }
    batch.Add(std::move(pin));
    addr += chunk;
    in += chunk;
    len -= chunk;
  }
  return KernReturn::kSuccess;  // ~PinBatch flushes and unpins.
}

// --- vm_copy and flat-byte conversion ---------------------------------------

KernReturn VmSystem::Copy(TaskVm& task, VmOffset src, VmSize size, VmOffset dst) {
  if (size == 0 || src % page_size() != 0 || dst % page_size() != 0 ||
      size % page_size() != 0) {
    return KernReturn::kInvalidArgument;
  }
  Result<std::shared_ptr<VmMapCopy>> copy = CopyIn(task, src, size);
  if (!copy.ok()) {
    return copy.status();
  }
  MapMutation map_lock(*task.map);
  // vm_copy overwrites an existing destination region.
  if (!task.map->RangeFullyCovered(dst, size)) {
    return KernReturn::kInvalidAddress;
  }
  std::vector<MapEntry> removed = task.map->RemoveRange(dst, dst + size);
  {
    ChainLock chain(chain_mu_);
    for (MapEntry& entry : removed) {
      task.pmap->Remove(entry.start, entry.end);
      ReleaseEntry(chain, std::move(entry));
    }
  }
  VmOffset cursor = dst;
  for (VmMapCopy::Segment& seg : copy.value()->segments()) {
    MapEntry entry;
    entry.start = cursor;
    entry.end = cursor + seg.size;
    if (seg.object != nullptr) {
      entry.object = std::move(seg.object);
      entry.offset = seg.offset;
      entry.needs_copy = true;
    }
    cursor += seg.size;
    task.map->Insert(std::move(entry));
  }
  copy.value()->segments().clear();
  return KernReturn::kSuccess;
}

Result<std::shared_ptr<VmMapCopy>> VmSystem::CopyFromBytes(const void* data, VmSize size) {
  if (size == 0) {
    return KernReturn::kInvalidArgument;
  }
  const VmSize ps = page_size();
  const VmSize rounded = RoundPage(size, ps);
  std::shared_ptr<VmObject> object = CreateInternalObject(rounded);
  const auto* in = static_cast<const std::byte*>(data);
  ObjectLock olk(object->mu);
  for (VmOffset off = 0; off < rounded; off += ps) {
    Result<VmPage*> np = PageAllocLocked(object.get(), off, /*allow_reserve=*/false);
    int rounds = 0;
    while (!np.ok() && np.status() == KernReturn::kResourceShortage && ++rounds <= 100) {
      {
        ScopedUnlock unlock(olk);
        WaitForFreeFrames();
      }
      np = PageAllocLocked(object.get(), off, rounds >= 100);
    }
    if (!np.ok()) {
      // Apply the deferred activations before freeing: PageFreeLocked
      // unqueues, and the batch must never hold a dangling page.
      FlushQueueBatch();
      object->pages.ForEach([&](VmPage* page) { PageFreeLocked(olk, page); });
      return np.status();
    }
    VmSize n = off < size ? std::min<VmSize>(ps, size - off) : 0;
    if (n < ps) {
      phys_->ZeroFrame(np.value()->frame);
    }
    if (n > 0) {
      phys_->WriteFrame(np.value()->frame, 0, in + off, n);
    }
    np.value()->dirty = true;  // No backing store yet.
    // Defer the activation: the object is private (unpublished) and its
    // lock is held, so the page stays stable until the flush below.
    PageActivateDeferred(np.value());
  }
  FlushQueueBatch();
  olk.unlock();
  auto copy = std::make_shared<VmMapCopy>(this, rounded);
  VmMapCopy::Segment seg;
  seg.object = object;
  seg.offset = 0;
  seg.size = rounded;
  ObjectRef(object);
  copy->segments().push_back(std::move(seg));
  return copy;
}

Result<std::vector<std::byte>> VmSystem::CopyAsBytes(const std::shared_ptr<VmMapCopy>& copy) {
  if (copy == nullptr || copy->system() != this) {
    return KernReturn::kInvalidArgument;
  }
  std::vector<std::byte> out(copy->size());
  PinBatch batch(this);
  VmSize cursor = 0;
  for (const VmMapCopy::Segment& seg : copy->segments()) {
    if (seg.object == nullptr) {
      cursor += seg.size;  // Zero region; `out` is zero-initialised.
      continue;
    }
    for (VmOffset off = 0; off < seg.size; off += page_size()) {
      Result<PagePin> rp =
          ResolvePage(seg.object, TruncPage(seg.offset + off, page_size()), kVmProtRead);
      if (!rp.ok()) {
        return rp.status();
      }
      VmSize n = std::min<VmSize>(page_size(), seg.size - off);
      phys_->ReadFrame(rp.value().page->frame, 0, out.data() + cursor + off, n);
      batch.Add(std::move(rp.value()));
    }
    cursor += seg.size;
  }
  return out;
}

}  // namespace mach
