// VmSystem: construction, resident page management, object lifecycle, and
// the Table 3-3 / 3-4 operations. The fault handler lives in vm_fault.cc;
// the pageout daemon and the manager->kernel handlers in vm_pageout.cc.

#include "src/vm/vm_system.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>

#include "src/base/debug.h"
#include "src/base/fault_injector.h"
#include "src/base/lock_probe.h"
#include "src/base/log.h"
#include "src/pager/protocol.h"

namespace mach {

VmSystem::VmSystem(PhysicalMemory* phys, Config config)
    : phys_(phys), config_(config), frame_pages_(phys->frame_count(), nullptr) {
  uint32_t frames = phys_->frame_count();
  free_target_ = config.free_target != 0 ? config.free_target : std::max<uint32_t>(frames / 8, 4);
  reserved_ = config.reserved != 0 ? config.reserved : std::max<uint32_t>(frames / 64, 2);
  // A PinBatch may hold this many frames pinned at once; keep it a small
  // fraction of physical memory so batching can never starve reclaim.
  pin_batch_cap_ = std::min<size_t>(QueueBatch::kCapacity,
                                    std::max<size_t>(1, frames / 8));
  // The wire decoder rejects runs beyond kPagerMaxRunPages, so never ask
  // for more than that.
  config_.fault_ahead_max =
      std::clamp<uint32_t>(config_.fault_ahead_max, 1, kPagerMaxRunPages);
  // Death notifications are delivered with non-blocking sends; a roomy
  // backlog keeps a burst of port deaths from dropping any.
  PortPair death = PortAllocate("pager-death-notify");
  death.receive.port()->SetBacklog(4096);
  death_notify_receive_ = std::move(death.receive);
  death_notify_send_ = std::move(death.send);
  pager_requests_->Add(death_notify_receive_);
}

VmSystem::~VmSystem() {
  StopPageoutDaemon();
  // Free any pages still resident (cached objects, and objects referenced
  // by leaked handles). Every resident page owns a frame, so the frame
  // back-pointers find them all. Execution is single-threaded by now, but
  // each page still leaves its object's table under the owner's lock, like
  // any other free.
  for (size_t frame = 0; frame < frame_pages_.size(); ++frame) {
    if (VmPage* page = frame_pages_[frame]; page != nullptr) {
      ObjectLock olk(page->object->mu);
      PageFreeLocked(olk, page);
    }
  }
}

void VmSystem::SetDefaultPager(SendRight service_port, TrustedParkingStore* parking) {
  ChainLock chain(chain_mu_);
  default_pager_service_ = std::move(service_port);
  parking_ = parking;
}

TaskVm VmSystem::CreateTaskVm() {
  TaskVm vm;
  // A full 32-bit address space starting above page 0 (so that address 0
  // stays invalid, catching null dereferences as real faults).
  vm.map = std::make_shared<AddressMap>(page_size(), uint64_t{1} << 32, page_size());
  vm.pmap = std::make_unique<Pmap>(phys_);
  return vm;
}

// --- resident page management ---------------------------------------------

VmPage* VmSystem::PageLookup(VmObject* object, VmOffset offset) {
  counters_.lookups.fetch_add(1, std::memory_order_relaxed);
  VmPage* page = object->pages.Find(offset);
  if (page != nullptr) {
    counters_.hits.fetch_add(1, std::memory_order_relaxed);
  }
  return page;
}

Result<VmPage*> VmSystem::PageAllocLocked(VmObject* object, VmOffset offset, bool allow_reserve) {
  assert(offset % page_size() == 0);
  // The caller may have dropped the object lock since it probed: filing a
  // second VmPage under an occupied slot would orphan one, so rescan.
  if (object->pages.Contains(offset)) {
    return KernReturn::kMemoryPresent;
  }
  std::optional<uint32_t> frame;
  if (allow_reserve || phys_->free_frames() > reserved_) {
    frame = phys_->AllocFrame();
  }
  if (!frame.has_value()) {
    // Below the reserved floor (§6.2.3). The caller must drop every lock
    // and WaitForFreeFrames; poke the daemon on its behalf.
    pageout_wake_.notify_all();
    return KernReturn::kResourceShortage;
  }
  auto* page = new VmPage();
  page->object = object;
  page->offset = offset;
  page->frame = *frame;
  object->pages.Insert(page);
  frame_pages_[page->frame] = page;
  return page;
}

void VmSystem::PageFreeLocked(ObjectLock& olk, VmPage* page) {
  (void)olk;
  if (page->readahead) {
    // A speculative fault-ahead page is being reclaimed before any thread
    // touched it: wasted speculation (the honest-waste counter for E16).
    counters_.fault_ahead_unused.fetch_add(1, std::memory_order_relaxed);
  }
  Pmap::PageProtect(phys_, page->frame, kVmProtNone);
  PageRemoveFromQueue(page);
  page->object->pages.Erase(page);
  // Cleared before the frame goes back: the next owner's store is then
  // ordered after ours through the free-list lock.
  frame_pages_[page->frame] = nullptr;
  phys_->FreeFrame(page->frame);
  delete page;
  free_cv_.notify_all();
}

void VmSystem::PageActivate(VmPage* page) {
  // Lock-free fast-out: on the fault path nearly every activation finds the
  // page already active. The tag may be stale (a concurrent deactivation is
  // not yet visible), but that loses nothing — the page's reference bit
  // rescues it from the inactive queue exactly as if the orders had swapped.
  if (page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kActive) {
    counters_.activations_skipped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  lock_probe::Note();
  std::lock_guard<std::mutex> g(queue_mu_);
  PageActivateLocked(page);
}

void VmSystem::PageActivateLocked(VmPage* page) {
  if (page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kActive) {
    return;
  }
  PageRemoveFromQueueLocked(page);
  page->queue.store(VmPage::Queue::kActive, std::memory_order_relaxed);
  active_queue_.PushBack(page);
  ++active_count_;
}

void VmSystem::PageDeactivate(VmPage* page) {
  if (page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kInactive) {
    return;  // Same fast-out rationale as PageActivate.
  }
  lock_probe::Note();
  std::lock_guard<std::mutex> g(queue_mu_);
  PageDeactivateLocked(page);
}

void VmSystem::PageDeactivateLocked(VmPage* page) {
  if (page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kInactive) {
    return;
  }
  PageRemoveFromQueueLocked(page);
  page->queue.store(VmPage::Queue::kInactive, std::memory_order_relaxed);
  inactive_queue_.PushBack(page);
  ++inactive_count_;
  // Clear the hardware reference bit so a later scan can tell whether the
  // page was touched while inactive (second chance).
  phys_->ClearReference(page->frame);
}

void VmSystem::PageRemoveFromQueue(VmPage* page) {
  lock_probe::Note();
  std::lock_guard<std::mutex> g(queue_mu_);
  PageRemoveFromQueueLocked(page);
}

void VmSystem::PageRemoveFromQueueLocked(VmPage* page) {
  switch (page->queue.load(std::memory_order_relaxed)) {
    case VmPage::Queue::kActive:
      active_queue_.Remove(page);
      --active_count_;
      break;
    case VmPage::Queue::kInactive:
      inactive_queue_.Remove(page);
      --inactive_count_;
      break;
    case VmPage::Queue::kNone:
      break;
  }
  page->queue.store(VmPage::Queue::kNone, std::memory_order_relaxed);
}

VmSystem::QueueBatch& VmSystem::ThreadQueueBatch() {
  // Per-thread, but shared across VmSystem instances (a process can run two
  // kernels, e.g. the migration demo) — hence the drain-before-return
  // discipline asserted by QueueBatchDrainedCheck: a batch never survives
  // past the operation that filled it, so it can never flush pages into the
  // wrong kernel's queues.
  static thread_local QueueBatch batch;
  return batch;
}

void VmSystem::PageActivateDeferred(VmPage* page) {
  if (page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kActive) {
    counters_.activations_skipped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  QueueBatch& batch = ThreadQueueBatch();
  batch.pages[batch.count++] = page;
  if (batch.count == QueueBatch::kCapacity) {
    FlushQueueBatch();
  }
}

void VmSystem::FlushQueueBatch() {
  QueueBatch& batch = ThreadQueueBatch();
  if (batch.empty()) {
    return;
  }
  lock_probe::Note();
  std::lock_guard<std::mutex> g(queue_mu_);
  for (size_t i = 0; i < batch.count; ++i) {
    PageActivateLocked(batch.pages[i]);
  }
  batch.count = 0;
  counters_.queue_batch_flushes.fetch_add(1, std::memory_order_relaxed);
}

VmSystem::QueueBatchDrainedCheck::QueueBatchDrainedCheck() {
  MACH_DEBUG_ASSERT(ThreadQueueBatch().empty());
}

VmSystem::QueueBatchDrainedCheck::~QueueBatchDrainedCheck() {
  MACH_DEBUG_ASSERT(ThreadQueueBatch().empty());
}

VmSystem::PinBatch::PinBatch(VmSystem* vm) : vm_(vm), cap_(vm->pin_batch_cap_) {
  MACH_DEBUG_ASSERT(ThreadQueueBatch().empty());
  pins_.reserve(cap_);
}

VmSystem::PinBatch::~PinBatch() { Drain(); }

void VmSystem::PinBatch::Add(PagePin&& pin) {
  vm_->PageActivateDeferred(pin.page);
  pins_.push_back(std::move(pin));
  if (pins_.size() >= cap_) {
    Drain();
  }
}

void VmSystem::PinBatch::Drain() {
  // Flush activations *before* unpinning: the pin is what keeps a deferred
  // page stable (unfreed, unrenamed) until its queue entry is applied.
  vm_->FlushQueueBatch();
  for (PagePin& pin : pins_) {
    vm_->UnpinPage(pin);
  }
  pins_.clear();
}

void VmSystem::WaitForFreeFrames() {
  pageout_wake_.notify_all();
  if (ReclaimPass(free_target_) > 0) {
    return;
  }
  // Nothing reclaimable right now (pages busy / queues empty): wait for the
  // daemon or a manager to release something. The slice bounds the cost of
  // a missed notify.
  std::unique_lock<std::mutex> lk(free_mu_);
  free_cv_.wait_for(lk, std::chrono::milliseconds(50));
}

// --- object lifecycle -------------------------------------------------------

std::shared_ptr<VmObject> VmSystem::CreateInternalObject(VmSize size) {
  auto object = std::make_shared<VmObject>(size);
  object->internal = true;
  return object;
}

void VmSystem::MakeShadow(ChainLock& chain, MapEntry* entry) {
  (void)chain;
  // The shadow is fresh and unpublished until the entry assignment (made
  // under the holder map's exclusive lock), so its own lock is not needed.
  std::shared_ptr<VmObject> shadow = CreateInternalObject(entry->size());
  shadow->shadow = entry->object;
  shadow->shadow_offset = entry->offset;
  shadow->shadow->AddShadowChild(shadow.get());
  // The backing object's reference moves from the entry to the shadow
  // pointer: net reference count unchanged.
  entry->object = shadow;
  entry->offset = 0;
  entry->needs_copy = false;
  ObjectRef(entry->object);
}

void VmSystem::ObjectRelease(ChainLock& chain, std::shared_ptr<VmObject> object) {
  if (object == nullptr) {
    return;
  }
  const uint32_t prev = object->map_refs.fetch_sub(1, std::memory_order_acq_rel);
  assert(prev > 0);
  if (prev > 1) {
    // A dropped reference can leave a child's shadow pointer as the only
    // one remaining — the collapse opportunity. Map removal, task death and
    // map-copy consumption (MaybeDrainDeferred) all funnel through here.
    if (prev == 2 && object->shadow_children.size() == 1) {
      TryCollapse(chain, object->shadow_children.front()->shared_from_this());
    }
    return;
  }
  // No address-map references remain (§3.4.1 termination / caching).
  if (object->can_persist && object->pager.valid() && !object->internal) {
    object->cached = true;
    return;
  }
  TerminateObject(chain, object);
}

void VmSystem::TerminateObject(ChainLock& chain, const std::shared_ptr<VmObject>& object) {
  std::shared_ptr<VmObject> shadow;
  {
    ObjectLock olk(object->mu);
    if (!object->alive) {
      return;
    }
    object->alive = false;
    object->cached = false;
    // "When no references to a memory object remain, and all modifications
    // have been written back to the memory object, the kernel deallocates
    // its rights" (§3.4.1): push dirty pages to the data manager first, in
    // the same clustered runs as pageout. A run the manager refuses is
    // lost, not parked: parked data of a terminated object is unreachable
    // and discarded below. Pagerless objects have nowhere to write.
    if (object->pager.valid() && !object->pager.IsDead()) {
      std::vector<VmPage*> dirty;
      for (VmPage* page : object->pages) {
        if (page->busy || page->pin_count > 0) {
          continue;
        }
        Pmap::PageProtect(phys_, page->frame, kVmProtNone);
        if (page->dirty || phys_->IsModified(page->frame)) {
          dirty.push_back(page);
        }
      }
      WriteBackDirtyLocked(olk, object, std::move(dirty), /*park_on_failure=*/false);
    }
    // Busy or pinned pages are orphaned — removed from the queues and left
    // resident; the in-transit owner or last unpinner frees them on seeing
    // !alive.
    object->pages.ForEach([&](VmPage* page) {
      if (page->busy || page->pin_count > 0) {
        PageRemoveFromQueue(page);
        return;
      }
      PageFreeLocked(olk, page);
    });
    // Deallocate the kernel's rights to the three ports; the data manager
    // receives death notifications for the request and name ports and can
    // perform its shutdown (§3.4.1). Order matters: dropping the pager send
    // right *first* makes the manager's no-senders notification for the
    // object port precede the request-port death on the manager's notify
    // queue — managers reclaim backing storage on no-senders and treat the
    // subsequent death as confirmation, never the reverse.
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
    // Any data parked with the default pager under this object's id is
    // unreachable from now on; reclaim the store's blocks.
    if (parking_ != nullptr) {
      parking_->Discard(object->id());
    }
    // Wake faulters waiting on this object so they observe !alive.
    object->cv.notify_all();
    if (object->shadow != nullptr) {
      shadow = std::move(object->shadow);
      object->shadow = nullptr;
      shadow->RemoveShadowChild(object.get());
    }
  }
  // Releasing the shadow can recurse into terminates and collapse probes
  // that take other object locks; do it after dropping ours.
  if (shadow != nullptr) {
    ObjectRelease(chain, std::move(shadow));
  }
}

void VmSystem::ReleaseEntry(ChainLock& chain, MapEntry&& entry) {
  if (entry.is_share) {
    std::shared_ptr<AddressMap> share = std::move(entry.share_map);
    if (share != nullptr && share.use_count() == 1) {
      // Last top-level reference to the sharing map: release its objects.
      // No other map entry can reach the share map any more (use_count is
      // exact: faulters never retain the share_map pointer), so its lock is
      // not needed — and must not be taken here, where chain_mu_ is held.
      std::vector<MapEntry> subs = share->RemoveRange(share->min_address(), share->max_address());
      for (MapEntry& sub : subs) {
        ReleaseEntry(chain, std::move(sub));
      }
    }
    return;
  }
  if (entry.object != nullptr) {
    ObjectRelease(chain, std::move(entry.object));
  }
}

void VmSystem::WriteProtectResident(VmObject* object, VmOffset offset, VmSize size) {
  ObjectLock olk(object->mu);
  for (VmPage* page : object->pages) {
    if (page->offset >= offset && page->offset < offset + size) {
      Pmap::PageProtect(phys_, page->frame, kVmProtRead | kVmProtExecute);
    }
  }
}

// --- shadow-chain collapse (Mach's vm_object_collapse / bypass) -------------

namespace {
// Upper bound on the number of coverage-metadata entries (resident pages +
// paged_offsets + parked_offsets) a chain-bypass check will examine.
// Bypasses declined by the cap are counted in both collapse_denied and
// collapse_denied_scan_cap.
constexpr size_t kCollapseScanCap = size_t{1} << 20;

// Pages in transit (pagein, pageout, pending unlock, death-resolution) or
// pinned by an installing fault make residency unstable: another thread
// holds raw pointers into this object across a lock drop. Collapse must not
// touch such an object.
bool HasUnstablePage(const VmObject* object) {
  for (const VmPage* page : object->pages) {
    if (!page->settled() || page->unlock_pending || page->pin_count > 0) {
      return true;
    }
  }
  return false;
}
}  // namespace

bool VmSystem::ObjectCoversOffset(const VmObject* object, VmOffset offset) const {
  // Raw probe — coverage checks should not skew the lookup/hit statistics.
  if (object->pages.Contains(offset)) {
    return true;
  }
  // Parked (§6.2.2) and pager-held copies count only while the pager
  // association is intact — the fault path consults both under the same
  // condition, and coverage must mirror exactly what a fault could read.
  return object->pager.valid() && (object->parked_offsets.count(offset) != 0 ||
                                   object->paged_offsets.count(offset) != 0);
}

VmSystem::Coverage VmSystem::FullyCoversSelf(const VmObject* object) const {
  const VmSize ps = page_size();
  const uint64_t total = (object->size() + ps - 1) / ps;
  if (!object->pager.valid()) {
    // Residency is the only possible coverage; offsets are distinct and
    // in-range, so the count is exact.
    return uint64_t{object->pages.size()} >= total ? Coverage::kFull : Coverage::kPartial;
  }
  // Coverage is derived from metadata (resident pages + pager-held +
  // parked offsets), never an O(size) offset scan; the cap bounds the
  // metadata walk for degenerate objects.
  const size_t metadata = object->pages.size() + object->paged_offsets.size() +
                          object->parked_offsets.size();
  if (metadata > kCollapseScanCap) {
    return Coverage::kCapExceeded;
  }
  // A pager may have provided unsolicited pages beyond size(); count
  // distinct in-range offsets only.
  std::unordered_set<VmOffset> covered;
  covered.reserve(metadata);
  for (const VmPage* page : object->pages) {
    if (page->offset < object->size()) {
      covered.insert(page->offset);
    }
  }
  for (VmOffset off : object->paged_offsets) {
    if (off < object->size()) {
      covered.insert(off);
    }
  }
  for (VmOffset off : object->parked_offsets) {
    if (off < object->size()) {
      covered.insert(off);
    }
  }
  return covered.size() >= total ? Coverage::kFull : Coverage::kPartial;
}

void VmSystem::MaybeCollapse(const std::shared_ptr<VmObject>& object) {
  bool opportunity = false;
  {
    lock_probe::Note();
    ObjectLock olk(object->mu);
    opportunity =
        object->alive && object->shadow != nullptr &&
        (object->shadow->map_refs.load(std::memory_order_acquire) == 1 ||
         (!object->pager.valid() &&
          uint64_t{object->pages.size()} * page_size() >= object->size()));
  }
  if (!opportunity) {
    return;
  }
  lock_probe::Note();
  ChainLock chain(chain_mu_);
  TryCollapse(chain, object);
}

void VmSystem::TryCollapse(ChainLock& chain, const std::shared_ptr<VmObject>& object) {
  // Splice loop: absorb immediate shadows whose only reference is our
  // shadow pointer. Page migration is page-table surgery on frames that
  // stay put — no copies and no blocking — under the child and parent
  // object locks (child first, the documented chain order).
  for (;;) {
    ObjectLock olk(object->mu);
    if (!object->alive || object->shadow == nullptr) {
      break;
    }
    std::shared_ptr<VmObject> sref = object->shadow;
    VmObject* s = sref.get();
    if (s->map_refs.load(std::memory_order_acquire) != 1 || s->shadow_children.size() != 1 ||
        !s->alive) {
      break;  // Someone else still reads through s.
    }
    // Mach never collapses pager-created objects: an external manager's
    // holdings can't be enumerated, and its dirty pages must flow back to
    // it at termination (which a bypass release still does), not be stolen
    // into the child.
    if (!s->internal && s->pager.valid()) {
      counters_.collapse_denied_external.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    ObjectLock slk(s->mu);
    if (HasUnstablePage(object.get()) || HasUnstablePage(s)) {
      counters_.collapse_denied.fetch_add(1, std::memory_order_relaxed);
      return;  // In-transit pages; retry on a later opportunity.
    }
    const VmOffset window_lo = object->shadow_offset;
    const VmOffset window_hi = window_lo + object->size();
    // Data s holds only on backing store (default pager / parking) cannot
    // be migrated without a blocking read-back; deny unless the child
    // covers those offsets (or a newer resident copy exists to migrate).
    bool backing_only_data = false;
    auto covered_or_resident = [&](VmOffset so) {
      return so < window_lo || so >= window_hi || s->pages.Contains(so) ||
             ObjectCoversOffset(object.get(), so - window_lo);
    };
    if (s->pager.valid()) {
      for (VmOffset so : s->paged_offsets) {
        if (!covered_or_resident(so)) {
          backing_only_data = true;
          break;
        }
      }
      for (VmOffset so : s->parked_offsets) {
        if (!covered_or_resident(so)) {
          backing_only_data = true;
          break;
        }
      }
    }
    if (backing_only_data) {
      counters_.collapse_denied.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (config_.fault_injector != nullptr &&
        config_.fault_injector->ShouldFail(kFaultCollapse)) {
      counters_.collapse_denied.fetch_add(1, std::memory_order_relaxed);
      return;  // Injected suppression (chaos coverage of long chains).
    }
    counters_.pages_migrated.fetch_add(MergeShadowPagesLocked(slk, object.get(), s),
                                       std::memory_order_relaxed);
    // Splice s out: the child inherits s's shadow reference (net reference
    // count on the grandparent unchanged), and s's last reference — our
    // shadow pointer — is gone.
    std::shared_ptr<VmObject> doomed = std::move(object->shadow);
    doomed->RemoveShadowChild(object.get());
    object->shadow = std::move(doomed->shadow);
    object->shadow_offset += doomed->shadow_offset;
    doomed->shadow_offset = 0;
    if (object->shadow != nullptr) {
      object->shadow->RemoveShadowChild(doomed.get());
      object->shadow->AddShadowChild(object.get());
    }
    doomed->map_refs.store(0, std::memory_order_release);
    counters_.shadow_collapses.fetch_add(1, std::memory_order_relaxed);
    slk.unlock();
    olk.unlock();
    TerminateObject(chain, doomed);
  }
  // Bypass: if the child alone covers every page it can fault on, nothing
  // below it is reachable any more — release the whole remaining chain.
  std::shared_ptr<VmObject> released_chain;
  {
    ObjectLock olk(object->mu);
    if (object->alive && object->shadow != nullptr && !HasUnstablePage(object.get())) {
      switch (FullyCoversSelf(object.get())) {
        case Coverage::kPartial:
          break;
        case Coverage::kCapExceeded:
          counters_.collapse_denied.fetch_add(1, std::memory_order_relaxed);
          counters_.collapse_denied_scan_cap.fetch_add(1, std::memory_order_relaxed);
          break;
        case Coverage::kFull:
          if (config_.fault_injector != nullptr &&
              config_.fault_injector->ShouldFail(kFaultCollapse)) {
            counters_.collapse_denied.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          released_chain = std::move(object->shadow);
          object->shadow_offset = 0;
          released_chain->RemoveShadowChild(object.get());
          counters_.shadow_bypasses.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
  }
  if (released_chain != nullptr) {
    ObjectRelease(chain, std::move(released_chain));
  }
}

uint64_t VmSystem::MergeShadowPagesLocked(ObjectLock& slk, VmObject* child, VmObject* backing) {
  const VmOffset window_lo = child->shadow_offset;
  const VmOffset window_hi = window_lo + child->size();
  // Merge the smaller page set into the larger. Adopting backing's table
  // keeps its keys, so it needs a window at offset 0; any other window has
  // every surviving page re-keyed, which costs the same as moving it.
  const bool adopt = window_lo == 0 && child->pages.size() < backing->pages.size();
  if (adopt) {
    // The child's copies supersede the shadow's: find those shadow pages
    // by walking the child's (smaller) coverage, not the shadow's pages.
    auto drop_superseded = [&](VmOffset co) {
      if (VmPage* page = backing->pages.Find(co); page != nullptr) {
        PageFreeLocked(slk, page);
      }
    };
    for (const VmPage* page : child->pages) {
      drop_superseded(page->offset);
    }
    if (child->pager.valid()) {
      for (VmOffset co : child->paged_offsets) {
        drop_superseded(co);
      }
      for (VmOffset co : child->parked_offsets) {
        drop_superseded(co);
      }
    }
  }
  // Pages outside the window die with the shadow (as do superseded ones not
  // already dropped above). Any surviving hardware mappings are read-only —
  // from_backing resolutions never map a shadow's page writable — but drop
  // write access defensively before the identity change.
  backing->pages.ForEach([&](VmPage* page) {
    if (page->offset < window_lo || page->offset >= window_hi ||
        (!adopt && ObjectCoversOffset(child, page->offset - window_lo))) {
      PageFreeLocked(slk, page);
      return;
    }
    Pmap::PageProtect(phys_, page->frame, kVmProtRead | kVmProtExecute);
  });
  // Every page left in backing's table now survives into the child. The
  // pageout scan reads a queued page's identity under queue_mu_ alone, so
  // flip it under queue_mu_ too — once for the whole set. The survivor's
  // resident copy is now the only one (the shadow's backing store dies with
  // it), so each page must not be dropped clean.
  const uint64_t moved = backing->pages.size();
  {
    lock_probe::Note();
    std::lock_guard<std::mutex> g(queue_mu_);
    for (VmPage* page : backing->pages) {
      page->object = child;
      page->offset -= window_lo;
      page->dirty = true;
    }
  }
  // Whichever table ends up in `backing` is the smaller (or re-keyed) set:
  // file its pages into the child's table under their current offsets.
  if (adopt) {
    child->pages.swap(backing->pages);
  }
  for (VmPage* page : backing->pages) {
    child->pages.Insert(page);
  }
  backing->pages.clear();
  return moved;
}

size_t VmSystem::ShadowChainLength(TaskVm& task, VmOffset addr) {
  const VmOffset page_addr = TruncPage(addr, page_size());
  std::shared_ptr<VmObject> object;
  {
    std::shared_lock<std::shared_mutex> mlk(task.map->lock());
    MapEntry* top = task.map->Lookup(page_addr);
    if (top == nullptr) {
      return 0;
    }
    if (top->is_share) {
      std::shared_lock<std::shared_mutex> slk(top->share_map->lock());
      const MapEntry* holder = top->share_map->Lookup(top->offset + (page_addr - top->start));
      if (holder == nullptr) {
        return 0;
      }
      object = holder->object;
    } else {
      object = top->object;
    }
  }
  ChainLock chain(chain_mu_);
  size_t depth = 0;
  for (const VmObject* o = object.get(); o != nullptr; o = o->shadow.get()) {
    ++depth;
  }
  return depth;
}

void VmSystem::MaybeDrainDeferred() {
  // Nothing-pending is the common case on the fault path; answer it from
  // the flag without touching deferred_mu_.
  if (!deferred_pending_.load(std::memory_order_acquire)) {
    return;
  }
  std::vector<std::shared_ptr<VmObject>> pending;
  {
    std::lock_guard<std::mutex> g(deferred_mu_);
    deferred_pending_.store(false, std::memory_order_relaxed);
    if (deferred_releases_.empty()) {
      return;
    }
    pending.swap(deferred_releases_);
  }
  // ObjectRelease spots collapse opportunities, so map-copy consumption
  // (out-of-line message teardown) compacts chains just like map removal.
  ChainLock chain(chain_mu_);
  for (auto& object : pending) {
    ObjectRelease(chain, std::move(object));
  }
}

size_t VmSystem::object_count() const {
  ChainLock chain(chain_mu_);
  return objects_by_pager_.size();
}

std::shared_ptr<VmObject> VmSystem::ObjectForPager(const SendRight& pager) const {
  ChainLock chain(chain_mu_);
  auto it = objects_by_pager_.find(pager.id());
  return it == objects_by_pager_.end() ? nullptr : it->second;
}

void VmSystem::TrimObjectCache() {
  ChainLock chain(chain_mu_);
  std::vector<std::shared_ptr<VmObject>> victims;
  for (auto& [id, object] : objects_by_pager_) {
    bool idle;
    {
      ObjectLock olk(object->mu);
      idle = object->pages.empty();
    }
    if (object->cached && idle) {
      victims.push_back(object);
    }
  }
  for (auto& object : victims) {
    TerminateObject(chain, object);
  }
}

// --- Table 3-3 operations ---------------------------------------------------

Result<VmOffset> VmSystem::Allocate(TaskVm& task, VmOffset addr, VmSize size, bool anywhere) {
  if (size == 0) {
    return KernReturn::kInvalidArgument;
  }
  MaybeDrainDeferred();
  MapMutation mlk(*task.map);
  size = RoundPage(size, page_size());
  if (anywhere) {
    Result<VmOffset> found = task.map->FindSpace(size, addr);
    if (!found.ok()) {
      return found.status();
    }
    addr = found.value();
  } else {
    addr = TruncPage(addr, page_size());
    if (!task.map->RangeFree(addr, size)) {
      return KernReturn::kNoSpace;
    }
  }
  MapEntry entry;
  entry.start = addr;
  entry.end = addr + size;
  // Zero-filled on demand: the backing object is created at first fault.
  KernReturn kr = task.map->Insert(std::move(entry));
  if (!IsOk(kr)) {
    return kr;
  }
  return addr;
}

Result<VmOffset> VmSystem::AllocateWithPager(TaskVm& task, VmOffset addr, VmSize size,
                                             bool anywhere, SendRight memory_object,
                                             VmOffset offset) {
  if (size == 0 || !memory_object.valid()) {
    return KernReturn::kInvalidArgument;
  }
  if (offset % page_size() != 0) {
    // The paper permits unaligned offsets with alignment-consistency
    // caveats; this implementation requires page alignment (see DESIGN.md).
    return KernReturn::kInvalidArgument;
  }
  MaybeDrainDeferred();
  size = RoundPage(size, page_size());
  bool need_init = false;
  std::shared_ptr<VmObject> object;
  {
    ChainLock chain(chain_mu_);
    auto it = objects_by_pager_.find(memory_object.id());
    if (it != objects_by_pager_.end()) {
      object = it->second;
      object->cached = false;  // Revived from the object cache.
      ObjectLock olk(object->mu);
      object->set_size(std::max(object->size(), offset + size));
    } else {
      object = std::make_shared<VmObject>(offset + size);
      object->internal = false;
      object->pager = memory_object;
      PortPair request = PortAllocate("pager-request");
      PortPair name = PortAllocate("pager-name");
      object->request_receive = std::move(request.receive);
      object->request_send = request.send;
      object->name_receive = std::move(name.receive);
      object->name_send = name.send;
      object->pager_initialized = true;
      objects_by_pager_.emplace(memory_object.id(), object);
      objects_by_request_.emplace(object->request_send.id(), object);
      pager_requests_->Add(object->request_receive);
      // Watch the manager's memory-object port so its death resolves
      // waiting faulters immediately (§6.2.1). Fires at once if the port
      // is already dead.
      memory_object.port()->RequestDeathNotification(death_notify_send_);
      need_init = true;
    }
  }
  VmOffset result_addr = 0;
  {
    MapMutation mlk(*task.map);
    if (anywhere) {
      Result<VmOffset> found = task.map->FindSpace(size, addr);
      if (!found.ok()) {
        return found.status();
      }
      addr = found.value();
    } else {
      addr = TruncPage(addr, page_size());
      if (!task.map->RangeFree(addr, size)) {
        return KernReturn::kNoSpace;
      }
    }
    MapEntry entry;
    entry.start = addr;
    entry.end = addr + size;
    entry.object = object;
    entry.offset = offset;
    KernReturn kr = task.map->Insert(std::move(entry));
    if (!IsOk(kr)) {
      return kr;
    }
    ObjectRef(object);
    result_addr = addr;
  }
  if (need_init) {
    // pager_init is performed before the vm_allocate_with_pager call
    // completes (§4.2). Asynchronous: no reply is awaited.
    PagerInitArgs init;
    SendRight pager;
    {
      ObjectLock olk(object->mu);
      init.pager_request_port = object->request_send;
      init.pager_name_port = object->name_send;
      pager = object->pager;
    }
    init.page_size = page_size();
    if (pager.valid()) {
      MsgSend(pager, EncodePagerInit(init), std::chrono::milliseconds(1000));
    }
  }
  return result_addr;
}

KernReturn VmSystem::Deallocate(TaskVm& task, VmOffset addr, VmSize size) {
  if (size == 0) {
    return KernReturn::kInvalidArgument;
  }
  MaybeDrainDeferred();
  MapMutation mlk(*task.map);
  VmOffset start = TruncPage(addr, page_size());
  VmOffset end = RoundPage(addr + size, page_size());
  std::vector<MapEntry> removed = task.map->RemoveRange(start, end);
  if (removed.empty()) {
    return KernReturn::kSuccess;  // Deallocating nothing is permitted.
  }
  ChainLock chain(chain_mu_);
  for (MapEntry& entry : removed) {
    task.pmap->Remove(entry.start, entry.end);
    ReleaseEntry(chain, std::move(entry));
  }
  return KernReturn::kSuccess;
}

KernReturn VmSystem::Protect(TaskVm& task, VmOffset addr, VmSize size, bool set_max,
                             VmProt prot) {
  if (size == 0) {
    return KernReturn::kInvalidArgument;
  }
  MapMutation mlk(*task.map);
  VmOffset start = TruncPage(addr, page_size());
  VmOffset end = RoundPage(addr + size, page_size());
  if (!task.map->RangeFullyCovered(start, end - start)) {
    return KernReturn::kInvalidAddress;
  }
  for (MapEntry* entry : task.map->ClipRange(start, end)) {
    if (set_max) {
      entry->max_protection &= prot;
      entry->protection &= entry->max_protection;
    } else {
      if ((prot & ~entry->max_protection) != 0) {
        return KernReturn::kProtectionFailure;
      }
      entry->protection = prot;
    }
    // Hardware mappings may only be lowered here; faults re-validate
    // upward later (§5.5 hardware validation).
    task.pmap->Protect(entry->start, entry->end, entry->protection);
  }
  return KernReturn::kSuccess;
}

KernReturn VmSystem::Inherit(TaskVm& task, VmOffset addr, VmSize size, VmInherit inheritance) {
  if (size == 0) {
    return KernReturn::kInvalidArgument;
  }
  MapMutation mlk(*task.map);
  VmOffset start = TruncPage(addr, page_size());
  VmOffset end = RoundPage(addr + size, page_size());
  if (!task.map->RangeFullyCovered(start, end - start)) {
    return KernReturn::kInvalidAddress;
  }
  for (MapEntry* entry : task.map->ClipRange(start, end)) {
    entry->inheritance = inheritance;
  }
  return KernReturn::kSuccess;
}

std::vector<RegionInfo> VmSystem::Regions(TaskVm& task) {
  std::shared_lock<std::shared_mutex> mlk(task.map->lock());
  std::vector<RegionInfo> out;
  for (const MapEntry* entry : task.map->AllEntries()) {
    RegionInfo info;
    info.start = entry->start;
    info.end = entry->end;
    info.protection = entry->protection;
    info.max_protection = entry->max_protection;
    info.inheritance = entry->inheritance;
    info.is_shared = entry->is_share;
    if (!entry->is_share && entry->object != nullptr) {
      // Only the name port is exposed: the memory object and request ports
      // would grant data and management access (footnote 3).
      ObjectLock olk(entry->object->mu);
      info.object_name = entry->object->name_send;
    }
    out.push_back(std::move(info));
  }
  return out;
}

VmStatistics VmSystem::Statistics() const {
  VmStatistics st;
  st.page_size = page_size();
  st.free_count = phys_->free_frames();
  {
    std::lock_guard<std::mutex> g(queue_mu_);
    st.active_count = active_count_;
    st.inactive_count = inactive_count_;
  }
  const auto load = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  st.faults = load(counters_.faults);
  st.zero_fill_count = load(counters_.zero_fill_count);
  st.cow_faults = load(counters_.cow_faults);
  st.pageins = load(counters_.pageins);
  st.pageouts = load(counters_.pageouts);
  st.reactivations = load(counters_.reactivations);
  st.lookups = load(counters_.lookups);
  st.hits = load(counters_.hits);
  st.unlock_requests = load(counters_.unlock_requests);
  st.parked_pageouts = load(counters_.parked_pageouts);
  st.manager_deaths = load(counters_.manager_deaths);
  st.death_resolved_pages = load(counters_.death_resolved_pages);
  st.shadow_collapses = load(counters_.shadow_collapses);
  st.shadow_bypasses = load(counters_.shadow_bypasses);
  st.pages_migrated = load(counters_.pages_migrated);
  st.collapse_denied = load(counters_.collapse_denied);
  st.chain_depth_max = load(counters_.chain_depth_max);
  st.fast_faults = load(counters_.fast_faults);
  st.spurious_page_wakeups = load(counters_.spurious_page_wakeups);
  st.collapse_denied_scan_cap = load(counters_.collapse_denied_scan_cap);
  st.collapse_denied_external = load(counters_.collapse_denied_external);
  st.activations_skipped = load(counters_.activations_skipped);
  st.fault_lock_ops = load(counters_.fault_lock_ops);
  st.map_lookups_optimistic = load(counters_.map_lookups_optimistic);
  st.map_lookup_retries = load(counters_.map_lookup_retries);
  st.queue_batch_flushes = load(counters_.queue_batch_flushes);
  st.pageout_runs = load(counters_.pageout_runs);
  st.pageout_run_pages = load(counters_.pageout_run_pages);
  st.fault_ahead_requests = load(counters_.fault_ahead_requests);
  st.fault_ahead_pages = load(counters_.fault_ahead_pages);
  st.fault_ahead_unused = load(counters_.fault_ahead_unused);
  return st;
}

// --- fork (inheritance, §3.3) ----------------------------------------------

void VmSystem::ForkMap(TaskVm& parent, TaskVm& child) {
  MaybeDrainDeferred();
  // Parent before child (the documented map order). The child map is fresh
  // and unpublished, but holding its lock keeps the discipline uniform.
  MapMutation plk(*parent.map);
  MapMutation clk(*child.map);
  // Snapshot entry ranges first: share conversion mutates entries in place
  // but not the map's structure.
  std::vector<VmOffset> starts;
  for (const MapEntry* e : parent.map->AllEntries()) {
    starts.push_back(e->start);
  }
  for (VmOffset start : starts) {
    MapEntry* entry = parent.map->Lookup(start);
    if (entry == nullptr) {
      continue;
    }
    switch (entry->inheritance) {
      case VmInherit::kNone:
        break;
      case VmInherit::kShare: {
        if (!entry->is_share) {
          // Convert the direct entry into a two-level (sharing map) entry
          // (§5.1). The object moves into the sharing map. The new sharing
          // map is unpublished until the entry assignment below, all under
          // the parent's exclusive lock.
          if (entry->object == nullptr) {
            entry->object = CreateInternalObject(entry->size());
            ObjectRef(entry->object);
          }
          auto share = std::make_shared<AddressMap>(0, entry->size(), page_size());
          MapEntry sub;
          sub.start = 0;
          sub.end = entry->size();
          sub.object = std::move(entry->object);
          sub.offset = entry->offset;
          sub.protection = kVmProtAll;  // Per-task attributes stay on top.
          sub.max_protection = kVmProtAll;
          sub.needs_copy = entry->needs_copy;
          share->Insert(std::move(sub));
          entry->object = nullptr;
          entry->is_share = true;
          entry->share_map = std::move(share);
          entry->offset = 0;
          entry->needs_copy = false;
        }
        MapEntry child_entry = *entry;  // Shares the sharing map.
        child.map->Insert(std::move(child_entry));
        break;
      }
      case VmInherit::kCopy: {
        if (entry->is_share) {
          // Copy each object referenced through the sharing map. Exclusive
          // on the sharing map: concurrent faults from other tasks sharing
          // it must observe needs_copy and the write-protect atomically.
          std::unique_lock<std::shared_mutex> slk(entry->share_map->lock());
          VmOffset window_lo = entry->offset;
          VmOffset window_hi = entry->offset + entry->size();
          for (MapEntry* sub : entry->share_map->ClipRange(window_lo, window_hi)) {
            MapEntry child_entry;
            child_entry.start = entry->start + (sub->start - entry->offset);
            child_entry.end = child_entry.start + sub->size();
            child_entry.protection = entry->protection;
            child_entry.max_protection = entry->max_protection;
            child_entry.inheritance = entry->inheritance;
            if (sub->object != nullptr) {
              child_entry.object = sub->object;
              child_entry.offset = sub->offset;
              child_entry.needs_copy = true;
              ObjectRef(sub->object);
              sub->needs_copy = true;
              WriteProtectResident(sub->object.get(), sub->offset, sub->size());
            }
            child.map->Insert(std::move(child_entry));
          }
        } else if (entry->object == nullptr) {
          // Untouched zero-fill region: the child simply gets its own.
          MapEntry child_entry = *entry;
          child.map->Insert(std::move(child_entry));
        } else {
          // Symmetric copy-on-write (§5.5): both sides shadow on write.
          entry->needs_copy = true;
          WriteProtectResident(entry->object.get(),
                               entry->offset, entry->size());
          MapEntry child_entry = *entry;
          ObjectRef(child_entry.object);
          child.map->Insert(std::move(child_entry));
        }
        break;
      }
    }
  }
}

// --- out-of-line transfer (vm_map_copyin / copyout) --------------------------

Result<std::shared_ptr<VmMapCopy>> VmSystem::CopyIn(TaskVm& task, VmOffset addr, VmSize size) {
  if (size == 0 || addr % page_size() != 0 || size % page_size() != 0) {
    return KernReturn::kInvalidArgument;
  }
  MaybeDrainDeferred();
  MapMutation mlk(*task.map);
  if (!task.map->RangeFullyCovered(addr, size)) {
    return KernReturn::kInvalidAddress;
  }
  auto copy = std::make_shared<VmMapCopy>(this, size);
  const VmOffset end = addr + size;
  for (MapEntry* top : task.map->ClipRange(addr, end)) {
    if (top->is_share) {
      // Exclusive on the sharing map for the needs_copy + write-protect
      // mutation, as in ForkMap.
      std::unique_lock<std::shared_mutex> slk(top->share_map->lock());
      VmOffset lo = top->offset;
      VmOffset hi = top->offset + top->size();
      for (MapEntry* sub : top->share_map->ClipRange(lo, hi)) {
        VmMapCopy::Segment seg;
        seg.size = sub->size();
        if (sub->object != nullptr) {
          seg.object = sub->object;
          seg.offset = sub->offset;
          ObjectRef(sub->object);
          sub->needs_copy = true;
          WriteProtectResident(sub->object.get(), sub->offset, sub->size());
        }
        copy->segments().push_back(std::move(seg));
      }
    } else {
      VmMapCopy::Segment seg;
      seg.size = top->size();
      if (top->object != nullptr) {
        seg.object = top->object;
        seg.offset = top->offset;
        ObjectRef(top->object);
        top->needs_copy = true;
        WriteProtectResident(top->object.get(), top->offset, top->size());
      }
      copy->segments().push_back(std::move(seg));
    }
  }
  return copy;
}

Result<VmOffset> VmSystem::CopyOut(TaskVm& task, const std::shared_ptr<VmMapCopy>& copy) {
  if (copy == nullptr || copy->system() != this) {
    return KernReturn::kInvalidArgument;
  }
  MaybeDrainDeferred();
  MapMutation mlk(*task.map);
  if (copy->segments().empty() && copy->size() != 0) {
    return KernReturn::kInvalidArgument;  // Already consumed.
  }
  Result<VmOffset> found = task.map->FindSpace(copy->size());
  if (!found.ok()) {
    return found.status();
  }
  VmOffset addr = found.value();
  VmOffset cursor = addr;
  for (VmMapCopy::Segment& seg : copy->segments()) {
    MapEntry entry;
    entry.start = cursor;
    entry.end = cursor + seg.size;
    if (seg.object != nullptr) {
      entry.object = std::move(seg.object);  // Transfers the reference.
      entry.offset = seg.offset;
      entry.needs_copy = true;
    }
    cursor += seg.size;
    task.map->Insert(std::move(entry));
  }
  copy->segments().clear();  // Consumed.
  return addr;
}

VmMapCopy::~VmMapCopy() {
  if (segments_.empty()) {
    return;
  }
  // Defer the reference drops: this destructor can run inside port teardown
  // paths that must not take VM locks.
  std::lock_guard<std::mutex> g(system_->deferred_mu_);
  for (Segment& seg : segments_) {
    if (seg.object != nullptr) {
      system_->deferred_releases_.push_back(std::move(seg.object));
    }
  }
  segments_.clear();
  if (!system_->deferred_releases_.empty()) {
    system_->deferred_pending_.store(true, std::memory_order_release);
  }
}

}  // namespace mach
