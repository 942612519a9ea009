// VmSystem: the machine-independent virtual memory system of one kernel
// (§5). It owns:
//
//   * the resident page pool: each object's resident-page table (§5.3's
//     object/offset lookup, per object rather than one global hash: DESIGN
//     decision 4) and the active/inactive pageout queues (§5.4), over
//     hw::PhysicalMemory;
//   * the memory object registry: pager port -> VmObject, including the
//     cache of persisting objects (pager_cache, §3.4.1);
//   * the fault handler (§5.5): validity/protection, page lookup,
//     copy-on-write with shadow objects, hardware validation via Pmap;
//   * the pageout daemon and the inline reclaim path, including the §6.2.2
//     protection against errant data managers (parking dirty pages with the
//     trusted default pager) and the §6.2.3 reserved pool;
//   * the kernel ends of the external memory management interface:
//     requests are *sent* to memory object ports, and manager calls arriving
//     on pager request ports are dispatched to the Handle* methods by the
//     kernel's pager service thread.
//
// Concurrency: VM state is guarded by a lock hierarchy so concurrent faults
// on a multiprocessor contend only where they genuinely share state. From
// outermost to innermost:
//
//   1. AddressMap locks (reader-writer): shared on the fault path, exclusive
//      for structural mutation. A top-level map lock may be held while
//      taking a sharing map's lock; ForkMap orders parent before child.
//      Above the lock sits an optimistic tier: each map publishes an
//      immutable snapshot guarded by a seqlock-style generation counter, so
//      the resident-fault fast path resolves its entry with no map lock at
//      all and validates the generation inside the pmap lock at install
//      time (see address_map.h for the protocol).
//   2. chain_mu_: shadow-chain structure (shadow pointers, shadow_children),
//      object lifecycle (terminate / cache / registries) and map_refs
//      decrements. Witness type: ChainLock.
//   3. VmObject::mu (per object): the object's resident-page table, page
//      state, pager ports and paged/parked metadata. Every page lookup
//      holds the owner's lock. Chain order is child before its shadow
//      parent (the fault walk direction), hand over hand.
//   4. queue_mu_: the active/inactive queues, queue counts, each page's
//      queue field, and page identity while a collapse relabels pages.
//      Nests inside object locks; the pageout scan, which needs the reverse
//      direction, only ever try_locks an object from under it. The queue
//      tag itself is an atomic written only under this lock, so
//      PageActivate / PageDeactivate skip the lock entirely when the tag
//      already matches (see vm_page.h).
//   5. Pmap::mu_ and PhysicalMemory frame/free-list locks (hardware tier).
//   6. Port locks (independent; ports never call back into the kernel).
//
// Blocking operations never hold a lock they could convoy on: waits for busy
// pages use the owning object's condition variable (targeted wakeups, §5
// busy/wanted protocol), message sends to managers release the object lock
// (non-blocking kPoll sends excepted), and a fault installs its frame into
// the pmap under the map lock only, holding a pin on the page rather than
// the object lock.

#ifndef SRC_VM_VM_SYSTEM_H_
#define SRC_VM_VM_SYSTEM_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/kern_return.h"
#include "src/base/sync.h"
#include "src/base/vm_types.h"
#include "src/hw/physical_memory.h"
#include "src/hw/pmap.h"
#include "src/ipc/port.h"
#include "src/pager/parking.h"
#include "src/vm/address_map.h"
#include "src/vm/vm_object.h"
#include "src/vm/vm_page.h"

namespace mach {

class FaultInjector;
class VmMapCopy;

// Per-task VM context: the task's address map plus its physical map.
struct TaskVm {
  std::shared_ptr<AddressMap> map;
  std::unique_ptr<Pmap> pmap;
};

// vm_regions output element (Table 3-3).
struct RegionInfo {
  VmOffset start = 0;
  VmOffset end = 0;
  VmProt protection = kVmProtNone;
  VmProt max_protection = kVmProtNone;
  VmInherit inheritance = VmInherit::kCopy;
  bool is_shared = false;      // Backed through a sharing map.
  SendRight object_name;       // The pager name port (may be null).
};

class VmSystem {
 public:
  struct Config {
    // Pageout targets, in frames. Zero = derive from frame count.
    uint32_t free_target = 0;
    uint32_t reserved = 0;  // §6.2.3 reserved pool floor.

    // How long a fault waits for a data manager before applying
    // `on_pager_timeout` (§6.2.1 failure options).
    Timeout pager_timeout = std::chrono::milliseconds(5000);
    enum class OnPagerTimeout { kError, kZeroFill };
    OnPagerTimeout on_pager_timeout = OnPagerTimeout::kError;

    // §6.2.2 protection: divert dirty pages of unresponsive managers to the
    // default pager. When false, pageout simply drops such pages back on
    // the active queue (the unprotected behaviour, for the ablation bench).
    bool errant_manager_protection = true;

    // Background daemon scan interval.
    std::chrono::milliseconds pageout_interval{25};

    // Upper bound on pages per clustered write-back run: a dirty victim is
    // written back together with its object's contiguous dirty neighbours
    // in one multi-page pager_data_write (runs split at non-contiguous,
    // clean, busy or pinned pages). 1 = page-at-a-time write-back.
    uint32_t pageout_cluster_max = 16;

    // Upper bound on pages per adaptive fault-ahead run: when a cache miss
    // detects a sequential streak (per-map-entry detector, see
    // FaultAheadState), the fault allocates busy+absent placeholders for a
    // contiguous run of absent neighbours and sends one multi-page
    // pager_data_request covering the run. The window scales
    // 1→2→4→…→fault_ahead_max across consecutive sequential misses and
    // collapses to 1 on random access. 1 = one request per page. Clamped to
    // the wire cap kPagerMaxRunPages at construction.
    uint32_t fault_ahead_max = 16;

    // Optional fault injection: the kFaultCollapse point suppresses
    // collapse opportunities so chaos soaks cover both collapsed and
    // uncollapsed chains (probability 1 = chains grow without bound). Not
    // owned.
    FaultInjector* fault_injector = nullptr;
  };

  // FaultInjector point name: when it fires, one collapse opportunity is
  // declined (counted in VmStatistics::collapse_denied).
  static constexpr const char* kFaultCollapse = "vm.collapse";

  explicit VmSystem(PhysicalMemory* phys) : VmSystem(phys, Config{}) {}
  VmSystem(PhysicalMemory* phys, Config config);
  ~VmSystem();

  VmSystem(const VmSystem&) = delete;
  VmSystem& operator=(const VmSystem&) = delete;

  VmSize page_size() const { return phys_->page_size(); }
  PhysicalMemory* phys() const { return phys_; }

  // --- wiring ----------------------------------------------------------

  // The default pager: `service_port` receives pager_create calls;
  // `parking` is the trusted §6.2.2 side-store. Must be set before internal
  // objects can be paged out.
  void SetDefaultPager(SendRight service_port, TrustedParkingStore* parking);

  // The port set the kernel's pager service thread receives on; every pager
  // request port is enabled here at object creation.
  const std::shared_ptr<PortSet>& pager_request_set() const { return pager_requests_; }

  // Creates a fresh task VM context (map + pmap).
  TaskVm CreateTaskVm();

  void StartPageoutDaemon();
  void StopPageoutDaemon();

  // --- Table 3-3: virtual memory operations -----------------------------

  // vm_allocate: zero-filled-on-demand memory, at `addr` or anywhere.
  Result<VmOffset> Allocate(TaskVm& task, VmOffset addr, VmSize size, bool anywhere);

  // vm_allocate_with_pager (Table 3-4): maps `memory_object` at `offset`.
  Result<VmOffset> AllocateWithPager(TaskVm& task, VmOffset addr, VmSize size, bool anywhere,
                                     SendRight memory_object, VmOffset offset);

  // vm_deallocate.
  KernReturn Deallocate(TaskVm& task, VmOffset addr, VmSize size);

  // vm_protect.
  KernReturn Protect(TaskVm& task, VmOffset addr, VmSize size, bool set_max, VmProt prot);

  // vm_inherit.
  KernReturn Inherit(TaskVm& task, VmOffset addr, VmSize size, VmInherit inheritance);

  // vm_read / vm_write: kernel-mediated access to a task's memory (faults
  // pages in as needed, honours entry protections like user access).
  KernReturn ReadMemory(TaskVm& task, VmOffset addr, void* buf, VmSize len);
  KernReturn WriteMemory(TaskVm& task, VmOffset addr, const void* buf, VmSize len);

  // vm_copy: copies [src, src+size) over [dst, dst+size) (copy-on-write).
  KernReturn Copy(TaskVm& task, VmOffset src, VmSize size, VmOffset dst);

  // vm_regions.
  std::vector<RegionInfo> Regions(TaskVm& task);

  // vm_statistics.
  VmStatistics Statistics() const;

  // --- user access & faults ---------------------------------------------

  // Simulated user load/store: pmap fast path, kernel fault on miss.
  // May span pages and entries.
  KernReturn UserAccess(TaskVm& task, VmOffset addr, void* buf, VmSize len, bool is_write);

  // The page fault handler (§5.5). `access` is the attempted access.
  KernReturn Fault(TaskVm& task, VmOffset addr, VmProt access);

  // --- inheritance / fork -------------------------------------------------

  // Populates `child` from `parent` per per-entry inheritance attributes
  // (share / copy / none, §3.3).
  void ForkMap(TaskVm& parent, TaskVm& child);

  // --- out-of-line message transfer (the duality §1) ----------------------

  // vm_map_copyin: captures [addr, addr+size) (page aligned) as a
  // copy-on-write map copy for transfer in a message.
  Result<std::shared_ptr<VmMapCopy>> CopyIn(TaskVm& task, VmOffset addr, VmSize size);

  // vm_map_copyout: maps a copy into `task` anywhere; returns the address.
  Result<VmOffset> CopyOut(TaskVm& task, const std::shared_ptr<VmMapCopy>& copy);

  // Flattens a map copy to bytes (used by cross-host transports).
  Result<std::vector<std::byte>> CopyAsBytes(const std::shared_ptr<VmMapCopy>& copy);

  // Rebuilds a map copy in *this* kernel from flat bytes (the receiving end
  // of a cross-host out-of-line transfer): a fresh internal object holding
  // the data. `size` is rounded up to whole pages.
  Result<std::shared_ptr<VmMapCopy>> CopyFromBytes(const void* data, VmSize size);

  // --- manager -> kernel calls (Table 3-6) --------------------------------
  // Dispatched by the kernel's pager service thread; `request_port_id`
  // identifies the object. Also callable directly in tests.

  void HandlePagerMessage(uint64_t request_port_id, Message&& msg);

  // --- object cache maintenance -------------------------------------------

  // Drops cached (pager_cache'd) objects that have no resident pages.
  void TrimObjectCache();

  // Number of live memory objects known to this kernel (tests).
  size_t object_count() const;

  // Looks up the VmObject for a pager port (tests / kernel internals).
  std::shared_ptr<VmObject> ObjectForPager(const SendRight& pager) const;

  // Length of the shadow chain under the object mapped at `addr` (1 = no
  // shadow ancestors, 0 = no entry). Tests and benchmarks use this to show
  // collapse keeps chains bounded.
  size_t ShadowChainLength(TaskVm& task, VmOffset addr);

 private:
  friend class VmMapCopy;

  // Witness types: a ChainLock proves chain_mu_ is held, an ObjectLock
  // proves some object's mu is held. Passed by reference where a callee
  // relies on the caller's lock.
  using ChainLock = std::unique_lock<std::mutex>;
  using ObjectLock = std::unique_lock<std::mutex>;

  // A cache-line-padded atomic counter. The systemwide counters are bumped
  // from every CPU on every fault; unpadded, neighbouring counters share a
  // line and every fetch_add drags that line between cores (false sharing).
  // Inheriting from std::atomic keeps every call site unchanged.
  struct alignas(64) PaddedAtomicU64 : std::atomic<uint64_t> {
    using std::atomic<uint64_t>::atomic;
  };

  // Systemwide VM event counters, atomically maintained; Statistics()
  // snapshots them into the plain VmStatistics wire struct.
  struct Counters {
    PaddedAtomicU64 faults{0};
    PaddedAtomicU64 zero_fill_count{0};
    PaddedAtomicU64 cow_faults{0};
    PaddedAtomicU64 pageins{0};
    PaddedAtomicU64 pageouts{0};
    PaddedAtomicU64 reactivations{0};
    PaddedAtomicU64 lookups{0};
    PaddedAtomicU64 hits{0};
    PaddedAtomicU64 unlock_requests{0};
    PaddedAtomicU64 parked_pageouts{0};
    PaddedAtomicU64 manager_deaths{0};
    PaddedAtomicU64 death_resolved_pages{0};
    PaddedAtomicU64 shadow_collapses{0};
    PaddedAtomicU64 shadow_bypasses{0};
    PaddedAtomicU64 pages_migrated{0};
    PaddedAtomicU64 collapse_denied{0};
    PaddedAtomicU64 chain_depth_max{0};
    PaddedAtomicU64 fast_faults{0};
    PaddedAtomicU64 spurious_page_wakeups{0};
    PaddedAtomicU64 collapse_denied_scan_cap{0};
    PaddedAtomicU64 collapse_denied_external{0};
    PaddedAtomicU64 activations_skipped{0};
    PaddedAtomicU64 fault_lock_ops{0};
    PaddedAtomicU64 map_lookups_optimistic{0};
    PaddedAtomicU64 map_lookup_retries{0};
    PaddedAtomicU64 queue_batch_flushes{0};
    PaddedAtomicU64 pageout_runs{0};
    PaddedAtomicU64 pageout_run_pages{0};
    PaddedAtomicU64 fault_ahead_requests{0};
    PaddedAtomicU64 fault_ahead_pages{0};
    PaddedAtomicU64 fault_ahead_unused{0};
  };

  // --- resident page management ---------------------------------------

  // Page-table probe with lookup statistics. Caller holds the owner's mu
  // (which keeps the returned page alive and its state stable). Coverage
  // checks and the optimistic fault path probe object->pages directly, so
  // they neither skew the hit rate nor pay the two shared-counter xadds.
  VmPage* PageLookup(VmObject* object, VmOffset offset);

  // Allocates a frame and a resident page for (object, offset). Never
  // blocks and never reclaims inline: on exhaustion returns
  // kResourceShortage and pokes the daemon; the caller must drop its locks
  // and WaitForFreeFrames. Caller holds the owner's mu.
  Result<VmPage*> PageAllocLocked(VmObject* object, VmOffset offset, bool allow_reserve);

  // Frees a resident page: unmaps, unqueues, drops it from its object's
  // table, releases the frame.
  // Caller holds the owner's mu (witnessed by `olk`).
  void PageFreeLocked(ObjectLock& olk, VmPage* page);

  void PageActivate(VmPage* page);
  void PageDeactivate(VmPage* page);
  void PageRemoveFromQueue(VmPage* page);
  // Variants for callers already under queue_mu_ (the pageout scan).
  void PageActivateLocked(VmPage* page);
  void PageDeactivateLocked(VmPage* page);
  void PageRemoveFromQueueLocked(VmPage* page);

  // --- batched queue operations ----------------------------------------

  struct PagePin;  // Defined below (fault machinery).

  // The per-thread deferral list for page activations: multi-page
  // operations (vm_read / vm_write / pager data arrival / death
  // resolution) accumulate pages here and apply the whole batch under one
  // queue_mu_ acquisition instead of locking per page. Discipline: a page
  // in the batch must be kept stable — pinned, or its object's mu held —
  // until the flush, and every operation drains the batch before it
  // returns (Fault() asserts this at entry and exit, so a leak cannot
  // silently carry pages into an unrelated operation or another kernel
  // instance).
  struct QueueBatch {
    static constexpr size_t kCapacity = 16;
    std::array<VmPage*, kCapacity> pages;
    size_t count = 0;
    bool empty() const { return count == 0; }
  };
  static QueueBatch& ThreadQueueBatch();

  // Defers activation of `page` into the thread batch (tag fast-out first,
  // like PageActivate); flushes inline if the batch is full.
  void PageActivateDeferred(VmPage* page);
  // Applies and empties the thread batch under one queue_mu_ acquisition.
  void FlushQueueBatch();

  // Debug guard asserting the thread batch is drained at construction and
  // destruction (fault entry and exit; see MACH_DEBUG_ASSERT).
  struct QueueBatchDrainedCheck {
    QueueBatchDrainedCheck();
    ~QueueBatchDrainedCheck();
  };

  // Pins held across a multi-page kernel-mediated access so each page's
  // activation can ride the thread queue batch: the pin keeps the deferred
  // page stable until the flush. Drained (flush, then unpin) at a capacity
  // scaled to physical memory — so batched pins can never hold enough
  // frames to starve reclaim — and on every exit path via the destructor.
  struct PinBatch {
    explicit PinBatch(VmSystem* vm);
    ~PinBatch();
    PinBatch(const PinBatch&) = delete;
    PinBatch& operator=(const PinBatch&) = delete;
    void Add(PagePin&& pin);
    void Drain();
    VmSystem* vm_;
    size_t cap_;
    std::vector<PagePin> pins_;
  };

  // Blocks briefly until frames may be available again: pokes the daemon,
  // runs one reclaim pass, then waits on free_cv_ with a bounded slice.
  // No locks may be held.
  void WaitForFreeFrames();

  // --- fault machinery --------------------------------------------------

  // A resolved page, pinned for installation. The pin (VmPage::pin_count)
  // keeps the page and frame alive after the object lock is dropped;
  // page_lock is snapshotted so UnpinPage can detect a manager lock that
  // raced with the install.
  struct PagePin {
    std::shared_ptr<VmObject> owner;
    VmPage* page = nullptr;
    bool from_backing = false;  // Page belongs to a shadow ancestor; map
                                // read-only (copy still pending).
    VmProt page_lock = kVmProtNone;
  };

  // Entry resolution under the map lock(s). `share_lock` keeps the sharing
  // map's entries stable for as long as the holder pointer is used.
  struct EntryRef {
    MapEntry* top = nullptr;     // Entry in the task's top-level map.
    MapEntry* holder = nullptr;  // Entry that references the object
                                 // (== top, or a sharing-map entry).
    VmOffset object_offset = 0;  // Offset of the faulting page in the object.
    bool needs_prepare = false;  // Lazy object creation or a shadow push is
                                 // required first (PrepareEntry).
    std::shared_lock<std::shared_mutex> share_lock;
  };

  // Read-only resolution; caller holds task.map->lock() (either mode).
  Result<EntryRef> LookupEntry(TaskVm& task, VmOffset addr, VmProt access);

  // Where an access at a page address lands: the entry's object, the page's
  // offset in it, and the fault-ahead window for a miss (1 otherwise).
  struct EntryTarget {
    std::shared_ptr<VmObject> object;
    VmOffset offset = 0;
    uint32_t fa_window = 1;
    bool installed = false;  // The resident fast path entered the mapping.
  };

  // Entry resolution for Fault, ReadMemory and WriteMemory: looks up
  // `page_addr` under the map lock(s), shared, running PrepareEntry and
  // retrying while the entry needs it, then probes the page under the
  // object lock. A miss feeds the entry's sequentiality detector. With
  // `install` (Fault), a settled page resident in the entry's own object
  // whose protection allows `access` is entered into the task's pmap right
  // there (counted as a fast fault), and the snapshot the optimistic tier
  // reads is republished. Takes no locks on entry or exit.
  Result<EntryTarget> ResolveEntry(TaskVm& task, VmOffset page_addr, VmProt access,
                                   bool install);

  // Runs the per-entry sequentiality detector for a *miss* at
  // `object_offset` (the page was not resident) and returns the fault-ahead
  // window to use, >= 1. Caller holds the holder's map lock (shared is
  // fine; the detector word is atomic and advisory). Returns 1 whenever
  // Config::fault_ahead_max is 1.
  uint32_t ComputeFaultAheadWindow(MapEntry* holder, VmOffset object_offset);

  // The lock-free fault fast path (tier 0, tried before every locked
  // resolution): resolves `page_addr` against the map's published snapshot
  // and installs the translation with the generation validated inside the
  // pmap lock. Handles
  // only the exact analogue of the in-lock fast path — a settled page
  // resident in the entry's own object with sufficient protection; returns
  // false (fall back to the locked path) for everything else, including
  // every would-be error verdict: errors are never decided from a snapshot.
  bool TryOptimisticFault(TaskVm& task, VmOffset page_addr, VmProt access);

  // Performs the mutations LookupEntry flagged (lazy zero-fill object,
  // copy-on-write shadow) under exclusive map locks. Takes no other locks
  // on entry.
  KernReturn PrepareEntry(TaskVm& task, VmOffset addr, VmProt access);

  // The §5.5 page walk: finds or creates the page for
  // (first_object, first_offset), waiting on busy pages, asking pagers, and
  // performing the copy-on-write push as needed. Takes and releases object
  // locks internally (none held on entry or exit); returns the page pinned.
  // `fa_window` is the fault-ahead window in pages (>= 1) to apply if this
  // resolution turns into a pager request on `first_object` itself; shadow
  // descents and recursive copy pulls always run single-page.
  Result<PagePin> ResolvePage(std::shared_ptr<VmObject> first_object, VmOffset first_offset,
                              VmProt fault_type, uint32_t fa_window = 1);

  // ResolvePage's phases (vm_fault.cc describes them and the step contract
  // they share). Each is entered holding the cursor object's mu.
  struct FaultWalk;
  struct FaultStep;
  FaultStep WalkChain(FaultWalk& w);
  FaultStep UsePage(FaultWalk& w, VmPage* page);
  FaultStep AwaitPage(FaultWalk& w, VmPage* page);
  std::optional<FaultStep> Unpark(FaultWalk& w);
  FaultStep RequestPage(FaultWalk& w);
  FaultStep AwaitPlaceholder(FaultWalk& w, const std::vector<VmPage*>& run, bool sent);
  // Unpins a pager request's run, freeing its unanswered speculative pages
  // and, with `abandon`, the faulting page's placeholder too.
  void ReleaseRun(FaultWalk& w, const std::vector<VmPage*>& run, bool abandon);
  FaultStep CopyOnWrite(FaultWalk& w, VmPage* source);
  FaultStep SettleUnavailable(FaultWalk& w, VmPage* page);
  Result<VmPage*> ZeroFillAtCursor(FaultWalk& w);

  PagePin MakePinLocked(ObjectLock& olk, std::shared_ptr<VmObject> owner, VmPage* page,
                        bool from_backing);
  void UnpinPage(PagePin& pin);

  // Zeroes a resident page's frame and counts the zero fill.
  void ZeroFill(VmPage* page) {
    phys_->ZeroFrame(page->frame);
    counters_.zero_fill_count.fetch_add(1, std::memory_order_relaxed);
  }
  // Settles a placeholder whose data can never arrive by the §6.2.1 policy:
  // under kZeroFill it becomes a dirty zero page and true is returned; under
  // kError it is left alone and false is returned (the caller fails the
  // fault or marks the page). Caller holds the owner's mu.
  bool SettleByPolicyLocked(VmPage* page);

  // Waits (bounded slice) on `object`'s condition variable for a page state
  // change; returns false once `deadline` has passed. `olk` holds the
  // object's mu.
  bool WaitForPage(ObjectLock& olk, VmObject* object,
                   std::chrono::steady_clock::time_point deadline);

  // Sends `msg` to the object's manager, bounded by the fault-wait budget.
  // `olk` (the object's mu) is released across the send and reacquired;
  // callers revalidate after.
  KernReturn SendToPager(ObjectLock& olk, const std::shared_ptr<VmObject>& object, Message msg);

  // --- objects -----------------------------------------------------------

  std::shared_ptr<VmObject> CreateInternalObject(VmSize size);
  // Pushes a shadow object in front of entry->object. Caller holds the
  // holder map exclusively plus chain_mu_.
  void MakeShadow(ChainLock& chain, MapEntry* entry);
  void ObjectRef(const std::shared_ptr<VmObject>& object) {
    object->map_refs.fetch_add(1, std::memory_order_relaxed);
  }
  void ObjectRelease(ChainLock& chain, std::shared_ptr<VmObject> object);
  void TerminateObject(ChainLock& chain, const std::shared_ptr<VmObject>& object);
  void ReleaseEntry(ChainLock& chain, MapEntry&& entry);
  // Copy-on-write protection (§5.5) for a fork or CopyIn of `holder`: lowers
  // every writable hardware mapping of the pages it maps to read-only. A
  // direct entry (`pmap` = the task's pmap) that holds its object's only
  // reference is the one place those pages can be mapped, so one range
  // protect of [holder.start, holder.end) in `pmap` does it; otherwise
  // (a sharing-map sub-entry, passed with a null `pmap`, a clipped entry,
  // or an object other entries map) each resident page's pv list is walked.
  // Call before the copy takes its reference. Caller holds the holder's map
  // exclusively: an optimistic install then either lands before the
  // protect or fails its generation check (Pmap::EnterIf).
  void WriteProtectForCopy(Pmap* pmap, const MapEntry& holder);

  // Ensures an internal object has a default-pager association
  // (pager_create). Caller holds chain_mu_ and the object's mu.
  bool EnsureInternalPager(ChainLock& chain, ObjectLock& olk,
                           const std::shared_ptr<VmObject>& object);

  // --- shadow-chain collapse (Mach's vm_object_collapse / bypass) --------

  // Cheap unlocked-precondition check + TryCollapse, used after a fault.
  void MaybeCollapse(const std::shared_ptr<VmObject>& object);

  // Attempts to shorten `object`'s shadow chain, repeatedly:
  //  * splice: if the immediate shadow's only reference is `object`'s shadow
  //    pointer, merge its still-needed pages into `object`
  //    (MergeShadowPagesLocked) and splice it out of the chain;
  //  * bypass: if `object` itself covers every offset it could fault on, drop
  //    the whole remaining chain.
  // Caller holds chain_mu_ only; object locks are taken child-then-parent
  // inside. Declines — counting collapse_denied — whenever a busy or pinned
  // page or unaccounted pager-held data makes the splice unsafe.
  void TryCollapse(ChainLock& chain, const std::shared_ptr<VmObject>& object);

  // The splice's page work: every page of `backing` (child's immediate
  // shadow) that `child` can still read through its window is re-homed into
  // `child` — relabelled to the child's offset under one queue_mu_
  // acquisition and marked dirty, with no pmap work — and every other page of
  // `backing` is freed. The smaller page set merges into the larger: when
  // the child holds fewer pages and its window starts at offset 0, it
  // adopts backing's whole table (swap) and only its own pages are
  // re-inserted, so the table work is O(child) instead of O(backing).
  // Caller holds both objects' locks (`slk` holds backing's) and has ruled
  // out unstable pages. Returns the number of pages re-homed.
  uint64_t MergeShadowPagesLocked(ObjectLock& slk, VmObject* child, VmObject* backing);

  // Whether `object` holds data for `offset` without consulting its shadow:
  // a resident page, a default-pager copy (paged_offsets), or a §6.2.2
  // parked copy. Caller holds the object's mu.
  bool ObjectCoversOffset(const VmObject* object, VmOffset offset) const;

  // Whether `object` covers every page of [0, size()) by itself, derived
  // from residency and pager metadata (never an O(size) offset scan).
  // kCapExceeded = the metadata was larger than kCollapseScanCap
  // (vm_system.cc).
  enum class Coverage { kFull, kPartial, kCapExceeded };
  Coverage FullyCoversSelf(const VmObject* object) const;

  // --- pageout ------------------------------------------------------------

  void PageoutDaemonMain();
  // Deactivates the oldest active pages until about a third of the in-use
  // pool is inactive. Caller holds queue_mu_.
  void AgeQueuesLocked();
  // Frees up to `want` frames from the inactive queue; returns the number
  // freed. Takes queue_mu_ and object locks (try_lock) internally; no locks
  // held on entry.
  uint32_t ReclaimPass(uint32_t want);
  // Writes one unqueued, settled page back to its manager (or parks it),
  // clustering the object's contiguous dirty neighbours (up to
  // Config::pageout_cluster_max pages) into the same pager_data_write run.
  // Caller holds the owner's mu; returns the number of frames freed.
  uint32_t PageoutPageLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                             VmPage* page);
  // Grows a write-back run around `seed` with the object's contiguous dirty
  // neighbours (each unqueued and write-protected as it is claimed). The
  // result is sorted by offset, contains `seed`, and every member is
  // settled: !busy, pin_count == 0, dirty. Caller holds the owner's mu.
  std::vector<VmPage*> CollectPageoutClusterLocked(VmObject* object, VmPage* seed);
  // Writes `dirty` (settled dirty pages of `object`, in any order) back to
  // the object's pager, sorted by offset, in contiguous runs of at most
  // Config::pageout_cluster_max pages. Pages of a written run are marked
  // clean; a refused run is parked (§6.2.2) when `park_on_failure` and
  // otherwise stays dirty. No-op without a pager. The one write-back path
  // of flush, clean and object termination. Caller holds the owner's mu.
  void WriteBackDirtyLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                            std::vector<VmPage*> dirty, bool park_on_failure);
  // Sends one pager_data_write covering `run` (contiguous, same object).
  // kWritten: accepted, paged_offsets updated. kParked: the manager did not
  // take the message and every page's data went to the §6.2.2 parking
  // store. kFailed: not written and not parked (`park_on_failure` false,
  // or unprotected mode); the pages stay dirty. Caller holds the owner's mu.
  enum class RunWriteResult { kWritten, kParked, kFailed };
  RunWriteResult WritePageoutRun(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                 const std::vector<VmPage*>& run, bool park_on_failure);

  // Drains deferred VmMapCopy releases if any are pending. Callers must
  // hold no VM locks.
  void MaybeDrainDeferred();

  // --- manager -> kernel handlers ----------------------------------------

  void HandleDataProvided(const std::shared_ptr<VmObject>& object, VmOffset offset,
                          const std::vector<std::byte>& data, VmProt lock_value);
  void HandleDataUnavailable(const std::shared_ptr<VmObject>& object, VmOffset offset,
                             VmSize size);
  void HandleDataLock(const std::shared_ptr<VmObject>& object, VmOffset offset, VmSize length,
                      VmProt lock_value);
  void HandleFlush(const std::shared_ptr<VmObject>& object, VmOffset offset, VmSize length);
  void HandleClean(const std::shared_ptr<VmObject>& object, VmOffset offset, VmSize length);
  void HandleCache(const std::shared_ptr<VmObject>& object, bool may_cache);

  // Death-notification fast path (§6.2.1): the memory-object port of a
  // manager died. Resolves every in-flight placeholder page under the
  // configured on_pager_timeout policy (zero fill or error) and wakes the
  // faulting threads immediately instead of letting them burn the timeout.
  // Takes the object by value: the caller's reference typically aliases the
  // objects_by_pager_ entry this function erases. Caller holds chain_mu_.
  void HandlePagerDeath(ChainLock& chain, std::shared_ptr<VmObject> object);

  // ------------------------------------------------------------------------

  PhysicalMemory* const phys_;
  Config config_;
  uint32_t free_target_;
  uint32_t reserved_;

  // Tier 2: chain structure, object lifecycle, registries (see the header
  // comment for the full order).
  mutable std::mutex chain_mu_;

  // Tier 4: pageout queues and page queue-membership. The alignas walls the
  // queue word group (mutex + heads + counts) off from neighbouring members
  // so fault-path activations and free-list traffic do not false-share.
  alignas(64) mutable std::mutex queue_mu_;
  PageQueue active_queue_;
  PageQueue inactive_queue_;
  uint32_t active_count_ = 0;
  uint32_t inactive_count_ = 0;

  // Free-frame waiters (fault path under memory pressure). Notified after
  // every frame free; waiters use bounded slices so a missed notify only
  // costs one slice.
  alignas(64) std::mutex free_mu_;
  std::condition_variable free_cv_;

  // Pageout daemon control.
  std::mutex pageout_mu_;
  std::condition_variable pageout_wake_;
  std::thread pageout_thread_;
  bool pageout_running_ = false;
  bool shutting_down_ = false;

  // Object registries: by memory-object (pager) port id and by request
  // port id. Guarded by chain_mu_.
  std::unordered_map<uint64_t, std::shared_ptr<VmObject>> objects_by_pager_;
  std::unordered_map<uint64_t, std::shared_ptr<VmObject>> objects_by_request_;

  std::shared_ptr<PortSet> pager_requests_ = PortSet::Create();

  // Every memory-object port is watched for death at association time
  // (vm_allocate_with_pager / pager_create); the notification lands here,
  // inside pager_requests_, so the pager service thread dispatches it like
  // any other manager->kernel message.
  ReceiveRight death_notify_receive_;
  SendRight death_notify_send_;

  SendRight default_pager_service_;  // Guarded by chain_mu_.
  TrustedParkingStore* parking_ = nullptr;

  mutable Counters counters_;

  // Back-pointer from each allocated frame to the VmPage that owns it (the
  // analogue of Mach's vm_page_array, indexed by physical page). Written
  // under the owning object's lock when a page is allocated or freed; read
  // only by the destructor's leaked-page sweep, which finds every resident
  // page through it without any global page table.
  std::vector<VmPage*> frame_pages_;

  // Cap on pins a PinBatch may hold at once; sized against the frame pool
  // in the constructor so batched pins can never starve reclaim in
  // small-memory configurations.
  size_t pin_batch_cap_ = 16;

  // Object references dropped by VmMapCopy destructors (possibly on threads
  // that must not take VM locks); drained opportunistically. The atomic
  // flag lets MaybeDrainDeferred skip the mutex on the (hot, empty) path.
  std::atomic<bool> deferred_pending_{false};
  std::mutex deferred_mu_;
  std::vector<std::shared_ptr<VmObject>> deferred_releases_;
};

// An out-of-line memory region captured from an address map (Mach's
// vm_map_copy). Holds copy-on-write references to the source objects; a
// CopyOut consumes it into a destination map.
class VmMapCopy {
 public:
  struct Segment {
    std::shared_ptr<VmObject> object;  // Null = zero-filled region.
    VmOffset offset = 0;
    VmSize size = 0;
  };

  VmMapCopy(VmSystem* system, VmSize size) : system_(system), size_(size) {}
  ~VmMapCopy();

  VmMapCopy(const VmMapCopy&) = delete;
  VmMapCopy& operator=(const VmMapCopy&) = delete;

  VmSize size() const { return size_; }
  std::vector<Segment>& segments() { return segments_; }
  const std::vector<Segment>& segments() const { return segments_; }
  VmSystem* system() const { return system_; }

 private:
  VmSystem* system_;
  VmSize size_;
  std::vector<Segment> segments_;
};

}  // namespace mach

#endif  // SRC_VM_VM_SYSTEM_H_
