// Virtual memory object structures (§5.2).
//
// A VmObject is the kernel-internal representation of a memory object: the
// unit of backing storage that address map entries reference. It records the
// ports used to communicate with the object's data manager, the resident
// pages caching its contents, the shadow chain used for copy-on-write, and
// the caching policy the manager selected via pager_cache.
//
// Lifetime: shared_ptr from map entries, map copies, shadow pointers and the
// kernel's object registry. `map_refs` counts address-map references (the
// paper's "number of address map references to the object"); when it drops
// to zero the object is terminated or cached per can_persist (§3.4.1).
//
// Locking: each object carries its own mutex `mu` guarding its resident-page
// table, page state, pager ports and paged/parked metadata, plus a condition
// variable `cv` for the §5 busy/wanted page protocol. Chain *structure*
// (`shadow`, `shadow_offset`, `shadow_children`) and lifecycle state
// (`alive`, `cached`, `can_persist`, registry membership) are guarded by the
// VmSystem chain lock; `shadow`/`shadow_offset` writes additionally hold the
// object's own mu so a fault walking the chain under object locks reads a
// stable value. `map_refs` is atomic (decrements to a possibly-terminal
// count happen under the chain lock). Object locks are taken child before
// shadow parent; see the lock-order comment in vm_system.h.

#ifndef SRC_VM_VM_OBJECT_H_
#define SRC_VM_VM_OBJECT_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "src/base/vm_types.h"
#include "src/ipc/port.h"
#include "src/ipc/port_right.h"
#include "src/vm/vm_page.h"

namespace mach {

class VmObject : public std::enable_shared_from_this<VmObject> {
 public:
  explicit VmObject(VmSize size) : size_(size) {}
  ~VmObject();

  VmObject(const VmObject&) = delete;
  VmObject& operator=(const VmObject&) = delete;

  // --- identity / pager association -----------------------------------

  VmSize size() const { return size_; }
  void set_size(VmSize size) { size_ = size; }

  // The object lock: guards the resident-page table, every resident page's
  // state, the pager ports, and the paged/parked offset metadata. Innermost
  // of the object tier (only queue, pmap/frame and port locks nest inside
  // it).
  mutable std::mutex mu;

  // The wanted-page condition (§5 busy/wanted protocol): waiters for a busy
  // page of this object block here; every page state transition notifies it.
  std::condition_variable cv;

  // The memory object port (send right held by the kernel). Null for
  // internal objects that have not yet been handed to the default pager.
  SendRight pager;

  // The pager request port: kernel holds the receive right (serviced by the
  // kernel's pager service thread) and passes send rights to the manager.
  ReceiveRight request_receive;
  SendRight request_send;

  // The pager name port (identifies the object in vm_regions output).
  ReceiveRight name_receive;
  SendRight name_send;

  bool internal = false;           // Created by the kernel (default-pager backed).
  bool pager_initialized = false;  // pager_init (or pager_create) sent.
  bool can_persist = false;        // pager_cache(true): may cache with no refs.
  bool cached = false;             // Currently held only by the object cache.
  bool alive = true;               // Set false once terminated.

  // Copy-on-write shadow chain (§5.5): this object's missing pages are
  // copied from `shadow` at (offset + shadow_offset).
  std::shared_ptr<VmObject> shadow;
  VmOffset shadow_offset = 0;

  // Back-pointers: every object whose `shadow` points at this one. Collapse
  // (vm_object_collapse in Mach) needs to find the sole surviving child when
  // map_refs drops to 1; a vector keeps that lookup O(children) without a
  // registry scan. Maintained at every `shadow` assignment.
  std::vector<VmObject*> shadow_children;

  void AddShadowChild(VmObject* child) { shadow_children.push_back(child); }
  void RemoveShadowChild(VmObject* child) {
    shadow_children.erase(
        std::remove(shadow_children.begin(), shadow_children.end(), child),
        shadow_children.end());
  }

  // Offsets this (internal) object has successfully pushed to the default
  // pager via pager_data_write. Collapse must treat these as data the shadow
  // still holds even though no page is resident; without the set, splicing a
  // paged-out shadow would silently lose its pages.
  std::unordered_set<VmOffset> paged_offsets;

  // Whether this object's pager may hold data for `offset`: an external
  // manager may hold any offset, the default pager only what was pushed to
  // it. The fault path asks the pager only where this holds. Caller holds mu.
  bool PagerMayHold(VmOffset offset) const {
    return pager.valid() && (!internal || paged_offsets.count(offset) != 0);
  }

  // Offsets that the kernel parked with the default pager because this
  // (external) object's manager failed to accept a pager_data_write in time
  // (§6.2.2). Consulted by the fault handler before asking the manager.
  // Cleared when the data is re-fetched.
  std::unordered_set<VmOffset> parked_offsets;

  // Number of address-map (and map-copy) references. Atomic so references
  // can be taken without a lock; decrements (which may reach the terminal
  // count) happen under the VmSystem chain lock so termination and collapse
  // decisions are serialised.
  std::atomic<uint32_t> map_refs{0};

  // Resident pages of this object, keyed by offset (the §5.3 lookup, kept
  // per object: DESIGN decision 4). Guarded by mu. pages.size() is the
  // resident count.
  VmPageTable pages;

  // Monotonic id used as the default pager's backing-store key.
  uint64_t id() const { return id_; }

 private:
  static uint64_t NextId();

  const uint64_t id_ = NextId();
  VmSize size_;
};

}  // namespace mach

#endif  // SRC_VM_VM_OBJECT_H_
