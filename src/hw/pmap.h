// The physical map (pmap) module — the machine-dependent half of the Mach VM
// system (§5.5 "hardware validation"). A Pmap holds the virtual-to-physical
// translations for one address map. Everything above this layer is machine-
// independent, exactly as the paper describes.
//
// "User" code has no real MMU here, so every simulated memory access is an
// explicit Access() call: it performs translation, protection check,
// reference/modify bit maintenance and the data copy atomically, which is
// the contract a CPU load/store gives the kernel. A failed Access() is a
// page fault: the caller (the task copyin/copyout layer) invokes the kernel
// fault handler and retries.
//
// Lock order: Pmap::mu_ may be held while taking a PhysicalMemory frame
// lock, never the reverse (callers that walk pv lists snapshot them first).

#ifndef SRC_HW_PMAP_H_
#define SRC_HW_PMAP_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/base/vm_types.h"
#include "src/hw/physical_memory.h"

namespace mach {

class Pmap {
 public:
  explicit Pmap(PhysicalMemory* phys) : phys_(phys) {}
  ~Pmap();

  Pmap(const Pmap&) = delete;
  Pmap& operator=(const Pmap&) = delete;

  // Result of a failed Access(): which fault the "hardware" raised.
  enum class FaultKind {
    kNone,        // Access succeeded.
    kNotPresent,  // No translation for the page.
    kProtection,  // Translation present but protection insufficient.
  };

  struct AccessResult {
    FaultKind fault = FaultKind::kNone;
    VmOffset fault_addr = 0;  // Page-aligned address of the faulting page.
  };

  // pmap_enter: installs (or replaces) the translation for the page
  // containing `vaddr`.
  void Enter(VmOffset vaddr, uint32_t frame, VmProt prot);

  // Conditional pmap_enter for optimistic (lock-free) fault installs: the
  // translation goes in only if `gen` still equals `expected`, checked
  // under this pmap's lock. A VM-layer mutation bumps its generation before
  // performing any pmap updates of its own, so an install that validates
  // here cannot be reordered after a clamp it should have observed: either
  // the clamp already ran (then the generation changed and we refuse) or it
  // has not reached this pmap yet (then it serialises behind us on mu_ and
  // lowers what we installed). Returns whether the translation was
  // installed.
  bool EnterIf(VmOffset vaddr, uint32_t frame, VmProt prot,
               const std::atomic<uint64_t>& gen, uint64_t expected);

  // pmap_remove: removes translations for [start, end).
  void Remove(VmOffset start, VmOffset end);

  // pmap_protect: lowers the protection of translations in [start, end)
  // to at most `prot` (removing them if prot == none). Used for
  // copy-on-write write-protection of a range only this pmap can map.
  // Both range operations cost min(pages in the range, translations held)
  // steps, so a large sparse range is as cheap as a small dense one.
  void Protect(VmOffset start, VmOffset end, VmProt prot);

  // pmap_page_protect: lowers the protection of *every* mapping of `frame`,
  // in all pmaps, to at most `prot`. Used for copy-on-write write-protection
  // of pages other pmaps may map, and for pageout (prot == none). Callers
  // serialise against racing new mappings with the owning VmObject's lock
  // (faults only install a frame while it is pinned, and pinned frames are
  // re-checked at unpin).
  static void PageProtect(PhysicalMemory* phys, uint32_t frame, VmProt prot);

  // Simulated CPU access: copies `len` bytes between `buf` and the virtual
  // range starting at `vaddr` *within one page*. Returns the fault raised,
  // if any. Reference (and modify, for writes) bits are set on success.
  AccessResult Access(VmOffset vaddr, void* buf, VmSize len, bool is_write);

  // Translation query (no access, no bit updates). Used by tests and by the
  // fault handler's fast revalidation path.
  std::optional<uint32_t> Translate(VmOffset vaddr, VmProt required) const;

  // Returns the current protection of the page's translation, if present.
  std::optional<VmProt> ProtectionOf(VmOffset vaddr) const;

  // Number of installed translations (for tests/statistics).
  size_t entry_count() const;

  PhysicalMemory* phys() const { return phys_; }

 private:
  struct Translation {
    uint32_t frame;
    VmProt prot;
  };

  void EnterLocked(VmOffset page_addr, uint32_t frame, VmProt prot);

  // Calls fn(translation) for each translation in [start, end),
  // erasing it (and its pv entry) when fn returns true. Probes the range's
  // pages or scans the table, whichever is fewer steps. Caller holds mu_.
  template <typename Fn>
  void ForRangeLocked(VmOffset start, VmOffset end, Fn fn);

  // Called by PageProtect via the pv list.
  void LowerProtection(VmOffset page_addr, uint32_t frame, VmProt prot);

  PhysicalMemory* const phys_;
  mutable std::mutex mu_;
  std::unordered_map<VmOffset, Translation> table_;  // keyed by page address
};

}  // namespace mach

#endif  // SRC_HW_PMAP_H_
