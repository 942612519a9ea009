// Simulated physical memory: a fixed array of page frames plus the pieces of
// state real memory hardware keeps — per-frame reference/modify bits and the
// set of virtual mappings of each frame (the "pv list" a real pmap module
// maintains so it can find every mapping of a physical page).
//
// All access to frame contents goes through this class so that the hardware
// bits are maintained exactly as an MMU would maintain them. Each frame has
// its own lock serialising that frame's data, bits, and pv list — the
// per-cache-line atomicity real memory hardware gives — so accesses to
// distinct frames proceed in parallel on a multiprocessor. The free list has
// a separate lock. Frame locks nest inside Pmap::mu_ (a pmap may access a
// frame while holding its table lock, never the reverse) and two frame locks
// are only ever held together by CopyFrame, which acquires them in frame-
// index order.

#ifndef SRC_HW_PHYSICAL_MEMORY_H_
#define SRC_HW_PHYSICAL_MEMORY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/base/vm_types.h"

namespace mach {

class Pmap;

// Identifies one mapping of a physical frame (an entry on the frame's
// pv list).
struct PvEntry {
  Pmap* pmap;
  VmOffset vaddr;
};

// A copy of one frame's pv list, taken under the frame lock so the caller
// can walk it after releasing that lock (lock order: pmap before frame).
// Nearly every frame has at most a few mappings, so the copy lives in an
// inline buffer and touches the heap only for longer lists.
class PvSnapshot {
 public:
  static constexpr size_t kInline = 4;

  const PvEntry* begin() const { return spilled_ ? overflow_.data() : inline_.data(); }
  const PvEntry* end() const { return begin() + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  friend class PhysicalMemory;
  std::array<PvEntry, kInline> inline_{};
  std::vector<PvEntry> overflow_;
  size_t size_ = 0;
  bool spilled_ = false;
};

class PhysicalMemory {
 public:
  // `frame_count` frames of `page_size` bytes each. `page_size` must be a
  // power of two (it is the *system* page size — a boot-time parameter per
  // §3.3, any multiple of a hardware page).
  PhysicalMemory(uint32_t frame_count, VmSize page_size);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  VmSize page_size() const { return page_size_; }
  uint32_t frame_count() const { return frame_count_; }

  // Raw frame allocation. The VM layer's free queue sits above this; these
  // simply hand out unused frames. Returns nullopt when exhausted.
  std::optional<uint32_t> AllocFrame();
  void FreeFrame(uint32_t frame);
  uint32_t free_frames() const;

  // Frame content access (performs the copy under the frame's lock and
  // maintains hardware bits the way a CPU access through a TLB entry would).
  void ReadFrame(uint32_t frame, VmOffset offset, void* dst, VmSize len);
  void WriteFrame(uint32_t frame, VmOffset offset, const void* src, VmSize len);
  void ZeroFrame(uint32_t frame);
  void CopyFrame(uint32_t src_frame, uint32_t dst_frame);

  // Hardware reference / modify bits.
  bool IsReferenced(uint32_t frame) const;
  bool IsModified(uint32_t frame) const;
  void ClearReference(uint32_t frame);
  void ClearModify(uint32_t frame);
  void SetReference(uint32_t frame);
  void SetModify(uint32_t frame);

  // pv-list maintenance, used by Pmap.
  void PvAdd(uint32_t frame, Pmap* pmap, VmOffset vaddr);
  void PvRemove(uint32_t frame, Pmap* pmap, VmOffset vaddr);
  // Snapshot of the frame's pv list (allocation-free up to
  // PvSnapshot::kInline entries).
  PvSnapshot PvList(uint32_t frame) const;

 private:
  struct Frame {
    mutable std::mutex mu;
    bool referenced = false;
    bool modified = false;
    std::vector<PvEntry> pv;
  };

  const uint32_t frame_count_;
  const VmSize page_size_;
  std::vector<std::byte> data_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_list_;
  mutable std::mutex free_mu_;
};

}  // namespace mach

#endif  // SRC_HW_PHYSICAL_MEMORY_H_
