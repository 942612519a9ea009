#include "src/hw/physical_memory.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace mach {

PhysicalMemory::PhysicalMemory(uint32_t frame_count, VmSize page_size)
    : frame_count_(frame_count),
      page_size_(page_size),
      data_(static_cast<size_t>(frame_count) * page_size),
      frames_(frame_count) {
  assert(page_size != 0 && (page_size & (page_size - 1)) == 0);
  free_list_.reserve(frame_count);
  // Hand frames out in ascending order for reproducibility.
  for (uint32_t f = frame_count; f > 0; --f) {
    free_list_.push_back(f - 1);
  }
}

std::optional<uint32_t> PhysicalMemory::AllocFrame() {
  uint32_t frame;
  {
    std::lock_guard<std::mutex> g(free_mu_);
    if (free_list_.empty()) {
      return std::nullopt;
    }
    frame = free_list_.back();
    free_list_.pop_back();
  }
  std::lock_guard<std::mutex> fg(frames_[frame].mu);
  frames_[frame].referenced = false;
  frames_[frame].modified = false;
  assert(frames_[frame].pv.empty());
  return frame;
}

void PhysicalMemory::FreeFrame(uint32_t frame) {
  assert(frame < frame_count_);
  {
    std::lock_guard<std::mutex> fg(frames_[frame].mu);
    assert(frames_[frame].pv.empty());
  }
  std::lock_guard<std::mutex> g(free_mu_);
  free_list_.push_back(frame);
}

uint32_t PhysicalMemory::free_frames() const {
  std::lock_guard<std::mutex> g(free_mu_);
  return static_cast<uint32_t>(free_list_.size());
}

void PhysicalMemory::ReadFrame(uint32_t frame, VmOffset offset, void* dst, VmSize len) {
  assert(frame < frame_count_ && offset + len <= page_size_);
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  std::memcpy(dst, data_.data() + static_cast<size_t>(frame) * page_size_ + offset, len);
  frames_[frame].referenced = true;
}

void PhysicalMemory::WriteFrame(uint32_t frame, VmOffset offset, const void* src, VmSize len) {
  assert(frame < frame_count_ && offset + len <= page_size_);
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  std::memcpy(data_.data() + static_cast<size_t>(frame) * page_size_ + offset, src, len);
  frames_[frame].referenced = true;
  frames_[frame].modified = true;
}

void PhysicalMemory::ZeroFrame(uint32_t frame) {
  assert(frame < frame_count_);
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  std::memset(data_.data() + static_cast<size_t>(frame) * page_size_, 0, page_size_);
}

void PhysicalMemory::CopyFrame(uint32_t src_frame, uint32_t dst_frame) {
  assert(src_frame < frame_count_ && dst_frame < frame_count_);
  assert(src_frame != dst_frame);
  // The only place two frame locks are held together: take them in index
  // order so concurrent copies cannot deadlock.
  Frame& first = frames_[std::min(src_frame, dst_frame)];
  Frame& second = frames_[std::max(src_frame, dst_frame)];
  std::lock_guard<std::mutex> g1(first.mu);
  std::lock_guard<std::mutex> g2(second.mu);
  std::memcpy(data_.data() + static_cast<size_t>(dst_frame) * page_size_,
              data_.data() + static_cast<size_t>(src_frame) * page_size_, page_size_);
}

bool PhysicalMemory::IsReferenced(uint32_t frame) const {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  return frames_[frame].referenced;
}

bool PhysicalMemory::IsModified(uint32_t frame) const {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  return frames_[frame].modified;
}

void PhysicalMemory::ClearReference(uint32_t frame) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  frames_[frame].referenced = false;
}

void PhysicalMemory::ClearModify(uint32_t frame) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  frames_[frame].modified = false;
}

void PhysicalMemory::SetReference(uint32_t frame) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  frames_[frame].referenced = true;
}

void PhysicalMemory::SetModify(uint32_t frame) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  frames_[frame].modified = true;
}

void PhysicalMemory::PvAdd(uint32_t frame, Pmap* pmap, VmOffset vaddr) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  frames_[frame].pv.push_back(PvEntry{pmap, vaddr});
}

void PhysicalMemory::PvRemove(uint32_t frame, Pmap* pmap, VmOffset vaddr) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  auto& pv = frames_[frame].pv;
  auto it = std::find_if(pv.begin(), pv.end(), [&](const PvEntry& e) {
    return e.pmap == pmap && e.vaddr == vaddr;
  });
  if (it != pv.end()) {
    pv.erase(it);
  }
}

PvSnapshot PhysicalMemory::PvList(uint32_t frame) const {
  PvSnapshot out;
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  const std::vector<PvEntry>& pv = frames_[frame].pv;
  out.size_ = pv.size();
  out.spilled_ = pv.size() > PvSnapshot::kInline;
  if (out.spilled_) {
    out.overflow_ = pv;
  } else {
    std::copy(pv.begin(), pv.end(), out.inline_.begin());
  }
  return out;
}

}  // namespace mach
