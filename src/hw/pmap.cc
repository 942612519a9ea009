#include "src/hw/pmap.h"

#include <cassert>

namespace mach {

Pmap::~Pmap() {
  // Drop all pv entries for translations still installed.
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& [page_addr, tr] : table_) {
    phys_->PvRemove(tr.frame, this, page_addr);
  }
  table_.clear();
}

void Pmap::Enter(VmOffset vaddr, uint32_t frame, VmProt prot) {
  VmOffset page_addr = TruncPage(vaddr, phys_->page_size());
  std::lock_guard<std::mutex> g(mu_);
  EnterLocked(page_addr, frame, prot);
}

bool Pmap::EnterIf(VmOffset vaddr, uint32_t frame, VmProt prot,
                   const std::atomic<uint64_t>& gen, uint64_t expected) {
  VmOffset page_addr = TruncPage(vaddr, phys_->page_size());
  std::lock_guard<std::mutex> g(mu_);
  if (gen.load(std::memory_order_acquire) != expected) {
    return false;
  }
  EnterLocked(page_addr, frame, prot);
  return true;
}

void Pmap::EnterLocked(VmOffset page_addr, uint32_t frame, VmProt prot) {
  auto it = table_.find(page_addr);
  if (it != table_.end()) {
    if (it->second.frame == frame) {
      it->second.prot = prot;
      return;
    }
    phys_->PvRemove(it->second.frame, this, page_addr);
    table_.erase(it);
  }
  table_.emplace(page_addr, Translation{frame, prot});
  phys_->PvAdd(frame, this, page_addr);
}

template <typename Fn>
void Pmap::ForRangeLocked(VmOffset start, VmOffset end, Fn fn) {
  const VmSize ps = phys_->page_size();
  start = TruncPage(start, ps);
  if (end <= start) {
    return;
  }
  if ((end - start + ps - 1) / ps <= table_.size()) {
    for (VmOffset a = start; a < end; a += ps) {
      auto it = table_.find(a);
      if (it != table_.end() && fn(it->second)) {
        phys_->PvRemove(it->second.frame, this, a);
        table_.erase(it);
      }
    }
    return;
  }
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->first >= start && it->first < end && fn(it->second)) {
      phys_->PvRemove(it->second.frame, this, it->first);
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

void Pmap::Remove(VmOffset start, VmOffset end) {
  std::lock_guard<std::mutex> g(mu_);
  ForRangeLocked(start, end, [](Translation&) { return true; });
}

void Pmap::Protect(VmOffset start, VmOffset end, VmProt prot) {
  std::lock_guard<std::mutex> g(mu_);
  ForRangeLocked(start, end, [prot](Translation& tr) {
    tr.prot &= prot;
    return prot == kVmProtNone;
  });
}

void Pmap::LowerProtection(VmOffset page_addr, uint32_t frame, VmProt prot) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = table_.find(page_addr);
  if (it == table_.end() || it->second.frame != frame) {
    return;  // Mapping changed since the pv list was sampled.
  }
  if (prot == kVmProtNone) {
    phys_->PvRemove(frame, this, page_addr);
    table_.erase(it);
  } else {
    it->second.prot &= prot;
  }
}

void Pmap::PageProtect(PhysicalMemory* phys, uint32_t frame, VmProt prot) {
  // Snapshot the pv list first: pv access takes the frame lock, and we must
  // not hold it while taking individual pmap locks (lock order pmap >
  // frame). The snapshot stays on the stack for short lists.
  for (const PvEntry& e : phys->PvList(frame)) {
    e.pmap->LowerProtection(e.vaddr, frame, prot);
  }
}

Pmap::AccessResult Pmap::Access(VmOffset vaddr, void* buf, VmSize len, bool is_write) {
  VmSize ps = phys_->page_size();
  VmOffset page_addr = TruncPage(vaddr, ps);
  assert(vaddr - page_addr + len <= ps);  // One page at a time.
  std::lock_guard<std::mutex> g(mu_);
  auto it = table_.find(page_addr);
  if (it == table_.end()) {
    return AccessResult{FaultKind::kNotPresent, page_addr};
  }
  VmProt required = is_write ? kVmProtWrite : kVmProtRead;
  if ((it->second.prot & required) != required) {
    return AccessResult{FaultKind::kProtection, page_addr};
  }
  // Perform the access while holding our table lock so the translation
  // cannot be torn down mid-copy (TLB-entry-level atomicity).
  if (is_write) {
    phys_->WriteFrame(it->second.frame, vaddr - page_addr, buf, len);
  } else {
    phys_->ReadFrame(it->second.frame, vaddr - page_addr, buf, len);
  }
  return AccessResult{};
}

std::optional<uint32_t> Pmap::Translate(VmOffset vaddr, VmProt required) const {
  VmOffset page_addr = TruncPage(vaddr, phys_->page_size());
  std::lock_guard<std::mutex> g(mu_);
  auto it = table_.find(page_addr);
  if (it == table_.end() || (it->second.prot & required) != required) {
    return std::nullopt;
  }
  return it->second.frame;
}

std::optional<VmProt> Pmap::ProtectionOf(VmOffset vaddr) const {
  VmOffset page_addr = TruncPage(vaddr, phys_->page_size());
  std::lock_guard<std::mutex> g(mu_);
  auto it = table_.find(page_addr);
  if (it == table_.end()) {
    return std::nullopt;
  }
  return it->second.prot;
}

size_t Pmap::entry_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return table_.size();
}

}  // namespace mach
