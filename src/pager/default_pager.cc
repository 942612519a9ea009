#include "src/pager/default_pager.h"

#include <cassert>

#include "src/base/log.h"

namespace mach {

DefaultPager::DefaultPager(SimDisk* disk) : DataManager("default-pager"), disk_(disk) {
  service_port_ = AllocateServicePort();
}

DefaultPager::~DefaultPager() {
  Stop();
  std::lock_guard<std::mutex> g(store_mu_);
  for (const auto& [key, block] : blocks_) {
    disk_->FreeBlock(block);
  }
  blocks_.clear();
}

void DefaultPager::OnCreate(uint64_t adopted_port_id, PagerCreateArgs args) {
  std::lock_guard<std::mutex> g(store_mu_);
  if (args.new_request_port.valid()) {
    request_to_object_.emplace(args.new_request_port.id(), adopted_port_id);
  }
  MACH_LOG(kDebug) << "default pager adopted object port " << adopted_port_id;
}

void DefaultPager::OnDataRequest(uint64_t object_port_id, uint64_t cookie,
                                 PagerDataRequestArgs args) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const VmSize page = disk_->block_size();
  // A multi-page (fault-ahead) request is answered with the minimal number
  // of messages: the builder coalesces contiguous provides and contiguous
  // unavailable spans, flushing at each transition and on destruction.
  PagerRunBuilder run(args.pager_request_port);
  for (VmOffset off = args.offset; off < args.offset + args.length; off += page) {
    uint32_t block = UINT32_MAX;
    {
      std::lock_guard<std::mutex> g(store_mu_);
      auto it = blocks_.find(BackingKey{object_port_id, off});
      if (it != blocks_.end()) {
        block = it->second;
      }
    }
    if (block == UINT32_MAX) {
      // No data was ever written for this page: the kernel zero-fills
      // (pager_data_unavailable, §3.4.1).
      run.AddUnavailable(off, page);
      continue;
    }
    std::vector<std::byte> data(page);
    if (!IsOk(disk_->ReadBlock(block, data.data()))) {
      // §6.2.1: a manager that cannot produce the page answers
      // pager_data_unavailable; the kernel applies its failure policy
      // rather than waiting out the fault timeout.
      backing_errors_.fetch_add(1, std::memory_order_relaxed);
      MACH_LOG(kWarn) << "default pager: backing read failed for block " << block;
      run.AddUnavailable(off, page);
      continue;
    }
    pageins_.fetch_add(1, std::memory_order_relaxed);
    run.AddData(off, std::move(data), kVmProtNone);
  }
}

void DefaultPager::OnDataWrite(uint64_t object_port_id, uint64_t cookie,
                               PagerDataWriteArgs args) {
  const VmSize page = disk_->block_size();
  assert(args.data.size() % page == 0);
  for (VmOffset delta = 0; delta < args.data.size(); delta += page) {
    BackingKey key{object_port_id, args.offset + delta};
    uint32_t block;
    {
      std::lock_guard<std::mutex> g(store_mu_);
      auto it = blocks_.find(key);
      if (it != blocks_.end()) {
        block = it->second;
      } else {
        block = disk_->AllocBlock();
        if (block == UINT32_MAX) {
          MACH_LOG(kError) << "default pager: backing store full";
          return;
        }
        blocks_.emplace(key, block);
      }
    }
    if (!IsOk(disk_->WriteBlock(block, args.data.data() + delta))) {
      // The page's prior backing copy (if any) is still intact; the next
      // pageout of this page retries the write.
      backing_errors_.fetch_add(1, std::memory_order_relaxed);
      MACH_LOG(kWarn) << "default pager: backing write failed for block " << block;
      continue;
    }
    pageouts_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DefaultPager::OnPortDeath(uint64_t port_id) {
  // A request port died: the kernel released all references to the object;
  // free its backing store.
  uint64_t object_port_id = 0;
  {
    std::lock_guard<std::mutex> g(store_mu_);
    auto it = request_to_object_.find(port_id);
    if (it == request_to_object_.end()) {
      return;
    }
    object_port_id = it->second;
    request_to_object_.erase(it);
    for (auto bit = blocks_.begin(); bit != blocks_.end();) {
      if (bit->first.object_port_id == object_port_id) {
        disk_->FreeBlock(bit->second);
        bit = blocks_.erase(bit);
      } else {
        ++bit;
      }
    }
  }
  MACH_LOG(kDebug) << "default pager released storage for object " << object_port_id;
}

void DefaultPager::OnNoSenders(uint64_t object_port_id, uint64_t cookie) {
  // The kernel dropped its last send right (object termination, §3.4.1): no
  // pager_data_write can ever arrive for this object again, so both its
  // backing blocks and the adopted object port itself are garbage. Without
  // this, every kernel-created memory object leaks a port and its storage
  // for the life of the default pager.
  {
    std::lock_guard<std::mutex> g(store_mu_);
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      if (it->first.object_port_id == object_port_id) {
        disk_->FreeBlock(it->second);
        it = blocks_.erase(it);
      } else {
        ++it;
      }
    }
  }
  ReleaseMemoryObject(object_port_id);
  MACH_LOG(kDebug) << "default pager reclaimed senderless object " << object_port_id;
}

void DefaultPager::Park(uint64_t object_id, VmOffset offset, std::vector<std::byte> data) {
  std::lock_guard<std::mutex> g(store_mu_);
  parked_[BackingKey{object_id, offset}] = std::move(data);
}

std::optional<std::vector<std::byte>> DefaultPager::Unpark(uint64_t object_id, VmOffset offset) {
  std::lock_guard<std::mutex> g(store_mu_);
  auto it = parked_.find(BackingKey{object_id, offset});
  if (it == parked_.end()) {
    return std::nullopt;
  }
  std::vector<std::byte> data = std::move(it->second);
  parked_.erase(it);
  return data;
}

void DefaultPager::Discard(uint64_t object_id) {
  // Parked entries are keyed by the kernel's object id, not a port, so port
  // death never reaches them; the kernel calls this at object termination
  // (including shadow-chain collapse) to keep dead objects' parked data
  // from accumulating.
  std::lock_guard<std::mutex> g(store_mu_);
  for (auto it = parked_.begin(); it != parked_.end();) {
    it = it->first.object_port_id == object_id ? parked_.erase(it) : std::next(it);
  }
}

uint64_t DefaultPager::parked_count() const {
  std::lock_guard<std::mutex> g(store_mu_);
  return parked_.size();
}

size_t DefaultPager::managed_object_count() const {
  std::lock_guard<std::mutex> g(store_mu_);
  return request_to_object_.size();
}

}  // namespace mach
