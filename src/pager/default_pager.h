// The default pager (§6.2.2): the trusted data manager that provides backing
// storage for kernel-created memory objects — anonymous vm_allocate memory,
// copy-on-write shadow objects, and temporary pageout data. It speaks the
// same external interface as any other data manager ("there are no
// fundamental assumptions made about the nature of secondary storage"), plus
// the trusted parking side-store the kernel uses to divert pageouts away
// from errant managers.
//
// Storage is a SimDisk with one block per page, allocated lazily on the
// first pager_data_write for each (object, offset).

#ifndef SRC_PAGER_DEFAULT_PAGER_H_
#define SRC_PAGER_DEFAULT_PAGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/base/hash.h"
#include "src/hw/sim_disk.h"
#include "src/pager/data_manager.h"
#include "src/pager/parking.h"

namespace mach {

class DefaultPager : public DataManager, public TrustedParkingStore {
 public:
  // `disk` provides the backing store; its block size must equal the system
  // page size.
  explicit DefaultPager(SimDisk* disk);
  ~DefaultPager() override;

  // The port on which the kernel sends pager_create calls (§3.4.1); give
  // this to Kernel/VmSystem::SetDefaultPager.
  const SendRight& service_port() const { return service_port_; }

  // --- TrustedParkingStore (§6.2.2) --------------------------------------
  void Park(uint64_t object_id, VmOffset offset, std::vector<std::byte> data) override;
  std::optional<std::vector<std::byte>> Unpark(uint64_t object_id, VmOffset offset) override;
  void Discard(uint64_t object_id) override;

  // Statistics.
  // pager_data_request messages received (each may cover a run of pages).
  uint64_t request_count() const { return requests_.load(std::memory_order_relaxed); }
  uint64_t pagein_count() const { return pageins_.load(std::memory_order_relaxed); }
  uint64_t pageout_count() const { return pageouts_.load(std::memory_order_relaxed); }
  // Backing-store I/O failures (injected or bad-block). A failed read is
  // answered with pager_data_unavailable per §6.2.1.
  uint64_t backing_error_count() const { return backing_errors_.load(std::memory_order_relaxed); }
  uint64_t parked_count() const;
  size_t managed_object_count() const;

 protected:
  void OnCreate(uint64_t adopted_port_id, PagerCreateArgs args) override;
  void OnDataRequest(uint64_t object_port_id, uint64_t cookie, PagerDataRequestArgs args) override;
  void OnDataWrite(uint64_t object_port_id, uint64_t cookie, PagerDataWriteArgs args) override;
  void OnPortDeath(uint64_t port_id) override;
  void OnNoSenders(uint64_t object_port_id, uint64_t cookie) override;

 private:
  struct BackingKey {
    uint64_t object_port_id;
    VmOffset offset;
    bool operator==(const BackingKey& o) const {
      return object_port_id == o.object_port_id && offset == o.offset;
    }
  };
  struct BackingKeyHash {
    size_t operator()(const BackingKey& k) const {
      // Same clustering hazard as the kernel's resident-page table: both
      // fields are structured (small ids, page-aligned offsets), so mix
      // fully (see src/base/hash.h).
      return static_cast<size_t>(HashCombine64(k.object_port_id, k.offset));
    }
  };

  SimDisk* const disk_;
  SendRight service_port_;

  mutable std::mutex store_mu_;
  std::unordered_map<BackingKey, uint32_t, BackingKeyHash> blocks_;
  // Which object each request port belongs to, for shutdown on port death.
  std::unordered_map<uint64_t, uint64_t> request_to_object_;
  std::unordered_map<BackingKey, std::vector<std::byte>, BackingKeyHash> parked_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> pageins_{0};
  std::atomic<uint64_t> pageouts_{0};
  std::atomic<uint64_t> backing_errors_{0};
};

}  // namespace mach

#endif  // SRC_PAGER_DEFAULT_PAGER_H_
