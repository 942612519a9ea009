// Tests for the external memory management interface (§3.4): user-level data
// managers serving pager_data_request, lock/unlock negotiation, flush/clean,
// caching (pager_cache), object termination and port death, failure handling
// (§6), and multi-kernel mappings of one memory object.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/hw/sim_disk.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/pager/data_manager.h"
#include "src/pager/protocol.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

// A scriptable data manager for tests: serves pages from an in-memory store,
// stamped with the page offset when the store has no explicit contents.
class TestPager : public DataManager {
 public:
  enum class Mode {
    kProvide,       // Normal: answer with data.
    kUnavailable,   // Answer pager_data_unavailable.
    kSilent,        // Never answer (errant manager, §6.1).
    kManual,        // Park requests; AnswerPending() serves them later.
  };

  TestPager() : DataManager("test-pager") {}

  Mode mode = Mode::kProvide;
  VmProt provide_lock = kVmProtNone;  // lock_value for pager_data_provided.
  std::atomic<bool> auto_unlock{true};

  SendRight NewObject() { return CreateMemoryObject(++next_cookie_); }

  // Pre-load explicit contents for a page.
  void SetPage(VmOffset offset, uint8_t fill) {
    std::lock_guard<std::mutex> g(mu_);
    store_[offset] = fill;
  }

  // --- observation ------------------------------------------------------
  int init_count() const { return init_count_.load(); }
  int request_count() const { return request_count_.load(); }
  int write_count() const { return write_count_.load(); }
  int unlock_count() const { return unlock_count_.load(); }
  int death_count() const { return death_count_.load(); }
  int no_senders_count() const { return no_senders_count_.load(); }
  uint64_t last_no_senders_cookie() const { return last_no_senders_cookie_.load(); }
  // Sequence stamps for ordering assertions (0 = never happened).
  int no_senders_seq() const { return no_senders_seq_.load(); }
  int death_seq() const { return death_seq_.load(); }

  std::vector<SendRight> request_ports() const {
    std::lock_guard<std::mutex> g(mu_);
    return request_ports_;
  }
  SendRight last_request_port() const {
    std::lock_guard<std::mutex> g(mu_);
    return request_ports_.empty() ? SendRight() : request_ports_.back();
  }
  std::vector<std::byte> last_write_data() const {
    std::lock_guard<std::mutex> g(mu_);
    return last_write_data_;
  }
  VmOffset last_write_offset() const {
    std::lock_guard<std::mutex> g(mu_);
    return last_write_offset_;
  }

  int pending_count() const {
    std::lock_guard<std::mutex> g(mu_);
    return static_cast<int>(pending_.size());
  }
  // Serve every request parked by Mode::kManual, resolving their busy pages.
  void AnswerPending() {
    std::vector<PagerDataRequestArgs> pending;
    {
      std::lock_guard<std::mutex> g(mu_);
      pending.swap(pending_);
    }
    for (PagerDataRequestArgs& req : pending) {
      Provide(req);
    }
  }

  bool WaitForWrites(int n, Timeout timeout = std::chrono::milliseconds(5000)) {
    auto deadline = std::chrono::steady_clock::now() + *timeout;
    while (write_count() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }
  bool WaitForDeaths(int n) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (death_count() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }
  bool WaitForNoSenders(int n) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (no_senders_count() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  // Expected page contents for verification.
  static uint64_t Stamp(VmOffset offset) { return 0xDA7A000000000000ull + offset; }

 protected:
  void OnInit(uint64_t object_port_id, uint64_t cookie, PagerInitArgs args) override {
    init_count_.fetch_add(1);
    std::lock_guard<std::mutex> g(mu_);
    request_ports_.push_back(args.pager_request_port);
  }

  void OnDataRequest(uint64_t object_port_id, uint64_t cookie,
                     PagerDataRequestArgs args) override {
    request_count_.fetch_add(1);
    switch (mode) {
      case Mode::kSilent:
        return;
      case Mode::kUnavailable:
        DataUnavailable(args.pager_request_port, args.offset, args.length);
        return;
      case Mode::kManual: {
        std::lock_guard<std::mutex> g(mu_);
        pending_.push_back(std::move(args));
        return;
      }
      case Mode::kProvide:
        Provide(args);
        return;
    }
  }

  void Provide(const PagerDataRequestArgs& args) {
    std::vector<std::byte> data(args.length);
    {
      std::lock_guard<std::mutex> g(mu_);
      auto it = store_.find(args.offset);
      if (it != store_.end()) {
        std::memset(data.data(), it->second, data.size());
      } else {
        uint64_t stamp = Stamp(args.offset);
        std::memcpy(data.data(), &stamp, sizeof(stamp));
      }
    }
    ProvideData(args.pager_request_port, args.offset, std::move(data), provide_lock);
  }

  void OnDataWrite(uint64_t object_port_id, uint64_t cookie, PagerDataWriteArgs args) override {
    write_count_.fetch_add(1);
    std::lock_guard<std::mutex> g(mu_);
    last_write_offset_ = args.offset;
    last_write_data_ = args.data;
  }

  void OnDataUnlock(uint64_t object_port_id, uint64_t cookie,
                    PagerDataUnlockArgs args) override {
    unlock_count_.fetch_add(1);
    if (auto_unlock.load()) {
      LockData(args.pager_request_port, args.offset, args.length, kVmProtNone);
    }
  }

  void OnPortDeath(uint64_t port_id) override {
    death_count_.fetch_add(1);
    death_seq_.store(seq_.fetch_add(1) + 1);
  }

  void OnNoSenders(uint64_t object_port_id, uint64_t cookie) override {
    no_senders_count_.fetch_add(1);
    last_no_senders_cookie_.store(cookie);
    no_senders_seq_.store(seq_.fetch_add(1) + 1);
  }

 private:
  mutable std::mutex mu_;
  uint64_t next_cookie_ = 0;
  std::map<VmOffset, uint8_t> store_;
  std::vector<SendRight> request_ports_;
  std::vector<PagerDataRequestArgs> pending_;
  std::vector<std::byte> last_write_data_;
  VmOffset last_write_offset_ = 0;
  std::atomic<int> init_count_{0};
  std::atomic<int> request_count_{0};
  std::atomic<int> write_count_{0};
  std::atomic<int> unlock_count_{0};
  std::atomic<int> death_count_{0};
  std::atomic<int> no_senders_count_{0};
  std::atomic<uint64_t> last_no_senders_cookie_{0};
  std::atomic<int> seq_{0};
  std::atomic<int> no_senders_seq_{0};
  std::atomic<int> death_seq_{0};
};

class ExternalPagerTest : public ::testing::Test {
 protected:
  ExternalPagerTest() {
    Kernel::Config config;
    config.frames = 64;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    config.vm.pager_timeout = std::chrono::milliseconds(500);
    kernel_ = std::make_unique<Kernel>(config);
    task_ = kernel_->CreateTask();
    pager_.Start();
  }
  ~ExternalPagerTest() override {
    task_.reset();
    pager_.Stop();
  }

  std::unique_ptr<Kernel> kernel_;
  std::shared_ptr<Task> task_;
  TestPager pager_;
};

TEST_F(ExternalPagerTest, MapObjectSendsPagerInit) {
  SendRight object = pager_.NewObject();
  Result<VmOffset> addr = task_->VmAllocateWithPager(4 * kPage, object, 0);
  ASSERT_TRUE(addr.ok());
  // pager_init arrives with request and name ports (§3.4.1).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (pager_.init_count() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(pager_.init_count(), 1);
  EXPECT_TRUE(pager_.last_request_port().valid());
}

TEST_F(ExternalPagerTest, FaultFetchesDataFromManager) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(4 * kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr + 2 * kPage, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, TestPager::Stamp(2 * kPage));
  EXPECT_GE(pager_.request_count(), 1);
}

TEST_F(ExternalPagerTest, MappingOffsetIsHonoured) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(2 * kPage, object, 8 * kPage).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, TestPager::Stamp(8 * kPage));
}

TEST_F(ExternalPagerTest, UnalignedObjectOffsetRejected) {
  SendRight object = pager_.NewObject();
  EXPECT_EQ(task_->VmAllocateWithPager(kPage, object, 100).status(),
            KernReturn::kInvalidArgument);
}

TEST_F(ExternalPagerTest, ResidentPagesDoNotReRequest) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  int requests = pager_.request_count();
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  }
  EXPECT_EQ(pager_.request_count(), requests);  // Cache hits, no traffic (§9).
}

TEST_F(ExternalPagerTest, DataUnavailableZeroFills) {
  pager_.mode = TestPager::Mode::kUnavailable;
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0xFF;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0u);
}

TEST_F(ExternalPagerTest, SilentManagerTimesOutWithError) {
  pager_.mode = TestPager::Mode::kSilent;
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0;
  // §6.2.1: timeout aborts the memory request.
  EXPECT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kMemoryFailure);
}

TEST_F(ExternalPagerTest, SharedMappingWithinKernel) {
  // Footnote 7: mapping the same memory object in two tasks yields
  // read/write shared access to the object, not a copy.
  SendRight object = pager_.NewObject();
  std::shared_ptr<Task> other = kernel_->CreateTask();
  VmOffset a1 = task_->VmAllocateWithPager(kPage, object, 0).value();
  VmOffset a2 = other->VmAllocateWithPager(kPage, object, 0).value();
  uint32_t v = 0x12344321;
  ASSERT_EQ(task_->Write(a1, &v, sizeof(v)), KernReturn::kSuccess);
  uint32_t out = 0;
  ASSERT_EQ(other->Read(a2, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, v);
  // Only one pager_init: one kernel, one object (§3.4.1).
  EXPECT_EQ(pager_.init_count(), 1);
}

TEST_F(ExternalPagerTest, TwoKernelsEachGetInitAndRequestPorts) {
  // "If a memory object is mapped into the address space of more than one
  // task on different hosts, the data manager will receive an initialization
  // call from each kernel" (§3.4.1).
  Kernel::Config config;
  config.frames = 64;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel2(config);
  std::shared_ptr<Task> remote = kernel2.CreateTask();

  SendRight object = pager_.NewObject();
  VmOffset a1 = task_->VmAllocateWithPager(kPage, object, 0).value();
  VmOffset a2 = remote->VmAllocateWithPager(kPage, object, 0).value();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (pager_.init_count() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(pager_.init_count(), 2);
  std::vector<SendRight> ports = pager_.request_ports();
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_NE(ports[0].id(), ports[1].id());  // Distinct per-kernel request ports.

  // Both kernels read the same data.
  uint64_t o1 = 0, o2 = 0;
  ASSERT_EQ(task_->Read(a1, &o1, sizeof(o1)), KernReturn::kSuccess);
  ASSERT_EQ(remote->Read(a2, &o2, sizeof(o2)), KernReturn::kSuccess);
  EXPECT_EQ(o1, o2);
  remote.reset();
}

TEST_F(ExternalPagerTest, DirtyEvictionSendsDataWrite) {
  SendRight object = pager_.NewObject();
  // Map more pager-backed pages than physical memory and dirty them all.
  constexpr VmSize kPages = 96;
  VmOffset addr = task_->VmAllocateWithPager(kPages * kPage, object, 0).value();
  for (VmOffset p = 0; p < kPages; ++p) {
    uint64_t v = 0xBEEF000000000000ull + p;
    ASSERT_EQ(task_->Write(addr + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  EXPECT_TRUE(pager_.WaitForWrites(1));
  EXPECT_GT(pager_.write_count(), 0);
  // Clustered pageout: each pager_data_write carries one contiguous run of
  // dirty pages — a whole number of pages, never a partial one.
  ASSERT_GT(pager_.last_write_data().size(), 0u);
  EXPECT_EQ(pager_.last_write_data().size() % kPage, 0u);
}

TEST_F(ExternalPagerTest, FlushRequestWritesBackAndInvalidates) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint32_t v = 0x600D;
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  int requests_before = pager_.request_count();

  // Manager forces invalidation (pager_flush_request).
  ASSERT_EQ(DataManager::FlushRequest(pager_.last_request_port(), 0, kPage),
            KernReturn::kSuccess);
  ASSERT_TRUE(pager_.WaitForWrites(1));
  // The dirty data was written back first (§3.4.1).
  uint32_t written = 0;
  std::memcpy(&written, pager_.last_write_data().data(), sizeof(written));
  EXPECT_EQ(written, 0x600Du);

  // Next access re-requests from the manager.
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_GT(pager_.request_count(), requests_before);
}

TEST_F(ExternalPagerTest, FlushRunSplitsAtBusyPage) {
  // A page whose data is in transit (busy placeholder) must never be
  // swept into a clustered write-back run: its frame holds no data yet.
  // The same guard covers pinned pages — both are rejected at victim
  // collection, so a busy page in the middle of a dirty range splits the
  // range into two runs around it. The busy window is held open
  // explicitly (Mode::kManual + a long pager timeout), not by racing a
  // wall clock.
  Kernel::Config config;
  config.frames = 64;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.pager_timeout = std::chrono::seconds(60);
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  SendRight object = pager_.NewObject();
  VmOffset addr = task->VmAllocateWithPager(5 * kPage, object, 0).value();
  std::vector<std::byte> warm(5 * kPage);
  ASSERT_EQ(task->Read(addr, warm.data(), warm.size()), KernReturn::kSuccess);

  // Dirty page 2 and evict it; the write-back confirms the (async)
  // eviction completed before the re-fault below.
  uint64_t marker = 0xB052'2222ull;
  ASSERT_EQ(task->Write(addr + 2 * kPage, &marker, sizeof(marker)), KernReturn::kSuccess);
  int writes_before = pager_.write_count();
  ASSERT_EQ(DataManager::FlushRequest(pager_.last_request_port(), 2 * kPage, kPage),
            KernReturn::kSuccess);
  ASSERT_TRUE(pager_.WaitForWrites(writes_before + 1));

  // Re-fault page 2 with the manager parking requests: the fault installs
  // a busy placeholder and blocks until AnswerPending() below.
  pager_.mode = TestPager::Mode::kManual;
  std::thread faulter([&] {
    uint64_t v = 0;
    task->Read(addr + 2 * kPage, &v, sizeof(v));
  });
  while (pager_.pending_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (VmOffset p : {0, 1, 3, 4}) {
    uint64_t v = 0xB052'0000ull + p;
    ASSERT_EQ(task->Write(addr + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  writes_before = pager_.write_count();
  ASSERT_EQ(DataManager::FlushRequest(pager_.last_request_port(), 0, 5 * kPage),
            KernReturn::kSuccess);
  // Two runs — [0,2) and [3,5) — not one five-page (or four-page) message.
  ASSERT_TRUE(pager_.WaitForWrites(writes_before + 2));
  EXPECT_EQ(pager_.write_count(), writes_before + 2);
  EXPECT_EQ(pager_.last_write_offset(), 3 * kPage);
  EXPECT_EQ(pager_.last_write_data().size(), 2 * kPage);

  pager_.mode = TestPager::Mode::kProvide;
  pager_.AnswerPending();
  faulter.join();
}

TEST_F(ExternalPagerTest, CleanRequestWritesBackButKeepsCache) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint32_t v = 0xC1EA;
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  int requests_before = pager_.request_count();

  ASSERT_EQ(DataManager::CleanRequest(pager_.last_request_port(), 0, kPage),
            KernReturn::kSuccess);
  ASSERT_TRUE(pager_.WaitForWrites(1));

  // Data still cached: access needs no new request.
  uint32_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0xC1EAu);
  EXPECT_EQ(pager_.request_count(), requests_before);
}

TEST_F(ExternalPagerTest, ProvidedLockValueBlocksWriteUntilUnlock) {
  // The shared-memory pattern of §4.2: data provided write-locked; a write
  // fault triggers pager_data_unlock; the manager grants the lock change.
  pager_.provide_lock = kVmProtWrite;
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);  // Read is fine.
  uint32_t v = 7;
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);  // Triggers unlock.
  EXPECT_GE(pager_.unlock_count(), 1);
}

TEST_F(ExternalPagerTest, UnansweredUnlockTimesOut) {
  pager_.provide_lock = kVmProtWrite;
  pager_.auto_unlock = false;
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  uint32_t v = 7;
  EXPECT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kMemoryFailure);
}

TEST_F(ExternalPagerTest, DataLockStripsExistingWriteAccess) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint32_t v = 1;
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  // Manager restricts writes (pager_data_lock).
  ASSERT_EQ(DataManager::LockData(pager_.last_request_port(), 0, kPage, kVmProtWrite),
            KernReturn::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Next write must renegotiate (auto_unlock answers it).
  int unlocks_before = pager_.unlock_count();
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_GT(pager_.unlock_count(), unlocks_before);
}

TEST_F(ExternalPagerTest, ObjectTerminationNotifiesManager) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  ASSERT_EQ(task_->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  // All references gone; the kernel deallocates its port rights and the
  // manager observes request-port death (§3.4.1, §4.1).
  EXPECT_TRUE(pager_.WaitForDeaths(1));
}

TEST_F(ExternalPagerTest, DroppingLastSendRightFiresNoSendersUpcall) {
  // The manager holds only the receive right; the test's send right is the
  // sole sender. Dropping it must surface as an OnNoSenders upcall carrying
  // the object's cookie, via the trusted notify port.
  SendRight object = pager_.NewObject();
  uint64_t cookie = 0;
  ASSERT_TRUE(pager_.LookupCookie(object.id(), &cookie));
  object = SendRight();
  EXPECT_TRUE(pager_.WaitForNoSenders(1));
  EXPECT_EQ(pager_.last_no_senders_cookie(), cookie);
  // Advisory by default: the object is still live in the manager.
  EXPECT_EQ(pager_.memory_object_count(), 1u);
}

TEST_F(ExternalPagerTest, ObjectTerminationFiresNoSendersBeforeRequestPortDeath) {
  // Once the client also drops its send right, kernel object termination is
  // the moment the object becomes senderless. The kernel drops its pager
  // send right before destroying the request port, so the manager hears
  // no-senders (reclaim storage) before port death (confirmation).
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  object = SendRight();  // The kernel now holds the only send right.
  EXPECT_EQ(pager_.no_senders_count(), 0);
  ASSERT_EQ(task_->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  EXPECT_TRUE(pager_.WaitForNoSenders(1));
  EXPECT_TRUE(pager_.WaitForDeaths(1));
  EXPECT_GT(pager_.no_senders_seq(), 0);
  EXPECT_LT(pager_.no_senders_seq(), pager_.death_seq());
}

TEST_F(ExternalPagerTest, PagerCacheRetainsObjectAcrossMappings) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  // Manager permits caching (pager_cache).
  ASSERT_EQ(DataManager::SetCaching(pager_.last_request_port(), true), KernReturn::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  int requests_before = pager_.request_count();
  ASSERT_EQ(task_->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  EXPECT_EQ(pager_.death_count(), 0);  // Object survives in the cache.

  // Re-map: the cached data is immediately available — no pager_init, no
  // pager_data_request (the §9 performance mechanism).
  VmOffset addr2 = task_->VmAllocateWithPager(kPage, object, 0).value();
  ASSERT_EQ(task_->Read(addr2, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, TestPager::Stamp(0));
  EXPECT_EQ(pager_.request_count(), requests_before);
  EXPECT_EQ(pager_.init_count(), 1);
}

TEST_F(ExternalPagerTest, RescindingCacheTerminatesIdleObject) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  ASSERT_EQ(DataManager::SetCaching(pager_.last_request_port(), true), KernReturn::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(task_->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  ASSERT_EQ(pager_.death_count(), 0);
  // "A data manager may later rescind its permission to cache" (§3.4.1).
  ASSERT_EQ(DataManager::SetCaching(pager_.last_request_port(), false), KernReturn::kSuccess);
  EXPECT_TRUE(pager_.WaitForDeaths(1));
}

TEST_F(ExternalPagerTest, TrimObjectCacheReclaims) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  ASSERT_EQ(DataManager::SetCaching(pager_.last_request_port(), true), KernReturn::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(task_->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  size_t objects_before = kernel_->vm().object_count();
  EXPECT_GE(objects_before, 1u);
  // The kernel "may choose to relinquish its access ... as it deems
  // necessary for its cache management" — here, once pages are gone.
  // Force the pages out first by flushing.
  ASSERT_EQ(DataManager::FlushRequest(pager_.last_request_port(), 0, kPage),
            KernReturn::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  kernel_->vm().TrimObjectCache();
  EXPECT_LT(kernel_->vm().object_count(), objects_before);
  EXPECT_TRUE(pager_.WaitForDeaths(1));
}

TEST_F(ExternalPagerTest, PagerDeathOfCachedObjectFreesItsPages) {
  // A §3.4.1 cache entry is kept alive only by the kernel's pager
  // registries. When its manager dies under the zero-fill policy, the
  // object must be terminated outright — severing the registries (the
  // live-object path) would drop the last reference while its pages are
  // still resident, dangling them until kernel teardown.
  Kernel::Config config;
  config.frames = 64;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  const uint64_t free_baseline = kernel.phys().free_frames();
  SendRight object = pager_.NewObject();
  VmOffset addr = task->VmAllocateWithPager(2 * kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  ASSERT_EQ(task->Read(addr + kPage, &out, sizeof(out)), KernReturn::kSuccess);
  ASSERT_EQ(DataManager::SetCaching(pager_.last_request_port(), true), KernReturn::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(task->VmDeallocate(addr, 2 * kPage), KernReturn::kSuccess);
  EXPECT_LT(kernel.phys().free_frames(), free_baseline);  // Cached pages resident.

  pager_.DestroyMemoryObject(object);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (kernel.phys().free_frames() < free_baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(kernel.phys().free_frames(), free_baseline);
  EXPECT_EQ(kernel.vm().object_count(), 0u);
}

TEST_F(ExternalPagerTest, ManagerDeathFailsFaults) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(2 * kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  // The manager destroys the memory object port (§6.2.1 destruction).
  pager_.DestroyMemoryObject(object);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Resident page still readable; non-resident page fails.
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(task_->Read(addr + kPage, &out, sizeof(out)), KernReturn::kMemoryFailure);
}

class ZeroFillPolicyTest : public ::testing::Test {};

TEST_F(ZeroFillPolicyTest, SilentManagerZeroFillsUnderPolicy) {
  // §6.2.1: "Aborting a memory request after a timeout may involve providing
  // (zero-filled) memory backed by the default pager."
  Kernel::Config config;
  config.frames = 64;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.pager_timeout = std::chrono::milliseconds(300);
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  TestPager pager;
  pager.mode = TestPager::Mode::kSilent;
  pager.Start();
  SendRight object = pager.NewObject();
  VmOffset addr = task->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0xFF;
  EXPECT_EQ(task->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0u);
  task.reset();
  pager.Stop();
}

class DefaultPagerReclaimTest : public ::testing::Test {};

TEST_F(DefaultPagerReclaimTest, TerminatedAnonymousObjectsAreReclaimed) {
  // Anonymous memory is handed to the default pager via pager_create on its
  // first dirty pageout. When the region is deallocated and the kernel
  // terminates the object, the no-senders notification lets the default
  // pager drop the adopted port and its backing blocks — without it, every
  // kernel-created object leaks in the default pager forever.
  Kernel::Config config;
  config.frames = 16;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  size_t baseline = kernel.default_pager().memory_object_count();

  constexpr VmSize kPages = 32;
  VmOffset addr = task->VmAllocate(kPages * kPage).value();
  for (VmOffset p = 0; p < kPages; ++p) {
    uint64_t v = 0xABCD000000000000ull + p;
    ASSERT_EQ(task->Write(addr + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  // Dirtying 2x physical memory forced pageouts, so the default pager
  // adopted at least one kernel-created object.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (kernel.default_pager().memory_object_count() <= baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(kernel.default_pager().memory_object_count(), baseline);

  ASSERT_EQ(task->VmDeallocate(addr, kPages * kPage), KernReturn::kSuccess);
  task.reset();
  while (kernel.default_pager().memory_object_count() > baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(kernel.default_pager().memory_object_count(), baseline);
}

class ErrantManagerTest : public ::testing::Test {};

TEST_F(ErrantManagerTest, UnresponsiveManagerDirtyPagesParkWithDefaultPager) {
  // §6.2.2: dirty pages of an errant manager divert to the default pager so
  // the kernel is never starved: "If the data manager does not process and
  // release the data within an adequate period of time, the data may then be
  // paged out to the default pager."
  Kernel::Config config;
  config.frames = 32;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.errant_manager_protection = true;
  config.vm.pager_timeout = std::chrono::milliseconds(300);
  // §6.2.1: aborted memory requests substitute zero-filled memory backed by
  // the default pager, so a dead manager cannot fail user writes.
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  TestPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  // Tiny queue so pageout's non-blocking sends fail fast once the manager
  // stops draining.
  object.port()->SetBacklog(1);

  constexpr VmSize kPages = 80;
  VmOffset addr = task->VmAllocateWithPager(kPages * kPage, object, 0).value();
  // Populate all pages while the manager is alive.
  for (VmOffset p = 0; p < kPages; ++p) {
    uint64_t v = 0;
    ASSERT_EQ(task->Read(addr + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  pager.Stop();  // Now errant: nothing drains its (size 1) queue.

  // LIVENESS: dirtying 2.5x physical memory must still complete, because
  // pageout keeps making progress by parking with the default pager.
  for (VmOffset p = 0; p < kPages; ++p) {
    uint64_t v = 0xFEED000000000000ull + p;
    ASSERT_EQ(task->Write(addr + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  VmStatistics st = kernel.vm().Statistics();
  EXPECT_GT(st.parked_pageouts, 0u);

  // DURABILITY: every written page is dirty, so evictions were parked with
  // the default pager and reads serve them back without consulting the dead
  // manager.
  for (VmOffset p = 0; p < kPages; ++p) {
    uint64_t out = 0;
    ASSERT_EQ(task->Read(addr + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
    ASSERT_EQ(out, 0xFEED000000000000ull + p) << "page " << p;
  }
  task.reset();
}

// --- fault-ahead over the pager protocol -------------------------------------

// Answers every (possibly multi-page) request with only its first page: the
// kernel must settle the provided prefix and free the unanswered remainder.
class PrefixProvidingPager : public DataManager {
 public:
  PrefixProvidingPager() : DataManager("prefix-pager") {}
  SendRight NewObject() { return CreateMemoryObject(1); }
  std::vector<std::pair<VmOffset, VmSize>> requests() const {
    std::lock_guard<std::mutex> g(mu_);
    return requests_;
  }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    {
      std::lock_guard<std::mutex> g(mu_);
      requests_.emplace_back(args.offset, args.length);
    }
    std::vector<std::byte> data(kPage);
    uint64_t stamp = TestPager::Stamp(args.offset);
    std::memcpy(data.data(), &stamp, sizeof(stamp));
    ProvideData(args.pager_request_port, args.offset, std::move(data), kVmProtNone);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<VmOffset, VmSize>> requests_;
};

TEST(FaultAheadPagerTest, PartialProvideSettlesThePrefixAndFreesTheRest) {
  Kernel::Config config;
  config.frames = 64;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.fault_ahead_max = 4;
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  PrefixProvidingPager pager;
  pager.Start();
  VmOffset addr = task->VmAllocateWithPager(8 * kPage, pager.NewObject(), 0).value();

  uint64_t out = 0;
  for (VmOffset p = 0; p < 4; ++p) {
    ASSERT_EQ(task->Read(addr + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
    EXPECT_EQ(out, TestPager::Stamp(p * kPage)) << "page " << p;
  }
  // Page 1's fault opened a 2-page window; only page 1 came back, so its
  // speculative neighbour was freed and page 2 re-faulted on demand as a
  // fresh request (the detector reads the truncated run as random access).
  const std::vector<std::pair<VmOffset, VmSize>> expect = {
      {0 * kPage, 1 * kPage},
      {1 * kPage, 2 * kPage},
      {2 * kPage, 1 * kPage},
      {3 * kPage, 2 * kPage}};
  EXPECT_EQ(pager.requests(), expect);
  // The unanswered placeholders (behind pages 1 and 3) were freed with
  // their speculation unconsumed — the waste counter owns up to both.
  VmStatistics st = kernel.vm().Statistics();
  EXPECT_EQ(st.fault_ahead_requests, 2u);
  EXPECT_EQ(st.fault_ahead_pages, 2u);
  EXPECT_EQ(st.fault_ahead_unused, 2u);
  task.reset();
  pager.Stop();
}

// --- wire validation of pager_data_request -----------------------------------

TEST(PagerProtocolValidationTest, DecoderRejectsMalformedRunLengths) {
  PortPair pair = PortAllocate("validator");
  auto make = [&](VmSize length) {
    PagerDataRequestArgs args;
    args.pager_request_port = pair.send;
    args.offset = 0;
    args.length = length;
    args.desired_access = kVmProtRead;
    return EncodePagerDataRequest(args);
  };
  {
    Message msg = make(kPage);
    EXPECT_TRUE(DecodePagerDataRequest(msg, kPage).ok());
  }
  {
    Message msg = make(kPagerMaxRunPages * kPage);  // Largest legal run.
    EXPECT_TRUE(DecodePagerDataRequest(msg, kPage).ok());
  }
  {
    Message msg = make(kPage + 17);  // Not a page multiple.
    EXPECT_EQ(DecodePagerDataRequest(msg, kPage).status(),
              KernReturn::kProtocolViolation);
  }
  {
    Message msg = make((kPagerMaxRunPages + 1) * kPage);  // Beyond the cap.
    EXPECT_EQ(DecodePagerDataRequest(msg, kPage).status(),
              KernReturn::kProtocolViolation);
  }
  {
    // Zero length, hand-built: the encoder itself refuses to emit one.
    Message msg(kMsgPagerDataRequest);
    msg.PushPort(pair.send);
    msg.PushU64(0);
    msg.PushU64(0);
    msg.PushU32(kVmProtRead);
    EXPECT_EQ(DecodePagerDataRequest(msg, kPage).status(),
              KernReturn::kProtocolViolation);
  }
  {
    // Page size unknown (request racing ahead of pager_init): only the
    // zero-length check applies.
    Message msg = make(kPage + 17);
    EXPECT_TRUE(DecodePagerDataRequest(msg, 0).ok());
  }
}

TEST_F(ExternalPagerTest, ForgedOversizeDataRequestIsRejectedAtTheWire) {
  SendRight object = pager_.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  const int requests_before = pager_.request_count();

  // Any send-right holder can put a message on the object port; a forged
  // request claiming an over-limit run must be dropped by the dispatcher's
  // validator and never reach OnDataRequest.
  PagerDataRequestArgs forged;
  forged.pager_request_port = pager_.last_request_port();
  forged.offset = 0;
  forged.length = (kPagerMaxRunPages + 1) * kPage;
  forged.desired_access = kVmProtRead;
  ASSERT_EQ(MsgSend(object, EncodePagerDataRequest(forged)), KernReturn::kSuccess);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pager_.protocol_rejects() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(pager_.protocol_rejects(), 1u);
  EXPECT_EQ(pager_.request_count(), requests_before);
}

// --- early exits of the fault path --------------------------------------------
//
// Each case leaves a fault holding a placeholder page that it must free or
// settle on the way out. Every test checks the fault's verdict and that the
// kernel's free frames return to their baseline once the mappings are gone:
// a leaked placeholder, or a page left pinned, keeps its frame.

// Waits (bounded) until `kernel` has exactly `want` free frames.
bool FramesReturnTo(Kernel& kernel, uint32_t want) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (kernel.phys().free_frames() != want) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// A memory object whose manager is the test itself: kernel messages queue on
// a raw port that nothing drains unless the test does, so the test decides
// when a kernel send blocks or fails and when a faulter gets its answer.
class FaultExitTest : public ::testing::Test {
 protected:
  void Boot(VmSystem::Config::OnPagerTimeout policy = VmSystem::Config::OnPagerTimeout::kError) {
    Kernel::Config config;
    config.frames = 64;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    config.vm.pager_timeout = std::chrono::milliseconds(300);
    config.vm.on_pager_timeout = policy;
    kernel_ = std::make_unique<Kernel>(config);
    task_ = kernel_->CreateTask();
    baseline_ = kernel_->phys().free_frames();
  }
  ~FaultExitTest() override { task_.reset(); }

  // Maps a one-page object managed through `object_`. With `full_queue` the
  // port holds a single message and pager_init is left in it, so every
  // later kernel send to the manager blocks until its timeout.
  VmOffset MapManualObject(bool full_queue) {
    object_ = PortAllocate("manual-object");
    if (full_queue) {
      object_.receive.port()->SetBacklog(1);
    }
    VmOffset addr = task_->VmAllocateWithPager(kPage, object_.send, 0).value();
    if (!full_queue) {
      Message init = Receive(kMsgPagerInit);
      Result<PagerInitArgs> args = DecodePagerInit(init);
      EXPECT_TRUE(args.ok());
      if (args.ok()) {
        request_port_ = args.value().pager_request_port;
      }
    }
    return addr;
  }

  // The next message on the object port, which must carry `id`.
  Message Receive(MsgId id) {
    Result<Message> msg = MsgReceive(object_.receive, std::chrono::seconds(5));
    EXPECT_TRUE(msg.ok());
    if (!msg.ok()) {
      return Message();
    }
    EXPECT_EQ(msg.value().id(), id);
    return std::move(msg.value());
  }

  std::unique_ptr<Kernel> kernel_;
  std::shared_ptr<Task> task_;
  uint32_t baseline_ = 0;
  PortPair object_;
  SendRight request_port_;
};

TEST_F(FaultExitTest, DataRequestThatCannotBeSentFailsTheFault) {
  Boot();
  VmOffset addr = MapManualObject(/*full_queue=*/true);
  uint64_t out = 0;
  EXPECT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kMemoryFailure);
  EXPECT_EQ(kernel_->phys().free_frames(), baseline_);
}

TEST_F(FaultExitTest, DataRequestThatCannotBeSentZeroFillsUnderPolicy) {
  Boot(VmSystem::Config::OnPagerTimeout::kZeroFill);
  VmOffset addr = MapManualObject(/*full_queue=*/true);
  uint64_t out = 0xFF;
  EXPECT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0u);
  task_.reset();
  EXPECT_TRUE(FramesReturnTo(*kernel_, baseline_));
}

TEST_F(FaultExitTest, ObjectDeathDuringTheSendFreesThePlaceholder) {
  Boot();
  VmOffset addr = MapManualObject(/*full_queue=*/true);
  KernReturn verdict = KernReturn::kSuccess;
  std::thread faulter([&] {
    uint64_t out = 0;
    verdict = task_->Read(addr, &out, sizeof(out));
  });
  // The placeholder's frame is taken under the object lock, which the
  // faulter keeps until it blocks in the send: the termination below can
  // only run while the send is in flight.
  EXPECT_TRUE(FramesReturnTo(*kernel_, baseline_ - 1));
  EXPECT_EQ(task_->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  faulter.join();
  EXPECT_EQ(verdict, KernReturn::kMemoryFailure);
  EXPECT_EQ(kernel_->phys().free_frames(), baseline_);
}

TEST_F(FaultExitTest, ObjectDeathWhileWaitingFreesThePlaceholder) {
  Boot();
  VmOffset addr = MapManualObject(/*full_queue=*/false);
  KernReturn verdict = KernReturn::kSuccess;
  std::thread faulter([&] {
    uint64_t out = 0;
    verdict = task_->Read(addr, &out, sizeof(out));
  });
  Receive(kMsgPagerDataRequest);  // Sent; the faulter now waits for data.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(task_->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  faulter.join();
  EXPECT_EQ(verdict, KernReturn::kMemoryFailure);
  EXPECT_EQ(kernel_->phys().free_frames(), baseline_);
}

TEST_F(FaultExitTest, UnlockRequestThatCannotBeSentFailsTheWrite) {
  Boot();
  VmOffset addr = MapManualObject(/*full_queue=*/false);
  // Page 0 arrives unsolicited, locked against writing.
  PagerDataProvidedArgs data;
  data.data.assign(kPage, std::byte{7});
  data.lock_value = kVmProtWrite;
  ASSERT_EQ(MsgSend(request_port_, EncodePagerDataProvided(data)), KernReturn::kSuccess);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (kernel_->vm().Statistics().pageins == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(kernel_->vm().Statistics().pageins, 1u);
  // Fill the manager's port: the unlock request can never be queued.
  object_.receive.port()->SetBacklog(1);
  ASSERT_EQ(MsgSend(object_.send, Message(kMsgPagerInit)), KernReturn::kSuccess);
  const uint64_t v = 1;
  EXPECT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kMemoryFailure);
  uint8_t byte = 0;
  EXPECT_EQ(task_->Read(addr, &byte, 1), KernReturn::kSuccess);
  EXPECT_EQ(byte, 7);
  task_.reset();
  EXPECT_TRUE(FramesReturnTo(*kernel_, baseline_));
}

TEST_F(ExternalPagerTest, VmWriteWaitsOutAManagerLock) {
  const uint32_t baseline = kernel_->phys().free_frames();
  pager_.provide_lock = kVmProtWrite;
  VmOffset addr = task_->VmAllocateWithPager(kPage, pager_.NewObject(), 0).value();
  const uint64_t v = 0x5157;
  ASSERT_EQ(task_->VmWrite(addr, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_EQ(pager_.unlock_count(), 1);
  EXPECT_EQ(task_->ReadValue<uint64_t>(addr).value(), v);
  task_.reset();
  EXPECT_TRUE(FramesReturnTo(*kernel_, baseline));
}

// A copy-on-write child over an external manager's page, whose private copy
// went to the default pager and cannot be read back (every paging-disk read
// fails): the default pager answers pager_data_unavailable, so the fault
// must rebuild the page from the shadow, faulting it in from the manager.
class UnavailableOverShadowTest : public ::testing::Test {
 protected:
  UnavailableOverShadowTest() {
    faults_.SetProbability(SimDisk::kFaultRead, 1.0);
    Kernel::Config config;
    config.frames = 32;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    config.fault_injector = &faults_;
    config.vm.pager_timeout = std::chrono::milliseconds(500);
    kernel_ = std::make_unique<Kernel>(config);
    baseline_ = kernel_->phys().free_frames();
    pager_.Start();
    parent_ = kernel_->CreateTask(nullptr, "parent");
    // Two pages, so the child's one-page copy never covers its whole shadow
    // and the chain down to the manager's object is never bypassed.
    base_ = parent_->VmAllocateWithPager(2 * kPage, pager_.NewObject(), 0).value();
    child_ = kernel_->CreateTask(parent_, "child");
    EXPECT_EQ(child_->WriteValue<uint64_t>(base_, 42), KernReturn::kSuccess);
    // Ballast of three times memory pushes the child's copy out to the
    // default pager and the manager's clean page out of memory.
    constexpr VmSize kBallast = 96;
    VmOffset ballast = child_->VmAllocate(kBallast * kPage).value();
    for (VmOffset p = 0; p < kBallast; ++p) {
      EXPECT_EQ(child_->WriteValue<uint64_t>(ballast + p * kPage, p), KernReturn::kSuccess);
    }
    EXPECT_EQ(child_->VmDeallocate(ballast, kBallast * kPage), KernReturn::kSuccess);
  }
  ~UnavailableOverShadowTest() override {
    child_.reset();
    parent_.reset();
    pager_.Stop();
  }

  FaultInjector faults_{1};
  std::unique_ptr<Kernel> kernel_;
  uint32_t baseline_ = 0;
  TestPager pager_;
  std::shared_ptr<Task> parent_;
  std::shared_ptr<Task> child_;
  VmOffset base_ = 0;
};

TEST_F(UnavailableOverShadowTest, ObjectDeathDuringTheShadowCopyFreesThePage) {
  pager_.mode = TestPager::Mode::kManual;
  KernReturn verdict = KernReturn::kSuccess;
  std::thread faulter([&] {
    uint64_t out = 0;
    verdict = child_->Read(base_, &out, sizeof(out));
  });
  // The shadow copy's request reached the manager: the fault is inside it.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pager_.pending_count() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(pager_.pending_count(), 1);
  EXPECT_EQ(child_->VmDeallocate(base_, 2 * kPage), KernReturn::kSuccess);
  pager_.AnswerPending();
  faulter.join();
  EXPECT_EQ(verdict, KernReturn::kMemoryFailure);
  EXPECT_GE(kernel_->default_pager().backing_error_count(), 1u);
  child_.reset();
  parent_.reset();
  EXPECT_TRUE(FramesReturnTo(*kernel_, baseline_));
}

TEST_F(UnavailableOverShadowTest, FailedShadowCopyLeavesThePageInError) {
  pager_.mode = TestPager::Mode::kSilent;
  uint64_t out = 0;
  EXPECT_EQ(child_->Read(base_, &out, sizeof(out)), KernReturn::kMemoryFailure);
  EXPECT_GE(kernel_->default_pager().backing_error_count(), 1u);
  // The page stays resident in error: the next fault reports it at once.
  EXPECT_EQ(child_->Read(base_, &out, sizeof(out)), KernReturn::kMemoryError);
  child_.reset();
  parent_.reset();
  EXPECT_TRUE(FramesReturnTo(*kernel_, baseline_));
}

// A copy-on-write child whose shadow has a default-pager association reads
// an offset it never pushed to the default pager: the fault must read
// through to the backing object without asking the default pager (which
// could only answer "unavailable") and without a frame for a private copy.
TEST(DefaultPagerRequestTest, CowChildReadOfANeverPagedOffsetAsksNoPager) {
  Kernel::Config config;
  config.frames = 32;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  const uint32_t baseline = kernel.phys().free_frames();
  auto parent = kernel.CreateTask(nullptr, "parent");
  VmOffset base = parent->VmAllocate(2 * kPage).value();
  ASSERT_EQ(parent->WriteValue<uint64_t>(base, 10), KernReturn::kSuccess);
  ASSERT_EQ(parent->WriteValue<uint64_t>(base + kPage, 11), KernReturn::kSuccess);
  auto child = kernel.CreateTask(parent, "child");
  ASSERT_EQ(child->WriteValue<uint64_t>(base, 20), KernReturn::kSuccess);
  // Ballast of three times memory pushes the child's page 0 out to the
  // default pager: its shadow object gains a default-pager association.
  constexpr VmSize kBallast = 96;
  VmOffset ballast = child->VmAllocate(kBallast * kPage).value();
  for (VmOffset p = 0; p < kBallast; ++p) {
    ASSERT_EQ(child->WriteValue<uint64_t>(ballast + p * kPage, p), KernReturn::kSuccess);
  }
  ASSERT_EQ(child->VmDeallocate(ballast, kBallast * kPage), KernReturn::kSuccess);
  // The parent's read makes the backing object's page 1 resident again.
  ASSERT_EQ(parent->ReadValue<uint64_t>(base + kPage).value(), 11u);

  const uint64_t requests = kernel.default_pager().request_count();
  const uint32_t free_before = kernel.phys().free_frames();
  EXPECT_EQ(child->ReadValue<uint64_t>(base + kPage).value(), 11u);
  EXPECT_EQ(kernel.default_pager().request_count(), requests);
  EXPECT_EQ(kernel.phys().free_frames(), free_before);

  // Precondition: page 0 really was paged out of the child's shadow, so the
  // shadow had a default-pager association during the read above.
  const uint64_t pageins = kernel.default_pager().pagein_count();
  EXPECT_EQ(child->ReadValue<uint64_t>(base).value(), 20u);
  EXPECT_GT(kernel.default_pager().pagein_count(), pageins);
  child.reset();
  parent.reset();
  EXPECT_TRUE(FramesReturnTo(kernel, baseline));
}

}  // namespace
}  // namespace mach
