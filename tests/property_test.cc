// Parameterized property tests: systemwide invariants swept across boot
// parameters (the system page size is "a boot time parameter and can be any
// multiple of the hardware page size", §3.3), memory sizes, fork depths and
// random seeds.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/pager/data_manager.h"

namespace mach {
namespace {

// --- invariant: memory round-trips under any (page size, frame count) ---------

class BootParamTest : public ::testing::TestWithParam<std::tuple<VmSize, uint32_t>> {
 protected:
  BootParamTest() {
    Kernel::Config config;
    config.page_size = std::get<0>(GetParam());
    config.frames = std::get<1>(GetParam());
    config.disk_latency = DiskLatencyModel{0, 0};
    kernel_ = std::make_unique<Kernel>(config);
    task_ = kernel_->CreateTask();
  }
  ~BootParamTest() override { task_.reset(); }

  std::unique_ptr<Kernel> kernel_;
  std::shared_ptr<Task> task_;
};

TEST_P(BootParamTest, WriteReadAcrossPages) {
  const VmSize ps = kernel_->page_size();
  VmOffset addr = task_->VmAllocate(4 * ps).value();
  std::vector<uint8_t> data(2 * ps + 37);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 1);
  }
  // Deliberately unaligned start.
  ASSERT_EQ(task_->Write(addr + ps - 19, data.data(), data.size()), KernReturn::kSuccess);
  std::vector<uint8_t> out(data.size());
  ASSERT_EQ(task_->Read(addr + ps - 19, out.data(), out.size()), KernReturn::kSuccess);
  EXPECT_EQ(data, out);
}

TEST_P(BootParamTest, PagingPreservesDataBeyondPhysicalMemory) {
  const VmSize ps = kernel_->page_size();
  const uint32_t frames = std::get<1>(GetParam());
  const VmSize pages = frames * 2;  // 2x physical memory.
  VmOffset addr = task_->VmAllocate(pages * ps).value();
  for (VmOffset p = 0; p < pages; ++p) {
    uint64_t v = 0xBEA7000000000000ull + p;
    ASSERT_EQ(task_->WriteValue<uint64_t>(addr + p * ps, v), KernReturn::kSuccess);
  }
  for (VmOffset p = 0; p < pages; ++p) {
    ASSERT_EQ(task_->ReadValue<uint64_t>(addr + p * ps).value(), 0xBEA7000000000000ull + p)
        << "page " << p;
  }
}

TEST_P(BootParamTest, RegionsArePageAligned) {
  const VmSize ps = kernel_->page_size();
  task_->VmAllocate(3 * ps);
  task_->VmAllocate(ps);
  for (const RegionInfo& region : task_->VmRegions()) {
    EXPECT_EQ(region.start % ps, 0u);
    EXPECT_EQ(region.end % ps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PageSizesAndFrames, BootParamTest,
    ::testing::Combine(::testing::Values(VmSize{4096}, VmSize{8192}, VmSize{16384}),
                       ::testing::Values(uint32_t{32}, uint32_t{96})),
    [](const ::testing::TestParamInfo<BootParamTest::ParamType>& info) {
      return "ps" + std::to_string(std::get<0>(info.param)) + "_f" +
             std::to_string(std::get<1>(info.param));
    });

// --- invariant: COW fork chains keep every generation independent ----------------

class ForkDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(ForkDepthTest, EachGenerationSeesItsOwnWrites) {
  const int depth = GetParam();
  Kernel::Config config;
  config.frames = 160;
  config.page_size = 4096;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  std::vector<std::shared_ptr<Task>> generations;
  generations.push_back(kernel.CreateTask(nullptr, "gen0"));
  VmOffset addr = generations[0]->VmAllocate(4 * 4096).value();
  ASSERT_EQ(generations[0]->WriteValue<uint64_t>(addr, 0), KernReturn::kSuccess);
  // Each generation forks from the previous and overwrites the value.
  for (int g = 1; g <= depth; ++g) {
    generations.push_back(kernel.CreateTask(generations.back(), "gen" + std::to_string(g)));
    ASSERT_EQ(generations.back()->WriteValue<uint64_t>(addr, g), KernReturn::kSuccess);
  }
  // Every generation still sees exactly its own value (shadow chains of
  // depth up to `depth` resolve correctly).
  for (int g = 0; g <= depth; ++g) {
    EXPECT_EQ(generations[g]->ReadValue<uint64_t>(addr).value(), static_cast<uint64_t>(g))
        << "generation " << g;
  }
  generations.clear();
}

TEST_P(ForkDepthTest, UntouchedPagesStaySharedThroughTheChain) {
  const int depth = GetParam();
  Kernel::Config config;
  config.frames = 160;
  config.page_size = 4096;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  std::vector<std::shared_ptr<Task>> generations;
  generations.push_back(kernel.CreateTask(nullptr));
  VmOffset addr = generations[0]->VmAllocate(4096).value();
  ASSERT_EQ(generations[0]->WriteValue<uint64_t>(addr, 42), KernReturn::kSuccess);
  for (int g = 1; g <= depth; ++g) {
    generations.push_back(kernel.CreateTask(generations.back()));
  }
  uint64_t cow_before = kernel.vm().Statistics().cow_faults;
  // Reads all the way down the chain never copy.
  for (auto& task : generations) {
    EXPECT_EQ(task->ReadValue<uint64_t>(addr).value(), 42u);
  }
  EXPECT_EQ(kernel.vm().Statistics().cow_faults, cow_before);
  generations.clear();
}

INSTANTIATE_TEST_SUITE_P(Depths, ForkDepthTest, ::testing::Values(1, 3, 6, 10));

// --- invariant: random workloads match a flat reference model --------------------

class RandomWorkloadTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomWorkloadTest, MatchesReferenceModelUnderPaging) {
  Kernel::Config config;
  config.frames = 48;
  config.page_size = 4096;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  constexpr VmSize kBytes = 96 * 4096;  // 2x physical memory.
  VmOffset addr = task->VmAllocate(kBytes).value();
  std::vector<uint8_t> model(kBytes, 0);
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    VmOffset off = rng() % (kBytes - 256);
    VmSize len = 1 + rng() % 256;
    if (rng() % 3 != 0) {
      std::vector<uint8_t> chunk(len);
      for (auto& b : chunk) {
        b = static_cast<uint8_t>(rng());
      }
      ASSERT_EQ(task->Write(addr + off, chunk.data(), len), KernReturn::kSuccess);
      std::memcpy(model.data() + off, chunk.data(), len);
    } else {
      std::vector<uint8_t> chunk(len);
      ASSERT_EQ(task->Read(addr + off, chunk.data(), len), KernReturn::kSuccess);
      ASSERT_EQ(std::memcmp(chunk.data(), model.data() + off, len), 0)
          << "iteration " << i << " offset " << off;
    }
  }
  task.reset();
}

TEST_P(RandomWorkloadTest, VmCopyMatchesReferenceModel) {
  Kernel::Config config;
  config.frames = 128;
  config.page_size = 4096;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  constexpr VmSize kRegion = 8 * 4096;
  VmOffset a = task->VmAllocate(kRegion).value();
  VmOffset b = task->VmAllocate(kRegion).value();
  std::vector<uint8_t> model_a(kRegion, 0), model_b(kRegion, 0);
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    switch (rng() % 3) {
      case 0: {  // Write somewhere in a.
        VmOffset off = rng() % (kRegion - 8);
        uint64_t v = rng();
        ASSERT_EQ(task->WriteValue<uint64_t>(a + off, v), KernReturn::kSuccess);
        std::memcpy(model_a.data() + off, &v, sizeof(v));
        break;
      }
      case 1: {  // vm_copy a -> b.
        ASSERT_EQ(task->VmCopy(a, kRegion, b), KernReturn::kSuccess);
        model_b = model_a;
        break;
      }
      case 2: {  // Verify a random window of both regions.
        VmOffset off = rng() % (kRegion - 64);
        std::vector<uint8_t> out(64);
        ASSERT_EQ(task->Read(a + off, out.data(), out.size()), KernReturn::kSuccess);
        ASSERT_EQ(std::memcmp(out.data(), model_a.data() + off, out.size()), 0);
        ASSERT_EQ(task->Read(b + off, out.data(), out.size()), KernReturn::kSuccess);
        ASSERT_EQ(std::memcmp(out.data(), model_b.data() + off, out.size()), 0);
        break;
      }
    }
  }
  task.reset();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::Values(1u, 42u, 20260705u, 0xDEADBEEFu));

// --- invariant: pager-backed data survives arbitrary eviction patterns -----------

class PagerStoreTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  // A store-backed manager: remembers writes, serves them back.
  class StorePager : public DataManager {
   public:
    explicit StorePager(VmSize page_size) : DataManager("store"), ps_(page_size) {}
    SendRight NewObject() { return CreateMemoryObject(1); }

   protected:
    void OnDataRequest(uint64_t id, uint64_t cookie, PagerDataRequestArgs args) override {
      std::lock_guard<std::mutex> g(mu_);
      for (VmOffset off = args.offset; off < args.offset + args.length; off += ps_) {
        auto it = store_.find(off);
        if (it == store_.end()) {
          DataUnavailable(args.pager_request_port, off, ps_);
        } else {
          ProvideData(args.pager_request_port, off, it->second, kVmProtNone);
        }
      }
    }
    void OnDataWrite(uint64_t id, uint64_t cookie, PagerDataWriteArgs args) override {
      std::lock_guard<std::mutex> g(mu_);
      for (VmOffset delta = 0; delta + ps_ <= args.data.size(); delta += ps_) {
        store_[args.offset + delta] = std::vector<std::byte>(
            args.data.begin() + delta, args.data.begin() + delta + ps_);
      }
    }

   private:
    VmSize ps_;
    std::mutex mu_;
    std::map<VmOffset, std::vector<std::byte>> store_;
  };
};

TEST_P(PagerStoreTest, RandomWritesSurviveEvictionChurn) {
  Kernel::Config config;
  config.frames = 40;
  config.page_size = 4096;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  StorePager pager(4096);
  pager.Start();
  SendRight object = pager.NewObject();
  constexpr VmSize kPages = 64;
  VmOffset addr = task->VmAllocateWithPager(kPages * 4096, object, 0).value();
  std::vector<uint64_t> model(kPages, 0);
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    VmOffset page = rng() % kPages;
    if (rng() % 2 == 0) {
      uint64_t v = rng();
      ASSERT_EQ(task->WriteValue<uint64_t>(addr + page * 4096, v), KernReturn::kSuccess);
      model[page] = v;
    } else {
      ASSERT_EQ(task->ReadValue<uint64_t>(addr + page * 4096).value(), model[page])
          << "page " << page << " iteration " << i;
    }
  }
  task.reset();
  pager.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagerStoreTest, ::testing::Values(7u, 777u, 77777u));

// --- invariant: shadow-chain collapse is invisible to task-level semantics -------
//
// A random fork/write/death workload over a COW-inherited region, checked
// against an eager-copy oracle: every live generation owns a flat
// std::vector<uint8_t> that is deep-copied at fork time, so any divergence
// means collapse migrated a page to the wrong place, freed one it shouldn't
// have, or left a chain pointing at stale data.

class CollapseWorkloadTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CollapseWorkloadTest, ForkWriteDeathMatchesEagerCopyOracle) {
  Kernel::Config config;
  config.frames = 512;
  config.page_size = 4096;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  constexpr VmSize kBytes = 8 * 4096;

  struct Gen {
    std::shared_ptr<Task> task;
    std::vector<uint8_t> model;  // Eager-copy oracle of the whole region.
  };
  std::vector<Gen> gens;
  gens.push_back({kernel.CreateTask(nullptr, "gen0"), std::vector<uint8_t>(kBytes, 0)});
  VmOffset base = gens[0].task->VmAllocate(kBytes).value();

  std::mt19937 rng(GetParam());
  for (int step = 0; step < 400; ++step) {
    switch (rng() % 4) {
      case 0: {  // Fork a random live generation (bounded population).
        if (gens.size() >= 12) {
          break;
        }
        Gen& parent = gens[rng() % gens.size()];
        gens.push_back({kernel.CreateTask(parent.task), parent.model});
        break;
      }
      case 1: {  // Random byte-range write, mirrored into the oracle.
        Gen& g = gens[rng() % gens.size()];
        VmOffset off = rng() % (kBytes - 64);
        VmSize len = 1 + rng() % 64;
        std::vector<uint8_t> chunk(len);
        for (auto& b : chunk) {
          b = static_cast<uint8_t>(rng());
        }
        ASSERT_EQ(g.task->Write(base + off, chunk.data(), len), KernReturn::kSuccess);
        std::memcpy(g.model.data() + off, chunk.data(), len);
        break;
      }
      case 2: {  // Kill a random generation; its death may trigger collapse.
        if (gens.size() <= 1) {
          break;
        }
        gens.erase(gens.begin() + rng() % gens.size());
        break;
      }
      default: {  // Spot-check a random window of a random survivor.
        Gen& g = gens[rng() % gens.size()];
        VmOffset off = rng() % (kBytes - 64);
        std::vector<uint8_t> out(64);
        ASSERT_EQ(g.task->Read(base + off, out.data(), out.size()), KernReturn::kSuccess);
        ASSERT_EQ(std::memcmp(out.data(), g.model.data() + off, out.size()), 0)
            << "divergence at step " << step;
        break;
      }
    }
  }

  // Full byte-for-byte sweep of every survivor against its oracle.
  for (size_t i = 0; i < gens.size(); ++i) {
    std::vector<uint8_t> out(kBytes);
    ASSERT_EQ(gens[i].task->Read(base, out.data(), kBytes), KernReturn::kSuccess);
    ASSERT_EQ(std::memcmp(out.data(), gens[i].model.data(), kBytes), 0)
        << "survivor " << i;
  }

  // Reduce to one survivor: every remaining death hands the kernel a collapse
  // opportunity, and the last generation must still match its oracle with a
  // short chain (no multi-child shadows can remain once its siblings die).
  while (gens.size() > 1) {
    gens.erase(gens.begin());
  }
  std::vector<uint8_t> out(kBytes);
  ASSERT_EQ(gens[0].task->Read(base, out.data(), kBytes), KernReturn::kSuccess);
  EXPECT_EQ(std::memcmp(out.data(), gens[0].model.data(), kBytes), 0);
  VmStatistics st = kernel.vm().Statistics();
  EXPECT_GT(st.shadow_collapses + st.shadow_bypasses, 0u);
  for (VmOffset p = 0; p < kBytes; p += 4096) {
    EXPECT_LE(kernel.vm().ShadowChainLength(gens[0].task->vm_context(), base + p), 2u)
        << "page " << p / 4096;
  }
  gens.clear();
}

TEST_P(CollapseWorkloadTest, NoResidentPageLeakAfterChainDeath) {
  Kernel::Config config;
  config.frames = 1024;
  config.page_size = 4096;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  const VmStatistics before = kernel.vm().Statistics();
  {
    std::mt19937 rng(GetParam());
    std::vector<std::shared_ptr<Task>> chain;
    chain.push_back(kernel.CreateTask(nullptr, "gen0"));
    VmOffset base = chain[0]->VmAllocate(16 * 4096).value();
    for (VmOffset p = 0; p < 16; ++p) {
      ASSERT_EQ(chain[0]->WriteValue<uint64_t>(base + p * 4096, p), KernReturn::kSuccess);
    }
    for (int g = 1; g <= 10; ++g) {
      chain.push_back(kernel.CreateTask(chain.back()));
      ASSERT_EQ(chain.back()->WriteValue<uint64_t>(base + (rng() % 16) * 4096, 1000 + g),
                KernReturn::kSuccess);
      if (rng() % 2 == 0 && chain.size() > 2) {
        // Kill a random intermediate generation mid-build.
        chain.erase(chain.begin() + 1 + rng() % (chain.size() - 2));
      }
    }
    chain.clear();  // Everyone dies; every page must come back.
  }
  const VmStatistics after = kernel.vm().Statistics();
  EXPECT_EQ(after.active_count + after.inactive_count,
            before.active_count + before.inactive_count);
  EXPECT_EQ(after.free_count, before.free_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapseWorkloadTest,
                         ::testing::Values(3u, 1234u, 98765u, 0xC0FFEEu));

// The bench workload's shape as a correctness check: a deep chain of dying
// parents must collapse to O(1) length while preserving every generation's
// final view, and declining every collapse through the vm.collapse fault
// point must reproduce the deep chain (ablation).
TEST(CollapseChainTest, DeepChainOfDeadParentsCollapsesToConstantDepth) {
  for (bool collapse : {false, true}) {
    FaultInjector no_collapse;
    no_collapse.SetProbability(VmSystem::kFaultCollapse, 1.0);
    Kernel::Config config;
    config.frames = 2048;
    config.page_size = 4096;
    config.disk_latency = DiskLatencyModel{0, 0};
    config.fault_injector = collapse ? nullptr : &no_collapse;
    Kernel kernel(config);
    constexpr int kDepth = 16;
    constexpr VmOffset kPages = 8;
    auto task = kernel.CreateTask(nullptr, "gen0");
    VmOffset base = task->VmAllocate(kPages * 4096).value();
    std::vector<uint64_t> model(kPages);
    for (VmOffset p = 0; p < kPages; ++p) {
      model[p] = p + 1;
      ASSERT_EQ(task->WriteValue<uint64_t>(base + p * 4096, model[p]), KernReturn::kSuccess);
    }
    for (int g = 1; g <= kDepth; ++g) {
      auto child = kernel.CreateTask(task);
      VmOffset p = 1 + g % (kPages - 1);
      model[p] = 1000 + g;
      ASSERT_EQ(child->WriteValue<uint64_t>(base + p * 4096, model[p]), KernReturn::kSuccess);
      task = child;  // Parent dies.
    }
    for (VmOffset p = 0; p < kPages; ++p) {
      EXPECT_EQ(task->ReadValue<uint64_t>(base + p * 4096).value(), model[p])
          << "page " << p << " collapse=" << collapse;
    }
    VmStatistics st = kernel.vm().Statistics();
    size_t len = kernel.vm().ShadowChainLength(task->vm_context(), base);
    if (collapse) {
      EXPECT_LE(len, 2u);
      EXPECT_GT(st.shadow_collapses + st.shadow_bypasses, 0u);
    } else {
      EXPECT_GE(len, static_cast<size_t>(kDepth));
      EXPECT_EQ(st.shadow_collapses + st.shadow_bypasses, 0u);
    }
    task.reset();
  }
}

}  // namespace
}  // namespace mach
