// Parameterized property tests for the §4.2 coherence protocol: randomized
// write sequences from alternating hosts must always converge to the last
// written value on every host (single-writer serialisation), across seeds
// and host counts.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/shm/shm_broker.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

struct HostContext {
  std::unique_ptr<Kernel> kernel;
  std::shared_ptr<Task> task;
  VmOffset base = 0;
};

class ShmPropertyTest : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {
 protected:
  static constexpr VmSize kPages = 6;

  void SetUp() override {
    server_ = std::make_unique<ShmBroker>("prop", 1, ShmOptions{});
    server_->Start();
    ShmRegionInfoArgs region = server_->GetRegion("prop", kPages * kPage);
    const int hosts = std::get<0>(GetParam());
    for (int h = 0; h < hosts; ++h) {
      HostContext ctx;
      Kernel::Config config;
      config.name = "host" + std::to_string(h);
      config.frames = 96;
      config.page_size = kPage;
      config.disk_latency = DiskLatencyModel{0, 0};
      ctx.kernel = std::make_unique<Kernel>(config);
      ctx.task = ctx.kernel->CreateTask();
      ctx.base = ShmBroker::MapRegion(*ctx.task, region).value();
      hosts_.push_back(std::move(ctx));
    }
  }

  void TearDown() override {
    for (auto& ctx : hosts_) {
      ctx.task.reset();
    }
    server_->Stop();
    hosts_.clear();
  }

  // Reads `page` on host `h`, polling until it equals `expect` or a budget
  // elapses; returns the final value seen.
  uint64_t PollRead(int h, VmOffset page, uint64_t expect) {
    // Generous: polls return on success, and under an oversubscribed
    // sanitizer run 5 wall seconds can hold very little actual progress.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    uint64_t v = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      v = hosts_[h].task->ReadValue<uint64_t>(hosts_[h].base + page * kPage).value_or(~0ull);
      if (v == expect) {
        return v;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return v;
  }

  std::unique_ptr<ShmBroker> server_;
  std::vector<HostContext> hosts_;
};

TEST_P(ShmPropertyTest, LastWriteWinsEverywhere) {
  const int hosts = std::get<0>(GetParam());
  std::mt19937 rng(std::get<1>(GetParam()));
  std::vector<uint64_t> model(kPages, 0);
  for (int step = 0; step < 40; ++step) {
    int writer = static_cast<int>(rng() % hosts);
    VmOffset page = rng() % kPages;
    uint64_t value = (static_cast<uint64_t>(step + 1) << 32) | rng();
    ASSERT_EQ(hosts_[writer].task->WriteValue<uint64_t>(hosts_[writer].base + page * kPage,
                                                        value),
              KernReturn::kSuccess)
        << "step " << step;
    model[page] = value;
    // Every few steps, verify convergence on every host.
    if (step % 8 == 7) {
      for (int h = 0; h < hosts; ++h) {
        for (VmOffset p = 0; p < kPages; ++p) {
          ASSERT_EQ(PollRead(h, p, model[p]), model[p])
              << "host " << h << " page " << p << " step " << step;
        }
      }
    }
  }
  // Final convergence.
  for (int h = 0; h < hosts; ++h) {
    for (VmOffset p = 0; p < kPages; ++p) {
      ASSERT_EQ(PollRead(h, p, model[p]), model[p]) << "host " << h << " page " << p;
    }
  }
}

TEST_P(ShmPropertyTest, ReadersNeverSeeTornOrForeignValues) {
  // Writers only ever store values from a recognisable set; readers on all
  // hosts must never observe anything outside {0} ∪ written-values.
  const int hosts = std::get<0>(GetParam());
  std::mt19937 rng(std::get<1>(GetParam()) ^ 0x5eed);
  std::vector<std::vector<uint64_t>> written(kPages);
  for (VmOffset p = 0; p < kPages; ++p) {
    written[p].push_back(0);
  }
  for (int step = 0; step < 30; ++step) {
    int writer = static_cast<int>(rng() % hosts);
    VmOffset page = rng() % kPages;
    uint64_t value = 0xF00D000000000000ull | (static_cast<uint64_t>(step) << 16) | page;
    ASSERT_EQ(hosts_[writer].task->WriteValue<uint64_t>(hosts_[writer].base + page * kPage,
                                                        value),
              KernReturn::kSuccess);
    written[page].push_back(value);
    // A random other host reads the page; whatever it sees must be some
    // previously written value for that page (coherence may lag, but can
    // never invent data).
    int reader = static_cast<int>(rng() % hosts);
    Result<uint64_t> seen =
        hosts_[reader].task->ReadValue<uint64_t>(hosts_[reader].base + page * kPage);
    ASSERT_TRUE(seen.ok());
    bool known = false;
    for (uint64_t w : written[page]) {
      known |= (w == seen.value());
    }
    ASSERT_TRUE(known) << "host " << reader << " saw unwritten value " << std::hex
                       << seen.value() << " on page " << page;
  }
}

INSTANTIATE_TEST_SUITE_P(
    HostsAndSeeds, ShmPropertyTest,
    ::testing::Combine(::testing::Values(2, 3), ::testing::Values(11u, 2026u)),
    [](const ::testing::TestParamInfo<ShmPropertyTest::ParamType>& info) {
      return "hosts" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// --- sharded-vs-centralised oracle ------------------------------------------
//
// A 1-shard (centralised) and a 4-shard ShmBroker run the same
// ShmDirectory state machine, so an identical seeded write trace applied to
// both arms must leave every host of both arms with byte-identical region
// contents. The sharded arm differs only in *where* each page's directory
// lives — any divergence is a partitioning or hint bug, not a protocol one.

class ShmOracleTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static constexpr VmSize kPages = 6;
  static constexpr int kHosts = 2;
  static constexpr size_t kShards = 4;
  static constexpr int kSteps = 24;

  void BuildArms(FaultInjector* sharded_injector) {
    server_ = std::make_unique<ShmBroker>("central", 1, ShmOptions{});
    server_->Start();
    ShmRegionInfoArgs central = server_->GetRegion("oracle", kPages * kPage);
    ShmOptions options;
    options.injector = sharded_injector;
    broker_ = std::make_unique<ShmBroker>("oracle", kShards, options);
    broker_->Start();
    ShmRegionInfoArgs sharded = broker_->GetRegion("oracle", kPages * kPage);
    for (int h = 0; h < kHosts; ++h) {
      central_.push_back(MakeCtx("central" + std::to_string(h), central));
      sharded_.push_back(MakeCtx("sharded" + std::to_string(h), sharded));
    }
  }

  HostContext MakeCtx(const std::string& name, const ShmRegionInfoArgs& region) {
    HostContext ctx;
    Kernel::Config config;
    config.name = name;
    config.frames = 96;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    ctx.kernel = std::make_unique<Kernel>(config);
    ctx.task = ctx.kernel->CreateTask();
    ctx.base = ShmBroker::MapRegion(*ctx.task, region).value();
    return ctx;
  }

  void TearDown() override {
    for (auto* arm : {&central_, &sharded_}) {
      for (auto& ctx : *arm) {
        ctx.task.reset();
      }
      arm->clear();
    }
    if (broker_) {
      broker_->Stop();
    }
    if (server_) {
      server_->Stop();
    }
  }

  // Polls until `ctx`'s view of `page` is byte-identical to `expect`.
  bool PollPage(HostContext& ctx, VmOffset page, const std::vector<uint8_t>& expect) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::vector<uint8_t> got(kPage);
    while (std::chrono::steady_clock::now() < deadline) {
      if (IsOk(ctx.task->Read(ctx.base + page * kPage, got.data(), kPage)) && got == expect) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  // One seeded trace, applied to both arms in lockstep; then every host of
  // both arms must converge to the model's exact bytes.
  void RunTrace(uint32_t seed) {
    std::mt19937 rng(seed);
    std::vector<std::vector<uint8_t>> model(kPages, std::vector<uint8_t>(kPage, 0));
    for (int step = 0; step < kSteps; ++step) {
      const int writer = static_cast<int>(rng() % kHosts);
      const VmOffset page = rng() % kPages;
      const VmOffset slot = (rng() % (kPage / sizeof(uint64_t))) * sizeof(uint64_t);
      const uint64_t value = (static_cast<uint64_t>(step + 1) << 32) | rng();
      std::memcpy(model[page].data() + slot, &value, sizeof(value));
      for (auto* arm : {&central_, &sharded_}) {
        HostContext& ctx = (*arm)[writer];
        ASSERT_EQ(ctx.task->WriteValue<uint64_t>(ctx.base + page * kPage + slot, value),
                  KernReturn::kSuccess)
            << "step " << step;
      }
    }
    for (auto* arm : {&central_, &sharded_}) {
      const char* label = arm == &central_ ? "central" : "sharded";
      for (int h = 0; h < kHosts; ++h) {
        for (VmOffset p = 0; p < kPages; ++p) {
          ASSERT_TRUE(PollPage((*arm)[h], p, model[p]))
              << label << " host " << h << " page " << p << " diverged from the model";
        }
      }
    }
  }

  std::unique_ptr<ShmBroker> server_;
  std::unique_ptr<ShmBroker> broker_;
  std::vector<HostContext> central_;
  std::vector<HostContext> sharded_;
};

TEST_P(ShmOracleTest, ShardedAndCentralisedConvergeToIdenticalBytes) {
  BuildArms(nullptr);
  RunTrace(GetParam());
}

TEST_P(ShmOracleTest, OracleHoldsUnderDeliberatelyStaleHints) {
  // Deterministic fault schedule on the sharded arm only: every 2nd hint
  // repair is lost (the directory's probable owner goes stale) and every
  // 3rd forward is eaten on the wire. Correctness must not budge — stale
  // hints cost an extra chase hop, dropped forwards a deadline retry.
  FaultInjector injector(GetParam());
  injector.SetEveryNth(ShmDirectory::kFaultStaleHint, 2);
  injector.SetEveryNth(ShmDirectory::kFaultForwardDrop, 3);
  BuildArms(&injector);
  RunTrace(GetParam());
  EXPECT_GT(injector.Injected(ShmDirectory::kFaultStaleHint), 0u)
      << "the schedule never made a hint stale; the variant tested nothing";
  ShmCounters c = broker_->aggregate_counters();
  EXPECT_GT(c.forwards, 0u);
  EXPECT_GT(c.forward_drops, 0u) << "no forward was ever dropped";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShmOracleTest, ::testing::Range(1u, 11u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mach
