// Fork-chain depth sweep: the cost of copy-on-write shadow chains with and
// without shadow-chain collapse (DESIGN deviation 3, now implemented).
//
// Each generation forks from the previous one, writes one page (forcing a
// shadow object), and dies. Without collapse the survivor sits on a chain of
// `depth` shadow objects: every fault walks the whole chain and every dead
// generation's pages stay resident. With collapse the dying parents are
// spliced out as their references drop, so both fault latency and resident
// memory are O(1) in depth.
//
// Args: {depth, collapse? 0/1}; the no-collapse arm arms the vm.collapse
// fault point at probability 1, so every collapse opportunity is declined.
// Counters: chain_len (survivor's actual chain length), resident
// (active+inactive pages), collapses, migrated.
//
// BM_ForkExitBackingSweep (E10) sweeps the size of the object a dying
// generation leaves behind: the splice absorbs it by adopting its page
// table, so the exit should cost the same at 16, 128 and 512 pages.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>

#include "src/base/fault_injector.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"

namespace {

using namespace mach;

constexpr VmSize kPage = 4096;
constexpr VmSize kChainPages = 16;  // Pages in the inherited region.

std::unique_ptr<Kernel> MakeKernel(bool collapse) {
  Kernel::Config config;
  config.frames = 8192;  // Roomy: reclaim must not pollute the numbers.
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  static FaultInjector no_collapse;
  no_collapse.SetProbability(VmSystem::kFaultCollapse, 1.0);
  config.fault_injector = collapse ? nullptr : &no_collapse;
  return std::make_unique<Kernel>(config);
}

// Builds a fork chain `depth` generations deep over a kChainPages region and
// returns the sole survivor. Each generation writes one word to a page other
// than page 0 — enough to force a private shadow — then its parent dies, so
// page 0 is only ever resolvable from gen0's object at the chain's bottom.
std::shared_ptr<Task> BuildChain(Kernel& kernel, int64_t depth, VmOffset* base) {
  auto task = kernel.CreateTask(nullptr, "gen0");
  *base = task->VmAllocate(kChainPages * kPage).value();
  for (VmOffset p = 0; p < kChainPages; ++p) {
    task->WriteValue<uint64_t>(*base + p * kPage, p + 1);
  }
  for (int64_t g = 1; g <= depth; ++g) {
    auto child = kernel.CreateTask(task, "gen");
    child->WriteValue<uint64_t>(*base + (1 + g % (kChainPages - 1)) * kPage, 1000 + g);
    task = child;  // The previous generation dies here.
  }
  return task;
}

// Fault latency through the survivor's chain. VmRead resolves the page
// through the object layer on every call (no pmap caching), so each
// iteration pays exactly one ResolvePage walk.
void BM_ForkChainReadFault(benchmark::State& state) {
  const int64_t depth = state.range(0);
  const bool collapse = state.range(1) != 0;
  auto kernel = MakeKernel(collapse);
  VmOffset base = 0;
  auto task = BuildChain(*kernel, depth, &base);
  uint64_t v = 0;
  size_t i = 0;
  for (auto _ : state) {
    // Page 0 was written only by gen0: without collapse it sits at the very
    // bottom of the chain, the worst-case walk.
    task->VmRead(base, &v, sizeof(v));
    benchmark::DoNotOptimize(v);
    ++i;
  }
  VmStatistics st = kernel->vm().Statistics();
  state.counters["chain_len"] =
      static_cast<double>(kernel->vm().ShadowChainLength(task->vm_context(), base));
  state.counters["resident"] = static_cast<double>(st.active_count + st.inactive_count);
  state.counters["collapses"] = static_cast<double>(st.shadow_collapses + st.shadow_bypasses);
  state.counters["migrated"] = static_cast<double>(st.pages_migrated);
  state.SetItemsProcessed(static_cast<int64_t>(i));
  task.reset();
}
BENCHMARK(BM_ForkChainReadFault)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}})
    ->ArgNames({"depth", "collapse"})
    ->Unit(benchmark::kMicrosecond);

// Chain construction + teardown: what fork/exit churn costs end to end,
// including the collapse work itself.
void BM_ForkChainBuild(benchmark::State& state) {
  const int64_t depth = state.range(0);
  const bool collapse = state.range(1) != 0;
  auto kernel = MakeKernel(collapse);
  for (auto _ : state) {
    VmOffset base = 0;
    auto task = BuildChain(*kernel, depth, &base);
    task.reset();
  }
  VmStatistics st = kernel->vm().Statistics();
  state.counters["collapses"] = static_cast<double>(st.shadow_collapses + st.shadow_bypasses);
  state.counters["migrated"] = static_cast<double>(st.pages_migrated);
  state.counters["resident"] = static_cast<double>(st.active_count + st.inactive_count);
  state.SetItemsProcessed(state.iterations() * depth);
  state.SetLabel(collapse ? "collapse" : "no-collapse");
}
BENCHMARK(BM_ForkChainBuild)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}})
    ->ArgNames({"depth", "collapse"})
    ->Unit(benchmark::kMicrosecond);

// Exit cost against backing size: each generation inherits a heap of
// `backing` pages, writes 8 of them (its shadow holds those 8) and then
// becomes the parent of the next generation and exits. The exit splices the
// dead generation's object — `backing` pages, 8 superseded — into the
// survivor's 8-page shadow. Iteration time is the exit alone (manual
// timing: forks and writes are excluded), in microseconds per exit.
// Counters: migrated_per_exit (pages re-homed by each splice, backing - 8),
// collapses_per_exit (1 when every exit splices), fork_us (the fork that
// starts each iteration, which write-protects the parent's heap, in
// microseconds).
void BM_ForkExitBackingSweep(benchmark::State& state) {
  const uint64_t backing = static_cast<uint64_t>(state.range(0));
  constexpr uint64_t kWrites = 8;
  auto kernel = MakeKernel(/*collapse=*/true);
  auto task = kernel->CreateTask(nullptr, "gen0");
  const VmOffset base = task->VmAllocate(backing * kPage).value();
  for (uint64_t p = 0; p < backing; ++p) {
    task->WriteValue<uint64_t>(base + p * kPage, p + 1);
  }
  const VmStatistics before = kernel->vm().Statistics();
  uint64_t g = 0;
  std::chrono::duration<double> fork_time{0};
  for (auto _ : state) {
    const auto f0 = std::chrono::steady_clock::now();
    auto child = kernel->CreateTask(task, "gen");
    fork_time += std::chrono::steady_clock::now() - f0;
    for (uint64_t i = 0; i < kWrites; ++i) {
      child->WriteValue<uint64_t>(base + ((g * kWrites + i) % backing) * kPage, g);
    }
    ++g;
    const auto t0 = std::chrono::steady_clock::now();
    task = std::move(child);  // The previous generation exits here.
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  const VmStatistics after = kernel->vm().Statistics();
  const double exits = static_cast<double>(state.iterations());
  state.counters["migrated_per_exit"] =
      static_cast<double>(after.pages_migrated - before.pages_migrated) / exits;
  state.counters["collapses_per_exit"] =
      static_cast<double>(after.shadow_collapses - before.shadow_collapses) / exits;
  state.counters["fork_us"] = fork_time.count() * 1e6 / exits;
  state.counters["chain_len"] =
      static_cast<double>(kernel->vm().ShadowChainLength(task->vm_context(), base));
  task.reset();
}
BENCHMARK(BM_ForkExitBackingSweep)
    ->ArgName("backing")
    ->Arg(16)
    ->Arg(128)
    ->Arg(512)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
