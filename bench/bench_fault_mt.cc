// E11 (§5.5 on a multiprocessor): fault-path scaling under the VM lock
// hierarchy. Concurrent faults that share nothing — disjoint regions of one
// address map — should scale with the thread count, because they take the
// map lock shared and meet only in per-object locks (which also guard each
// object's page table) and the page queues. Faults that genuinely share state (copy-on-write pushes out
// of one inherited object) contend on that object's lock and bound the
// speedup; both flavours are reported at 1/2/4/8 threads.
//
// Each thread gets a fixed page budget (Iterations below), so a run never
// wraps back onto resident pages and every timed access is a real fault.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"

namespace {

using namespace mach;

constexpr VmSize kPage = 4096;
constexpr int kPagesPerThread = 2048;
constexpr int kMaxThreads = 8;

// Shared across the threads of one benchmark run. Thread 0 sets up before
// the first iteration barrier and tears down after the last.
struct MtState {
  std::unique_ptr<Kernel> kernel;
  std::shared_ptr<Task> task;
  std::shared_ptr<Task> child;
  VmOffset base = 0;
};
MtState g_mt;

// A kernel with frames for `pages` resident pages and enough headroom that
// free memory never drops below the pageout target (frames / 8): reclaim
// never runs, so every arm times faults, not paging.
std::unique_ptr<Kernel> MakeKernel(uint32_t pages) {
  Kernel::Config config;
  config.frames = pages + pages / 4 + 1024;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  return std::make_unique<Kernel>(config);
}

// Fails the run if the kernel paged anything out: the arm was sized so
// reclaim never runs, and a run that paged measured the pager instead.
void FailIfPaged(benchmark::State& state) {
  if (g_mt.kernel->vm().Statistics().pageouts != 0) {
    state.SkipWithError("pageout ran: the arm measured paging, not faults");
  }
}

// Zero-fill faults in disjoint regions of one task map: the no-sharing
// case. Aggregate items/s across threads is the scaling headline.
void BM_FaultMtDisjointZeroFill(benchmark::State& state) {
  const VmSize region = VmSize{kPagesPerThread} * kPage;
  if (state.thread_index() == 0) {
    g_mt.kernel = MakeKernel(kMaxThreads * kPagesPerThread);
    g_mt.task = g_mt.kernel->CreateTask();
    g_mt.base = g_mt.task->VmAllocate(VmSize{kMaxThreads} * region).value();
  }
  VmOffset next = g_mt.base + static_cast<VmOffset>(state.thread_index()) * region;
  uint8_t b = 1;
  for (auto _ : state) {
    g_mt.task->Write(next, &b, 1);  // One fresh page: allocate + zero + map.
    next += kPage;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    FailIfPaged(state);
    g_mt.task.reset();
    g_mt.kernel.reset();
  }
}

// Copy-on-write faults against one inherited object: every thread pushes
// private copies of distinct pages out of the same shadow chain, so the
// source object's lock is the shared resource.
void BM_FaultMtSharedCow(benchmark::State& state) {
  const VmSize region = VmSize{kPagesPerThread} * kPage;
  if (state.thread_index() == 0) {
    // The parent's pages plus one private copy of each.
    g_mt.kernel = MakeKernel(2 * kMaxThreads * kPagesPerThread);
    g_mt.task = g_mt.kernel->CreateTask();
    g_mt.base = g_mt.task->VmAllocate(VmSize{kMaxThreads} * region).value();
    std::vector<uint8_t> init(VmSize{kMaxThreads} * region, 0x7);
    g_mt.task->Write(g_mt.base, init.data(), init.size());
    g_mt.child = g_mt.kernel->CreateTask(g_mt.task);  // COW view of it all.
  }
  VmOffset next = g_mt.base + static_cast<VmOffset>(state.thread_index()) * region;
  uint8_t b = 9;
  for (auto _ : state) {
    g_mt.child->Write(next, &b, 1);  // Shadow-chain walk + page copy.
    next += kPage;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    VmStatistics stats = g_mt.kernel->vm().Statistics();
    state.counters["cow_faults"] = static_cast<double>(stats.cow_faults);
    state.counters["spurious_wakeups"] = static_cast<double>(stats.spurious_page_wakeups);
    FailIfPaged(state);
    g_mt.child.reset();
    g_mt.task.reset();
    g_mt.kernel.reset();
  }
}

// Read faults through one *shared* (inheritance) region: threads fault the
// same pages of the same object, so resolution is all lookup — the object's
// page table and its lock are what is being exercised.
void BM_FaultMtSharedRead(benchmark::State& state) {
  const VmSize region = VmSize{kPagesPerThread} * kPage;
  if (state.thread_index() == 0) {
    g_mt.kernel = MakeKernel(kPagesPerThread);
    g_mt.task = g_mt.kernel->CreateTask();
    g_mt.base = g_mt.task->VmAllocate(region).value();
    std::vector<uint8_t> init(region, 0x5);
    g_mt.task->Write(g_mt.base, init.data(), init.size());
  }
  VmOffset next = g_mt.base;
  uint8_t b = 0;
  for (auto _ : state) {
    // Drop this page's translation, then touch: resident-page fault.
    VmOffset page = next;
    g_mt.task->vm_context().pmap->Remove(page, page + kPage);
    g_mt.task->Read(page, &b, 1);
    next += kPage;
    if (next == g_mt.base + region) {
      next = g_mt.base;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    VmStatistics stats = g_mt.kernel->vm().Statistics();
    state.counters["fast_faults"] = static_cast<double>(stats.fast_faults);
    FailIfPaged(state);
    g_mt.task.reset();
    g_mt.kernel.reset();
  }
}

}  // namespace

BENCHMARK(BM_FaultMtDisjointZeroFill)
    ->Iterations(kPagesPerThread)
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime();
BENCHMARK(BM_FaultMtSharedCow)
    ->Iterations(kPagesPerThread)
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime();
BENCHMARK(BM_FaultMtSharedRead)
    ->Iterations(kPagesPerThread)
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime();

int main(int argc, char** argv) {
  // Scaling numbers from a single-CPU host are not scaling numbers: every
  // "concurrent" thread is time-sliced, so 2/4/8-thread rows measure the
  // scheduler, not the lock hierarchy. Flag such runs loudly in both the
  // human-readable stream and the JSON context so a reader (or a tooling
  // diff) can discount them.
  const unsigned cpus = std::thread::hardware_concurrency();
  benchmark::AddCustomContext("single_cpu_host", cpus <= 1 ? "true" : "false");
  benchmark::AddCustomContext("host_cpus", std::to_string(cpus));
  if (cpus <= 1) {
    fprintf(stderr,
            "*** WARNING: single-CPU host detected (hardware_concurrency=%u).\n"
            "*** Multi-threaded rows below measure time-slicing, not parallel\n"
            "*** scaling; treat every thread-count > 1 result as invalid.\n",
            cpus);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
