// E7 (§5.4, §6.2.2): page replacement behaviour and the errant-manager
// protection ablation.
//
// Part 1 — replacement: a task cycles through anonymous memory larger than
// physical memory, sequentially and with a hot/cold skew. Reported:
// pageouts, pageins, reactivations (the second-chance LRU at work: the hot
// set should be reactivated, not evicted).
//
// Part 2 — ablation: dirty pages belong to a data manager that stops
// draining its queue. With §6.2.2 protection ON the kernel parks the data
// with the default pager and keeps allocating; with protection OFF pageout
// cannot free those pages. Reported: pages the kernel managed to reclaim in
// a fixed window.
//
// Output: one JSON object on stdout; the human-readable tables on stderr.

#include <chrono>
#include <cstdio>
#include <memory>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/pager/data_manager.h"

namespace {

using namespace mach;

constexpr VmSize kPage = 4096;

void ReplacementRun(const char* name, bool skewed, const char* sep) {
  Kernel::Config config;
  config.frames = 128;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  constexpr VmSize kPages = 384;  // 3x physical memory.
  VmOffset addr = task->VmAllocate(kPages * kPage).value();

  auto start = std::chrono::steady_clock::now();
  uint32_t rng = 99;
  for (int round = 0; round < 4; ++round) {
    for (VmOffset i = 0; i < kPages; ++i) {
      VmOffset page;
      if (skewed) {
        rng = rng * 1664525 + 1013904223;
        // 80% of accesses to the first 32 pages (the hot set).
        page = (rng % 10 < 8) ? (rng / 16) % 32 : (rng / 16) % kPages;
      } else {
        page = i;
      }
      uint64_t v = round * 1000 + page;
      task->WriteValue<uint64_t>(addr + page * kPage, v);
    }
  }
  double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                        start)
                  .count();
  VmStatistics st = kernel.vm().Statistics();
  std::fprintf(stderr, "  %-12s %10llu %10llu %14llu %10.0f\n", name,
               (unsigned long long)st.pageouts, (unsigned long long)st.pageins,
               (unsigned long long)st.reactivations, ms);
  std::printf("%s\n  {\"pattern\": \"%s\", \"pageouts\": %llu, \"pageins\": %llu, "
              "\"reactivations\": %llu, \"real_ms\": %.1f}",
              sep, name, (unsigned long long)st.pageouts, (unsigned long long)st.pageins,
              (unsigned long long)st.reactivations, ms);
  task.reset();
}

class StuckPager : public DataManager {
 public:
  StuckPager() : DataManager("stuck") {}
  SendRight NewObject() { return CreateMemoryObject(1); }

 protected:
  void OnDataRequest(uint64_t id, uint64_t cookie, PagerDataRequestArgs args) override {
    std::vector<std::byte> data(args.length, std::byte{0x22});
    ProvideData(args.pager_request_port, args.offset, std::move(data), kVmProtNone);
  }
};

uint64_t AblationRun(bool protection_on, const char* sep) {
  Kernel::Config config;
  config.frames = 64;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.errant_manager_protection = protection_on;
  config.vm.pager_timeout = std::chrono::milliseconds(200);
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  StuckPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  object.port()->SetBacklog(1);
  constexpr VmSize kPages = 56;  // Most of physical memory.
  VmOffset addr = task->VmAllocateWithPager(kPages * kPage, object, 0).value();
  for (VmOffset p = 0; p < kPages; ++p) {
    uint64_t v = 0;
    task->Read(addr + p * kPage, &v, sizeof(v));
  }
  // Dirty everything, then stop the manager: the pages are now hostage.
  for (VmOffset p = 0; p < kPages; ++p) {
    task->WriteValue<uint64_t>(addr + p * kPage, p);
  }
  pager.Stop();

  // Put the system under pressure from a second task, then measure how
  // much physical memory the kernel was able to take back from the errant
  // manager: with protection the hostage dirty pages are parked (frames
  // freed); without it they stay pinned forever.
  std::shared_ptr<Task> other = kernel.CreateTask();
  VmOffset churn = other->VmAllocate(256 * kPage).value();
  auto start = std::chrono::steady_clock::now();
  for (VmOffset p = 0; p < 256; ++p) {
    other->WriteValue<uint64_t>(churn + p * kPage, p);
  }
  double churn_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  other->VmDeallocate(churn, 256 * kPage);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // Let the daemon settle.
  VmStatistics st = kernel.vm().Statistics();
  uint64_t free_frames = st.free_count;
  std::fprintf(stderr, "  protection %-4s %14.0f %14llu %14llu\n", protection_on ? "ON" : "OFF",
               churn_ms, (unsigned long long)st.parked_pageouts,
               (unsigned long long)free_frames);
  std::printf("%s\n  {\"protection\": %s, \"churn_ms\": %.1f, \"parked_pages\": %llu, "
              "\"free_frames\": %llu}",
              sep, protection_on ? "true" : "false", churn_ms,
              (unsigned long long)st.parked_pageouts, (unsigned long long)free_frames);
  task.reset();
  other.reset();
  return free_frames;
}

}  // namespace

int main() {
  std::fprintf(stderr, "E7: page replacement and the Sec 6.2.2 errant-manager protection\n\n");
  std::fprintf(stderr, "part 1: replacement over 3x physical memory (4 rounds)\n");
  std::fprintf(stderr, "  %-12s %10s %10s %14s %10s\n", "pattern", "pageouts", "pageins",
               "reactivations", "real ms");
  std::printf("{\"bench\": \"pageout\",\n \"replacement\": [");
  ReplacementRun("sequential", /*skewed=*/false, "");
  ReplacementRun("hot/cold", /*skewed=*/true, ",");
  std::fprintf(stderr, "  shape: the skewed run reactivates its hot set instead of evicting\n"
                       "  it (second-chance LRU, Sec 5.4), cutting pageouts.\n\n");

  std::fprintf(stderr, "part 2: an errant manager holds ~7/8 of memory dirty; how much\n"
                       "physical memory can the kernel take back under pressure?\n");
  std::fprintf(stderr, "  %-15s %14s %14s %14s\n", "", "churn ms", "parked pages",
               "free frames");
  std::printf("],\n \"errant_manager\": [");
  uint64_t on = AblationRun(true, "");
  uint64_t off = AblationRun(false, ",");
  std::printf("]}\n");
  std::fprintf(stderr,
               "  shape: with Sec 6.2.2 protection the hostage pages are parked with\n"
               "  the default pager and their frames recovered (%llu free vs %llu free\n"
               "  frames of 64); without it they stay pinned until the manager dies.\n",
               (unsigned long long)on, (unsigned long long)off);
  return 0;
}
