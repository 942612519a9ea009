// fork_storm: one host whose working set fits in memory; each load thread
// owns a parent task and forks children that read, write (copy-on-write)
// and zero-fill while the parent keeps writing. The VM core does nearly all
// the work: no pager messages, no disk, no wire. The end-to-end pass runs
// one load thread; the traced run adds a pass with three, whose lock tiers
// contend.

#include <memory>
#include <random>
#include <vector>

#include "perfbench/harness.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"

namespace perfbench {
namespace {

using mach::IsOk;
using mach::KernReturn;
using mach::VmOffset;
using mach::VmSize;

constexpr VmSize kPage = 4096;
constexpr int kThreads = 3;
constexpr uint32_t kFrames = 16384;
constexpr uint64_t kHeapPages = 512;
constexpr int kChildReads = 128;
constexpr int kChildWrites = 32;
constexpr uint64_t kTempPages = 32;
constexpr int kParentWrites = 8;
constexpr int kWarmupOps = 8;

class ForkStorm : public Workload {
 public:
  explicit ForkStorm(uint64_t seed) {
    mach::Kernel::Config config;
    config.name = "fork-storm";
    config.frames = kFrames;
    config.page_size = kPage;
    kernel_ = std::make_unique<mach::Kernel>(config);
    for (int t = 0; t < kThreads; ++t) {
      Parent& p = parents_[t];
      p.rng.seed(seed * 0x9E37'79B9'7F4A'7C15ull + uint64_t(t) + 1);
      p.stamp_base = uint64_t(t + 1) << 48;
      p.task = kernel_->CreateTask(nullptr, "parent-" + std::to_string(t));
      p.heap = p.task->VmAllocate(kHeapPages * kPage).value();
      p.model.resize(kHeapPages);
      for (uint64_t page = 0; page < kHeapPages; ++page) {
        p.model[page] = NextStamp(p);
        setup_ok_ &= IsOk(p.task->WriteValue(p.heap + page * kPage, p.model[page]));
      }
    }
    for (int i = 0; i < kWarmupOps; ++i) {
      for (int t = 0; t < kThreads; ++t) {
        setup_ok_ &= Op(t, nullptr);
      }
    }
  }

  int scaling_threads() const override { return kThreads; }

  bool Op(int tid, Tracer* tracer) override {
    Parent& p = parents_[tid];
    bool ok = setup_ok_;
    std::shared_ptr<mach::Task> child = Timed(tracer, tid, SpanName::kKernelFork, [&] {
      return kernel_->CreateTask(p.task, "child");
    });
    // The child's view: the parent's heap at fork time plus its own writes.
    std::vector<uint64_t> child_model = p.model;

    auto read = [&](mach::Task& task, uint64_t page, uint64_t want) {
      uint64_t v = 0;
      KernReturn kr = Timed(tracer, tid, SpanName::kVmRead, [&] {
        return task.Read(p.heap + page * kPage, &v, sizeof(v));
      });
      return IsOk(kr) && v == want;
    };
    auto write = [&](mach::Task& task, VmOffset addr, uint64_t v) {
      return IsOk(Timed(tracer, tid, SpanName::kVmWrite,
                        [&] { return task.Write(addr, &v, sizeof(v)); }));
    };

    for (int i = 0; i < kChildReads; ++i) {
      const uint64_t page = p.rng() % kHeapPages;
      ok &= read(*child, page, child_model[page]);
    }
    std::vector<uint64_t> child_pages;
    for (int i = 0; i < kChildWrites; ++i) {
      const uint64_t page = p.rng() % kHeapPages;
      child_model[page] = NextStamp(p) | (1ull << 63);
      ok &= write(*child, p.heap + page * kPage, child_model[page]);
      child_pages.push_back(page);
    }

    // Temporary memory: every page is a zero-fill fault.
    mach::Result<VmOffset> temp = Timed(tracer, tid, SpanName::kVmAlloc, [&] {
      return child->VmAllocate(kTempPages * kPage);
    });
    ok &= temp.ok();
    if (temp.ok()) {
      for (uint64_t i = 0; i < kTempPages; ++i) {
        const VmOffset addr = temp.value() + i * kPage;
        ok &= write(*child, addr, NextStamp(p));
        uint64_t zero = 1;
        ok &= IsOk(Timed(tracer, tid, SpanName::kVmRead, [&] {
          return child->Read(addr + sizeof(uint64_t), &zero, sizeof(zero));
        })) && zero == 0;
      }
      ok &= IsOk(Timed(tracer, tid, SpanName::kVmDealloc, [&] {
        return child->VmDeallocate(temp.value(), kTempPages * kPage);
      }));
    }

    std::vector<uint64_t> parent_pages;
    for (int i = 0; i < kParentWrites; ++i) {
      const uint64_t page = p.rng() % kHeapPages;
      p.model[page] = NextStamp(p);
      ok &= write(*p.task, p.heap + page * kPage, p.model[page]);
      parent_pages.push_back(page);
    }
    // Isolation, both ways: the child never sees the parent's post-fork
    // writes, and the parent never sees the child's.
    for (uint64_t page : parent_pages) {
      ok &= read(*child, page, child_model[page]);
    }
    for (int i = 0; i < kParentWrites; ++i) {
      const uint64_t page = child_pages[i];
      ok &= read(*p.task, page, p.model[page]);
    }

    Timed(tracer, tid, SpanName::kKernelTaskExit, [&] { child.reset(); });
    return ok;
  }

  Counters ReadCounters() override {
    Counters c;
    AddHost(c, *kernel_);
    return c;
  }

  uint64_t FreeFrames() override { return kernel_->phys().free_frames(); }

  bool Verify(std::string* why) override {
    // Every parent's whole heap must match its model.
    for (int t = 0; t < kThreads; ++t) {
      Parent& p = parents_[t];
      for (uint64_t page = 0; page < kHeapPages; ++page) {
        mach::Result<uint64_t> v = p.task->ReadValue<uint64_t>(p.heap + page * kPage);
        if (!v.ok() || v.value() != p.model[page]) {
          *why = "parent " + std::to_string(t) + " page " + std::to_string(page) +
                 " differs from the model";
          return false;
        }
      }
    }
    return true;
  }

 private:
  struct Parent {
    std::shared_ptr<mach::Task> task;
    VmOffset heap = 0;
    std::vector<uint64_t> model;  // Value at the start of each heap page.
    std::mt19937_64 rng;
    uint64_t stamp_base = 0;
    uint64_t stamps = 0;
  };

  static uint64_t NextStamp(Parent& p) { return p.stamp_base | ++p.stamps; }

  std::unique_ptr<mach::Kernel> kernel_;
  Parent parents_[kThreads];
  bool setup_ok_ = true;
};

}  // namespace

std::unique_ptr<Workload> MakeForkStorm(uint64_t seed) {
  return std::make_unique<ForkStorm>(seed);
}

}  // namespace perfbench
