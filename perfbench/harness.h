// The benchmark harness: the workload interface, the closed-loop runner,
// the span recorder for traced runs, and the counter helpers that read
// each layer's public accessors.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/hw/sim_disk.h"
#include "src/kernel/kernel.h"
#include "src/net/net_link.h"
#include "src/pager/data_manager.h"

namespace perfbench {

int64_t NowNs();

// Layer boundaries the workloads put spans around. Each is one call into a
// layer's public API, timed from outside.
enum class SpanName : uint8_t {
  kKernelFork,      // Kernel::CreateTask(parent)
  kKernelTaskExit,  // dropping the last reference to a child task
  kVmRead,          // Task::Read
  kVmWrite,         // Task::Write
  kVmAlloc,         // Task::VmAllocate
  kVmDealloc,       // Task::VmDeallocate
  kMfsRead,         // MappedFile::ReadAt (one 8-byte read)
  kMfsWrite,        // MappedFile::WriteAt (one 8-byte write)
  kMfsScan,         // 64 sequential MappedFile::ReadAt calls
  kFsReadFile,      // FsClient::ReadFile (OOL reply)
  kCamelotWrite,    // Transaction::Write
  kCamelotCommit,   // Transaction::Commit
  kCamelotAbort,    // Transaction::Abort
  kShmBoardRmw,     // read + write of a shared shm board slot
  kCount,
};
const char* SpanNameString(SpanName name);

// Span recorder: one buffer per load thread. Each span's duration goes into
// a fixed-size histogram per span name, so the recorder's memory does not
// grow with throughput; the first kCsvSpans spans of each thread are also
// kept whole for the CSV output.
class Tracer {
 public:
  static constexpr size_t kCsvSpans = 100'000;

  explicit Tracer(int threads) : buffers_(threads) {
    for (Buffer& b : buffers_) {
      b.spans.reserve(kCsvSpans);
    }
  }

  // Spans recorded on thread `tid` from now on belong to its op `op_id`.
  void BeginOp(int tid, uint32_t op_id) { buffers_[tid].op_id = op_id; }
  void Record(int tid, SpanName name, int64_t start_ns, int64_t end_ns) {
    Buffer& b = buffers_[tid];
    const int64_t duration = std::clamp<int64_t>(end_ns - start_ns, 0, UINT32_MAX);
    b.durations_ns[size_t(name)].Record(uint64_t(duration));
    if (b.spans.size() < kCsvSpans) {
      b.spans.push_back(Span{start_ns, uint32_t(duration), b.op_id, name});
    }
  }

  struct Summary {
    uint64_t count = 0;
    double busy_share = 0;  // Summed span time over (wall time x threads).
    double p50_us = 0;
    double p99_us = 0;
  };
  Summary Summarise(SpanName name, double wall_s) const;

  // Writes the kept spans as CSV (thread,op,span,start_ns,duration_ns).
  // Returns false on an I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    int64_t start_ns;
    uint32_t duration_ns;  // Saturates at 4.29 s.
    uint32_t op_id;
    SpanName name;
  };
  struct alignas(64) Buffer {
    std::array<mach::Histogram, size_t(SpanName::kCount)> durations_ns;
    std::vector<Span> spans;
    uint32_t op_id = 0;
  };
  std::vector<Buffer> buffers_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int tid, SpanName name)
      : tracer_(tracer), tid_(tid), name_(name), start_ns_(tracer != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(tid_, name_, start_ns_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  const int tid_;
  const SpanName name_;
  const int64_t start_ns_;
};

// Calls `f`, recording it as span `name` when `tracer` is set.
template <class F>
auto Timed(Tracer* tracer, int tid, SpanName name, F&& f) {
  ScopedSpan span(tracer, tid, name);
  return f();
}

// Cumulative layer counters, keyed by the names in harness.cc's
// per-layer table (vm.faults, net.msgs, camelot.log_forces, ...).
using Counters = std::map<std::string, double>;

// Counter readers for the layers every workload shares.
void AddHost(Counters& c, mach::Kernel& host);  // VM, paging disk, default pager, clock.
void AddDisk(Counters& c, const mach::SimDisk& disk);
void AddLink(Counters& c, const mach::NetLink& link);
void AddManager(Counters& c, const mach::DataManager& manager);

class Workload {
 public:
  virtual ~Workload() = default;

  // Load threads of the traced run's scaling pass, which gives
  // vm.scaling_3t; 1 means no scaling pass. Every other pass runs one load
  // thread (tid 0).
  virtual int scaling_threads() const { return 1; }
  // One closed-loop operation on load thread `tid`. Returns false when
  // the operation failed: an error return or a mismatch with the model.
  virtual bool Op(int tid, Tracer* tracer) = 0;
  virtual Counters ReadCounters() = 0;
  // Smallest free-queue length over the workload's hosts.
  virtual uint64_t FreeFrames() = 0;
  // The end-of-run oracle; runs once after the timed loop. Returns false
  // (with a reason) when the system's final state disagrees with the model.
  virtual bool Verify(std::string* why) = 0;
};

// Builds the named workload, ready to run (hosts, files, heaps, mappings
// and warm-up done). Returns nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
// Whether the named workload runs pinned to one CPU. Single-thread
// workloads are: each op is a chain of hand-offs between service threads,
// and on a virtual machine a hand-off to an idle CPU waits for the host to
// schedule it, and that wait grew several-fold with the host's load.
bool RunsOnOneCpu(const std::string& name);
std::unique_ptr<Workload> MakeForkStorm(uint64_t seed);
std::unique_ptr<Workload> MakeRemoteFiles(uint64_t seed);
std::unique_ptr<Workload> MakeTenantTxn(uint64_t seed);

struct PassResult {
  // A slice of the pass; ops belong to the window they completed in.
  struct Window {
    double seconds = 0;
    double cpu_s = 0;            // Process user+sys time in the window.
    mach::Histogram latency_ns;  // Host time per op, all threads.
  };
  int threads = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  std::vector<Window> windows;
  Counters before;
  Counters after;
  uint64_t free_frames_min = 0;  // Sampled at op boundaries when traced.
};

// Runs `threads` closed-loop load threads for `seconds` of wall time,
// split into `windows` equal windows.
PassResult RunPass(Workload& workload, int threads, double seconds, int windows,
                   Tracer* tracer);

// One reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The per-layer metrics derived from a traced pass.
std::vector<Metric> LayerMetrics(const PassResult& pass, const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
