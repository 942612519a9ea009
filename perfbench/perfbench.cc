// perfbench: runs one benchmark workload against the kernel's public APIs
// and prints its metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Usually launched
// through run.py, which builds this binary first; see NOTES.md.
//
//   perfbench --workload <fork_storm|remote_files|tenant_txn> --seed <n>
//             --seconds <s> --trace <0|1> [--git-sha <sha>] [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs an untraced
// and a traced pass (plus a 3-thread pass on fork_storm) and reports the
// per-layer metrics and the tracing overhead.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/ipc/port_gc.h"

namespace perfbench {
namespace {

// Set-up is repeated this many times in an untraced run; setup_s is the
// median.
constexpr int kSetupSamples = 9;
// An untraced pass is cut into windows of this length; throughput,
// latency and CPU are trimmed means over the windows (a tenth of them
// dropped at each end), so one disturbed stretch of a run does not move
// them. The windows are short because on a shared virtual machine the
// program's speed switches between a fast and a slow level, in stretches
// of a fraction of a second to minutes (fork_storm's median op: about 300
// or 480 us). The ops of a window that holds both levels have two modes,
// and the window's median jumps from one to the other as the share of slow
// time crosses one half. Short windows mostly hold one level, and a mean
// over them moves smoothly with the share of slow time.
constexpr double kWindowSeconds = 0.25;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_sha = "unknown";
  std::string out_dir = ".bench_build/perfbench-out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// A Debug or sanitizer build times the instrumentation, not the kernel.
bool BuildIsMeasurable(std::string* why) {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "CMAKE_BUILD_TYPE is '" + type + "'; use Release or RelWithDebInfo";
    return false;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "built with a sanitizer";
  return false;
#endif
  if (flags.find("-fsanitize") != std::string::npos) {
    *why = "built with -fsanitize";
    return false;
  }
  return true;
}

std::string Stamp(const Args& args, bool one_cpu) {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"git_sha\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"nproc\": %u, \"date\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"cpus\": \"%s\"}",
                args.git_sha.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                std::thread::hardware_concurrency(), date, args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
                one_cpu ? "one" : "all");
  return buf;
}

// Restricts this thread, and every thread it creates later, to the last
// CPU it may run on. Returns false when the affinity calls fail.
bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return false;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0;
    }
  }
  return false;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

// The lower median: the value at nearest rank ceil(n / 2).
double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  const auto mid = v.begin() + (v.size() - 1) / 2;
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

// The mean of `v` without its `trim` smallest and `trim` largest values.
double TrimmedMean(std::vector<double> v, size_t trim) {
  if (v.size() <= 2 * trim) {
    return Median(v);
  }
  std::sort(v.begin(), v.end());
  double sum = 0;
  for (size_t i = trim; i < v.size() - trim; ++i) {
    sum += v[i];
  }
  return sum / double(v.size() - 2 * trim);
}

double Throughput(const PassResult& pass) {
  return pass.wall_s > 0 ? double(pass.ops) / pass.wall_s : 0;
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintSpans(const Tracer& tracer, double wall_s) {
  std::printf("  %-18s %10s %10s %12s %12s\n", "span", "count", "busy", "p50_us", "p99_us");
  for (int i = 0; i < int(SpanName::kCount); ++i) {
    const SpanName name = SpanName(i);
    const Tracer::Summary s = tracer.Summarise(name, wall_s);
    if (s.count != 0) {
      std::printf("  %-18s %10llu %9.1f%% %12.2f %12.2f\n", SpanNameString(name),
                  static_cast<unsigned long long>(s.count), 100 * s.busy_share, s.p50_us,
                  s.p99_us);
    }
  }
}

double Counter(const Counters& c, const char* key) {
  auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <fork_storm|remote_files|tenant_txn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--git-sha <sha>] [--out-dir <dir>]\n");
    return 2;
  }
  std::string why;
  if (!BuildIsMeasurable(&why)) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 2;
  }
  // Pin before set-up: the kernels start their service threads there.
  const bool one_cpu = RunsOnOneCpu(args.workload);
  if (one_cpu && !PinToOneCpu()) {
    std::fprintf(stderr, "perfbench: cannot pin to one CPU\n");
    return 2;
  }
  std::printf("stamp %s\n", Stamp(args, one_cpu).c_str());

  mach::PortGcCollect();
  const size_t ports_before = mach::PortGcLivePortCount();

  // Set-up: hosts, files, heaps, mappings and warm-up. Earlier samples are
  // torn down before the next one starts; the last one is measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace == 1 ? 1 : kSetupSamples); ++i) {
    workload.reset();
    const int64_t t0 = NowNs();
    workload = MakeWorkload(args.workload, args.seed);
    if (workload == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    setup_s.push_back(double(NowNs() - t0) / 1e9);
  }

  // One load thread: with more, lock waits turn into host scheduling
  // delays on a virtual machine, and wall-clock figures stop repeating.
  const int threads = 1;
  const int scaling_threads = workload->scaling_threads();
  std::vector<PassResult> passes;
  std::unique_ptr<Tracer> tracer;
  PassResult* measured = nullptr;  // The pass the metrics describe.
  if (args.trace == 0) {
    const int windows = std::max(1, int(std::lround(args.seconds / kWindowSeconds)));
    passes.push_back(RunPass(*workload, threads, args.seconds, windows, nullptr));
    measured = &passes[0];
  } else {
    // Untraced, traced, and where the workload has one a scaling pass.
    const int parts = scaling_threads > 1 ? 3 : 2;
    const double part_s = args.seconds / parts;
    passes.reserve(parts);
    passes.push_back(RunPass(*workload, threads, part_s, 1, nullptr));
    tracer = std::make_unique<Tracer>(threads);
    passes.push_back(RunPass(*workload, threads, part_s, 1, tracer.get()));
    measured = &passes[1];
    if (scaling_threads > 1) {
      passes.push_back(RunPass(*workload, scaling_threads, part_s, 1, nullptr));
    }
  }

  std::string verify_why;
  const bool verified = workload->Verify(&verify_why);
  workload.reset();
  mach::PortGcCollect();
  const int64_t ports_leaked = int64_t(mach::PortGcLivePortCount()) - int64_t(ports_before);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.ops;
    failed += p.failed;
  }
  const PassResult& last = passes.back();
  const double protocol_rejects = Counter(last.after, "pager.protocol_rejects");
  const double recall_timeouts = Counter(last.after, "shm.recall_timeouts");
  const bool correct = verified && failed == 0 && attempted > 0 && ports_leaked == 0 &&
                       protocol_rejects == 0 && recall_timeouts == 0;

  const PassResult& m = *measured;
  const double ops = double(std::max<uint64_t>(m.ops, 1));
  std::vector<double> throughput, p50, p90, cpu;
  uint64_t window_samples = UINT64_MAX;
  for (const PassResult::Window& w : m.windows) {
    const double n = double(w.latency_ns.count());
    window_samples = std::min(window_samples, w.latency_ns.count());
    throughput.push_back(n / w.seconds);
    p50.push_back(double(w.latency_ns.P50()) / 1e3);
    p90.push_back(double(w.latency_ns.Percentile(0.90)) / 1e3);
    cpu.push_back(n == 0 ? 0.0 : w.cpu_s * 1e6 / n);
  }
  const uint64_t beyond_p90 = window_samples / 10;
  const size_t trim = m.windows.size() / 10;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"throughput_ops_s", TrimmedMean(throughput, trim), "ops/s"},
        {"latency_p50_us", TrimmedMean(p50, trim), "us"},
        {"latency_p90_us", TrimmedMean(p90, trim), "us"},
        {"cpu_us_per_op", TrimmedMean(cpu, trim), "us"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    metrics = LayerMetrics(m, *tracer);
    // The untraced pass's own tail: too sensitive to host scheduling to
    // carry a bound, so it is reported here rather than end to end.
    metrics.push_back({"latency_p99_us", double(passes[0].windows[0].latency_ns.P99()) / 1e3, "us"});
    const double scaled = passes.size() == 3 ? Throughput(passes[2]) : 0.0;
    metrics.push_back({"vm.scaling_3t", scaled / Throughput(passes[0]), "ratio"});
    metrics.push_back({"ipc.ports_leaked", double(ports_leaked), "count"});
    metrics.push_back(
        {"trace.overhead_ops_s", Throughput(passes[1]) - Throughput(passes[0]), "ops/s"});
  }

  std::printf("workload %s: %llu ops in %.3f s on %d thread(s), %llu failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(m.ops), m.wall_s, threads,
              static_cast<unsigned long long>(m.failed));
  if (args.trace == 0) {
    std::printf("  %zu windows, fewest latency samples in a window %llu, %llu beyond its p90%s\n",
                m.windows.size(), static_cast<unsigned long long>(window_samples),
                static_cast<unsigned long long>(beyond_p90),
                beyond_p90 < 10 ? " (fewer than 10: p90 is not resolved)" : "");
  }
  std::printf("  error_rate %.6f, virtual_us_per_op %.3f\n",
              attempted == 0 ? 0.0 : double(failed) / double(attempted),
              (Counter(m.after, "virtual.host_ns") - Counter(m.before, "virtual.host_ns") +
               Counter(m.after, "virtual.net_ns") - Counter(m.before, "virtual.net_ns")) /
                  ops / 1e3);
  std::printf("  oracle %s%s%s; ports_leaked %lld, protocol_rejects %.0f, recall_timeouts %.0f\n",
              verified ? "ok" : "FAILED", verified ? "" : ": ", verify_why.c_str(),
              static_cast<long long>(ports_leaked), protocol_rejects, recall_timeouts);
  if (args.trace == 0) {
    std::printf("  window ops/s:");
    for (double t : throughput) {
      std::printf(" %.0f", t);
    }
    std::printf("\n  setup samples:");
    for (double s : setup_s) {
      std::printf(" %.4f", s);
    }
    std::printf(" s\n");
  } else {
    std::printf("  passes (ops/s):");
    for (const PassResult& p : passes) {
      std::printf(" %d-thread%s %.1f", p.threads, &p == measured ? " traced" : "",
                  Throughput(p));
    }
    std::printf("\n");
    PrintSpans(*tracer, m.wall_s);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".csv";
    // The first spans of each thread are written out; the summaries above
    // cover all of them.
    if (!ec && tracer->WriteCsv(path)) {
      std::printf("  spans written to %s\n", path.c_str());
    }
  }
  PrintTable(metrics);
  std::printf("%s\n", Json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
