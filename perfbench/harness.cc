#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

#include "src/pager/default_pager.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kKernelFork: return "kernel.fork";
    case SpanName::kKernelTaskExit: return "kernel.task_exit";
    case SpanName::kVmRead: return "vm.read";
    case SpanName::kVmWrite: return "vm.write";
    case SpanName::kVmAlloc: return "vm.alloc";
    case SpanName::kVmDealloc: return "vm.dealloc";
    case SpanName::kMfsRead: return "mfs.read";
    case SpanName::kMfsWrite: return "mfs.write";
    case SpanName::kMfsScan: return "mfs.scan";
    case SpanName::kFsReadFile: return "fs.read_file";
    case SpanName::kCamelotWrite: return "camelot.write";
    case SpanName::kCamelotCommit: return "camelot.commit";
    case SpanName::kCamelotAbort: return "camelot.abort";
    case SpanName::kShmBoardRmw: return "shm.board_rmw";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Summary Tracer::Summarise(SpanName name, double wall_s) const {
  mach::Histogram ns;
  for (const Buffer& b : buffers_) {
    ns.Merge(b.durations_ns[size_t(name)]);
  }
  Summary out;
  out.count = ns.count();
  if (out.count != 0) {
    // Mean() truncates to whole nanoseconds: at most count ns off the sum.
    const double busy_ns = double(ns.Mean()) * double(out.count);
    out.busy_share = busy_ns / (wall_s * 1e9 * double(buffers_.size()));
    out.p50_us = double(ns.P50()) / 1e3;
    out.p99_us = double(ns.P99()) / 1e3;
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  out << "thread,op,span,start_ns,duration_ns\n";
  for (size_t t = 0; t < buffers_.size(); ++t) {
    for (const Span& s : buffers_[t].spans) {
      out << t << ',' << s.op_id << ',' << SpanNameString(s.name) << ',' << s.start_ns << ','
          << s.duration_ns << '\n';
    }
  }
  return bool(out);
}

void AddHost(Counters& c, mach::Kernel& host) {
  const mach::VmStatistics st = host.vm().Statistics();
  c["vm.faults"] += double(st.faults);
  c["vm.cow_faults"] += double(st.cow_faults);
  c["vm.zero_fills"] += double(st.zero_fill_count);
  c["vm.fast_faults"] += double(st.fast_faults);
  c["vm.optimistic"] += double(st.map_lookups_optimistic);
  c["vm.map_retries"] += double(st.map_lookup_retries);
  c["vm.lock_ops"] += double(st.fault_lock_ops);
  c["vm.spurious_wakeups"] += double(st.spurious_page_wakeups);
  c["vm.lookups"] += double(st.lookups);
  c["vm.hits"] += double(st.hits);
  c["vm.chain_depth_max"] = std::max(c["vm.chain_depth_max"], double(st.chain_depth_max));
  c["vm.pageins"] += double(st.pageins);
  c["vm.pageouts"] += double(st.pageouts);
  c["vm.pageout_runs"] += double(st.pageout_runs);
  c["vm.pageout_run_pages"] += double(st.pageout_run_pages);
  c["vm.reactivations"] += double(st.reactivations);
  c["vm.fault_ahead_pages"] += double(st.fault_ahead_pages);
  c["vm.fault_ahead_unused"] += double(st.fault_ahead_unused);
  AddDisk(c, host.paging_disk());
  c["pager.default_pageouts"] += double(host.default_pager().pageout_count());
  AddManager(c, host.default_pager());
  // Only simulated disks charge a host clock, so the host clocks are the
  // modelled disk time.
  c["virtual.host_ns"] += double(host.clock().NowNs());
}

void AddDisk(Counters& c, const mach::SimDisk& disk) {
  c["disk.ops"] += double(disk.total_ops());
  c["disk.bytes"] += double(disk.bytes_transferred());
}

void AddLink(Counters& c, const mach::NetLink& link) {
  c["net.msgs"] += double(link.messages_forwarded());
  c["net.bytes"] += double(link.bytes_forwarded());
  c["net.fragments"] += double(link.fragments_sent());
  c["net.fragments_retransmitted"] += double(link.fragments_retransmitted());
}

void AddManager(Counters& c, const mach::DataManager& manager) {
  c["pager.protocol_rejects"] += double(manager.protocol_rejects());
}

namespace {

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return double(tv.tv_sec) + double(tv.tv_usec) / 1e6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

PassResult RunPass(Workload& workload, int threads, double seconds, int windows,
                   Tracer* tracer) {
  PassResult r;
  r.threads = threads;
  r.before = workload.ReadCounters();
  r.free_frames_min = workload.FreeFrames();

  // Latencies go into fixed-size histograms, one per window, so the
  // harness's memory does not grow with the number of ops.
  struct alignas(64) PerThread {
    std::vector<mach::Histogram> latency_ns;  // One per window.
    int64_t last_end_ns = 0;
    uint64_t failed = 0;
    uint64_t free_min = UINT64_MAX;
  };
  std::vector<PerThread> per(threads);
  for (PerThread& p : per) {
    p.latency_ns.resize(windows);
  }
  std::atomic<bool> go{false};
  const int64_t duration_ns = int64_t(seconds * 1e9);
  std::atomic<int64_t> start_ns{0};

  std::vector<std::thread> pool;
  for (int tid = 0; tid < threads; ++tid) {
    pool.emplace_back([&, tid] {
      PerThread& me = per[tid];
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const int64_t start = start_ns.load(std::memory_order_relaxed);
      const int64_t deadline = start + duration_ns;
      uint32_t op_id = 0;
      int64_t now = NowNs();
      while (now < deadline) {
        if (tracer != nullptr) {
          tracer->BeginOp(tid, ++op_id);
        }
        const bool ok = workload.Op(tid, tracer);
        const int64_t end = NowNs();
        // Ops belong to the window they completed in.
        const int64_t w = std::clamp<int64_t>((end - start) * windows / duration_ns, 0, windows - 1);
        me.latency_ns[w].Record(uint64_t(end - now));
        me.failed += ok ? 0 : 1;
        if (tracer != nullptr) {
          me.free_min = std::min(me.free_min, workload.FreeFrames());
        }
        now = end;
      }
      me.last_end_ns = now;
    });
  }

  // This thread samples process CPU time at every window boundary.
  const auto start = std::chrono::steady_clock::now();
  start_ns.store(NowNs(), std::memory_order_relaxed);
  std::vector<double> cpu = {CpuSeconds()};
  go.store(true, std::memory_order_release);
  for (int w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(start + std::chrono::nanoseconds(duration_ns * w / windows));
    cpu.push_back(CpuSeconds());
  }
  for (std::thread& t : pool) {
    t.join();
  }

  r.windows.resize(windows);
  int64_t end_ns = start_ns.load() + duration_ns;
  for (int w = 0; w < windows; ++w) {
    r.windows[w].seconds = seconds / windows;
    r.windows[w].cpu_s = cpu[w + 1] - cpu[w];
  }
  for (const PerThread& p : per) {
    r.failed += p.failed;
    r.free_frames_min = std::min<uint64_t>(r.free_frames_min, p.free_min);
    end_ns = std::max(end_ns, p.last_end_ns);
    for (int w = 0; w < windows; ++w) {
      r.windows[w].latency_ns.Merge(p.latency_ns[w]);
      r.ops += p.latency_ns[w].count();
    }
  }
  r.wall_s = double(end_ns - start_ns.load()) / 1e9;
  r.after = workload.ReadCounters();
  return r;
}

std::vector<Metric> LayerMetrics(const PassResult& pass, const Tracer& tracer) {
  auto delta = [&](const char* key) {
    auto a = pass.after.find(key);
    auto b = pass.before.find(key);
    return (a == pass.after.end() ? 0.0 : a->second) - (b == pass.before.end() ? 0.0 : b->second);
  };
  auto final_value = [&](const char* key) {
    auto a = pass.after.find(key);
    return a == pass.after.end() ? 0.0 : a->second;
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const double ops = double(pass.ops);
  auto per_op = [&](const char* key) { return ratio(delta(key), ops); };
  auto span = [&](SpanName name) { return tracer.Summarise(name, pass.wall_s); };
  const double faults = delta("vm.faults");

  std::vector<Metric> metrics = {
      {"kernel.fork_p50_us", span(SpanName::kKernelFork).p50_us, "us"},
      {"kernel.task_exit_p50_us", span(SpanName::kKernelTaskExit).p50_us, "us"},
      {"vm.read_p50_us", span(SpanName::kVmRead).p50_us, "us"},
      {"vm.read_p99_us", span(SpanName::kVmRead).p99_us, "us"},
      {"vm.write_p50_us", span(SpanName::kVmWrite).p50_us, "us"},
      {"vm.write_p99_us", span(SpanName::kVmWrite).p99_us, "us"},
      {"vm.alloc_p50_us", span(SpanName::kVmAlloc).p50_us, "us"},
      {"vm.faults_per_op", per_op("vm.faults"), "1/op"},
      {"vm.cow_faults_per_op", per_op("vm.cow_faults"), "1/op"},
      {"vm.zero_fills_per_op", per_op("vm.zero_fills"), "1/op"},
      {"vm.fast_fault_share", ratio(delta("vm.fast_faults"), faults), "ratio"},
      {"vm.optimistic_share", ratio(delta("vm.optimistic"), faults), "ratio"},
      {"vm.map_retry_ratio", ratio(delta("vm.map_retries"), faults), "ratio"},
      {"vm.locks_per_fault", ratio(delta("vm.lock_ops"), faults), "1/fault"},
      {"vm.spurious_wakeups_per_op", per_op("vm.spurious_wakeups"), "1/op"},
      {"vm.hash_hit_ratio", ratio(delta("vm.hits"), delta("vm.lookups")), "ratio"},
      {"vm.chain_depth_max", final_value("vm.chain_depth_max"), "count"},
      {"vm.pageins_per_op", per_op("vm.pageins"), "1/op"},
      {"vm.pageouts_per_op", per_op("vm.pageouts"), "1/op"},
      {"vm.pages_per_pageout_run",
       ratio(delta("vm.pageout_run_pages"), delta("vm.pageout_runs")), "pages"},
      {"vm.reactivations_per_op", per_op("vm.reactivations"), "1/op"},
      {"vm.fault_ahead_waste",
       ratio(delta("vm.fault_ahead_unused"), delta("vm.fault_ahead_pages")), "ratio"},
      {"hw.free_frames_min", double(pass.free_frames_min), "frames"},
      {"disk.ops_per_op", per_op("disk.ops"), "1/op"},
      {"disk.bytes_per_op", per_op("disk.bytes"), "B/op"},
      {"disk.virtual_us_per_op", per_op("virtual.host_ns") / 1e3, "us"},
      {"pager.default_pageouts_per_op", per_op("pager.default_pageouts"), "1/op"},
      {"pager.protocol_rejects", final_value("pager.protocol_rejects"), "count"},
      {"fs.read_file_p50_us", span(SpanName::kFsReadFile).p50_us, "us"},
      {"net.msgs_per_op", per_op("net.msgs"), "1/op"},
      {"net.bytes_per_op", per_op("net.bytes"), "B/op"},
      {"net.fragments_per_op", per_op("net.fragments"), "1/op"},
      {"net.retransmit_ratio", ratio(delta("net.fragments_retransmitted"), delta("net.fragments")),
       "ratio"},
      {"net.virtual_us_per_op", per_op("virtual.net_ns") / 1e3, "us"},
      {"mfs.read_p50_us", span(SpanName::kMfsRead).p50_us, "us"},
      {"mfs.write_p50_us", span(SpanName::kMfsWrite).p50_us, "us"},
      {"mfs.scan_p50_us", span(SpanName::kMfsScan).p50_us, "us"},
      {"virtual_us_per_op", (per_op("virtual.host_ns") + per_op("virtual.net_ns")) / 1e3, "us"},
  };
  // Only tenant_txn drives the Camelot and shm managers.
  if (pass.after.count("camelot.log_forces") != 0) {
    const std::vector<Metric> managers = {
        {"camelot.write_p50_us", span(SpanName::kCamelotWrite).p50_us, "us"},
        {"camelot.commit_p50_us", span(SpanName::kCamelotCommit).p50_us, "us"},
        {"camelot.commit_p99_us", span(SpanName::kCamelotCommit).p99_us, "us"},
        {"camelot.abort_p50_us", span(SpanName::kCamelotAbort).p50_us, "us"},
        {"camelot.log_forces_per_txn", per_op("camelot.log_forces"), "1/op"},
        {"camelot.wal_enforced_per_txn", per_op("camelot.wal_enforced"), "1/op"},
        {"shm.board_rmw_p50_us", span(SpanName::kShmBoardRmw).p50_us, "us"},
        {"shm.ownership_transfers_per_op", per_op("shm.ownership_transfers"), "1/op"},
        {"shm.recalls_per_op", per_op("shm.recalls"), "1/op"},
        {"shm.recall_timeouts", final_value("shm.recall_timeouts"), "count"},
    };
    metrics.insert(metrics.end(), managers.begin(), managers.end());
  }
  return metrics;
}

bool RunsOnOneCpu(const std::string& name) { return name != "fork_storm"; }

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "fork_storm") {
    return MakeForkStorm(seed);
  }
  if (name == "remote_files") {
    return MakeRemoteFiles(seed);
  }
  if (name == "tenant_txn") {
    return MakeTenantTxn(seed);
  }
  return nullptr;
}

}  // namespace perfbench
