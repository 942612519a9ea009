// E8 (§8.3): Camelot-style recoverable virtual memory.
//
//   * commit throughput vs transaction size (each commit forces the log;
//     bigger transactions amortise the force);
//   * the WAL rule under memory pressure (log forces caused by pageout);
//   * recovery cost as a function of log length.
//
// Output: one JSON object on stdout; the human-readable tables on stderr.

#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_env.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/camelot/recovery_manager.h"

namespace {

using namespace mach;

constexpr VmSize kPage = 4096;

using Env = BenchEnv;

}  // namespace

int main() {
  std::fprintf(stderr, "E8: recoverable virtual memory (Camelot-style, Sec 8.3)\n\n");

  // Part 1: commit cost vs transaction size.
  std::fprintf(stderr, "part 1: commit throughput vs writes per transaction\n");
  std::fprintf(stderr, "  %10s %10s %14s %16s %14s\n", "writes/txn", "txns", "log forces",
               "log I/O ms (sim)", "us/write (sim)");
  std::printf("{\"bench\": \"camelot\",\n \"commit\": [");
  const char* sep = "";
  for (int writes_per_txn : {1, 4, 16, 64}) {
    Env env(512);
    RecoverableSegment seg =
        RecoverableSegment::Map(env.rm.get(), env.task.get(), "db", 64 * kPage).value();
    const int total_writes = 256;
    int txns = total_writes / writes_per_txn;
    uint64_t ns_before = env.kernel->clock().NowNs();
    uint64_t forces_before = env.rm->log_force_count();
    uint32_t rng = 7;
    for (int t = 0; t < txns; ++t) {
      Transaction txn(env.rm.get());
      for (int w = 0; w < writes_per_txn; ++w) {
        rng = rng * 1664525 + 1013904223;
        VmOffset off = (rng % (64 * kPage / 64)) * 64;
        uint64_t v = rng;
        txn.Write(seg, off, &v, sizeof(v));
      }
      txn.Commit();
    }
    uint64_t sim_ms = (env.kernel->clock().NowNs() - ns_before) / 1'000'000;
    uint64_t forces = env.rm->log_force_count() - forces_before;
    const double us_per_write = sim_ms * 1000.0 / total_writes;
    std::fprintf(stderr, "  %10d %10d %14llu %16llu %14.1f\n", writes_per_txn, txns,
                 (unsigned long long)forces, (unsigned long long)sim_ms, us_per_write);
    std::printf("%s\n  {\"writes_per_txn\": %d, \"txns\": %d, \"log_forces\": %llu, "
                "\"log_io_ms\": %llu, \"us_per_write\": %.1f}",
                sep, writes_per_txn, txns, (unsigned long long)forces,
                (unsigned long long)sim_ms, us_per_write);
    sep = ",";
  }
  std::fprintf(stderr, "  shape: one force per commit — larger transactions amortise it.\n\n");

  // Part 2: WAL rule under memory pressure.
  std::fprintf(stderr, "part 2: WAL enforcement when dirty recoverable pages are evicted\n");
  {
    Env env(64);  // Tiny memory: eviction guaranteed.
    RecoverableSegment seg =
        RecoverableSegment::Map(env.rm.get(), env.task.get(), "big", 128 * kPage).value();
    Transaction txn(env.rm.get());
    for (VmOffset p = 0; p < 128; ++p) {
      uint64_t v = p;
      txn.Write(seg, p * kPage, &v, sizeof(v));
    }
    txn.Commit();
    const unsigned long long pageouts = env.rm->pageout_count();
    const unsigned long long wal_enforced = env.rm->wal_enforced_count();
    std::fprintf(stderr, "  pageouts=%llu  wal-enforced log forces before page writes=%llu\n",
                 pageouts, wal_enforced);
    std::fprintf(stderr,
                 "  shape: every eviction verified the rule; a force was issued exactly\n"
                 "  when records describing the page were still volatile (Sec 8.3:\n"
                 "  \"verifies that the proper log records have been written\").\n\n");
    std::printf("],\n \"wal\": {\"pageouts\": %llu, \"wal_enforced\": %llu},\n",
                pageouts, wal_enforced);
  }

  // Part 3: recovery time vs log length.
  std::fprintf(stderr, "part 3: recovery cost vs log length\n");
  std::fprintf(stderr, "  %12s %14s %16s\n", "log records", "recover ms", "records/ms");
  std::printf(" \"recovery\": [");
  sep = "";
  for (int txns : {50, 200, 800}) {
    Env env(512);
    RecoverableSegment seg =
        RecoverableSegment::Map(env.rm.get(), env.task.get(), "r", 16 * kPage).value();
    uint32_t rng = 3;
    for (int t = 0; t < txns; ++t) {
      Transaction txn(env.rm.get());
      for (int w = 0; w < 2; ++w) {
        rng = rng * 1664525 + 1013904223;
        uint64_t v = rng;
        txn.Write(seg, (rng % 1024) * 64, &v, sizeof(v));
      }
      if (t % 4 == 0) {
        txn.Abort();
      } else {
        txn.Commit();
      }
    }
    env.rm->SimulateCrash();
    auto start = std::chrono::steady_clock::now();
    env.rm->Recover();
    double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                          start)
                    .count();
    int records = txns * 4;  // begin + 2 updates + outcome (approx.)
    std::fprintf(stderr, "  %12d %14.2f %16.0f\n", records, ms, records / (ms > 0 ? ms : 1));
    std::printf("%s\n  {\"log_records\": %d, \"recover_ms\": %.3f}", sep, records, ms);
    sep = ",";
  }
  std::printf("]}\n");
  std::fprintf(stderr, "  shape: recovery cost is linear in log length.\n");
  return 0;
}
