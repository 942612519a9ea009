// E2 (§9): "In a large system compilation, the total number of I/O
// operations can be reduced by a factor of 10."
//
// A large build whose working set dwarfs the traditional 10% buffer cache
// but fits the Mach page cache. Each I/O system performs the identical
// multi-pass build (the large shared-header re-reference pattern of system
// builds); the reported metric is the ratio of disk operations.
//
// Output: one JSON object on stdout; the human-readable table on stderr.

#include <cstdio>

#include "bench/compile_workload.h"

using namespace mach_bench;

int main() {
  std::fprintf(stderr, "E2: large system compilation — total I/O operations\n\n");
  std::fprintf(stderr, "%-10s %-10s %12s %12s %12s %10s\n", "modules", "headers", "mach ops",
               "trad ops", "reduction", "");
  std::printf("{\"bench\": \"io_reduction\", \"rows\": [");

  // Sweep build sizes; the reduction grows as the shared-header working set
  // outgrows the 10% buffer cache (102 blocks on this 4 MB machine) while
  // staying inside the Mach page cache. Steady state: each environment is
  // measured on its second build.
  struct Row {
    int modules;
    int headers;
  };
  const Row rows[] = {{12, 12}, {16, 16}, {32, 24}, {48, 32}};
  const char* sep = "";
  for (const Row& row : rows) {
    CompileConfig config;
    config.frames = 1024;  // 4 MB machine: 10% buffer cache = 102 blocks.
    config.modules = row.modules;
    config.headers = row.headers;
    config.header_pages = 6;
    uint64_t mach_ops = 0, trad_ops = 0;
    {
      // Whole cold build: Mach reads each file from disk once; after that
      // the page cache serves every re-reference.
      MachBuildEnv env(config);
      mach_ops = env.Build().disk_ops;
    }
    {
      TraditionalBuildEnv env(config);
      trad_ops = env.Build().disk_ops;
    }
    const double reduction = static_cast<double>(trad_ops) / (mach_ops ? mach_ops : 1);
    std::fprintf(stderr, "%-10d %-10d %12llu %12llu %11.1fx %10s\n", row.modules, row.headers,
                 (unsigned long long)mach_ops, (unsigned long long)trad_ops, reduction,
                 row.modules == 48 ? "(paper: ~10x)" : "");
    std::printf("%s\n  {\"modules\": %d, \"headers\": %d, \"mach_disk_ops\": %llu, "
                "\"traditional_disk_ops\": %llu, \"reduction\": %.2f}",
                sep, row.modules, row.headers, (unsigned long long)mach_ops,
                (unsigned long long)trad_ops, reduction);
    sep = ",";
  }
  std::printf("\n]}\n");
  std::fprintf(stderr,
               "\nshape: the traditional path re-reads every shared header per module\n"
               "once the 10%% buffer cache thrashes; the Mach path reads each header\n"
               "from disk once and serves the rest from the page cache.\n");
  return 0;
}
