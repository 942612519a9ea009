// Multi-tenant transactional file serving: the repo's end-to-end "traffic"
// workload, reusable by bench_tenant_serving (full scale) and the chaos
// soak (small scale, 10 seeds).
//
// Topology: host 0 runs the servers — an FsServer (mapped files), a Camelot
// RecoveryManager (one shared recoverable ledger segment), and a sharded
// ShmBroker (a shared stats board). T tenant tasks are spread round-robin
// over H simulated hosts; tenants on hosts 1..H-1 reach every server
// through a reliable NetLink (their paging traffic crosses the simulated
// wire), tenants on host 0 are local. Each transaction reads and rewrites
// the tenant's private mapped file, makes two transactional writes into the
// tenant's own page range of the ledger, and bumps its slot on the shm
// board. The server host's frame pool is deliberately small, so dirty file
// and ledger pages page out mid-run — the pageout-clustering pressure arm.
//
// Chaos mode arms the data-disk, net fragment/ack/reorder and shm
// forward-drop/stale-hint fault points, and injects a mid-run crash: the
// first remote host's link partitions until the failure detector declares
// the peer dead, the recovery manager crashes and recovers, the link heals,
// and the dead host's tenants rebuild their mappings. Recovery time is the
// virtual time from heal to their next committed transaction.
//
// Every measurement is over virtual time (the sum of all host clocks plus
// the network clock); the driver runs tenants round-robin on one thread so
// per-transaction clock deltas are attributable.
//
// Correctness oracle (exactly-once): each committed transaction's slot
// writes are recorded in a model; at the end the manager crashes once more
// and recovers from the log on clean disks, and the recovered ledger must
// equal the model exactly — a committed transaction survives exactly once,
// an aborted one leaves no trace.

#ifndef TESTS_WORKLOAD_TENANT_WORKLOAD_H_
#define TESTS_WORKLOAD_TENANT_WORKLOAD_H_

#include <cstdint>

#include "src/base/histogram.h"
#include "src/base/vm_types.h"

namespace mach {

struct TenantWorkloadOptions {
  int hosts = 1;    // >= 1; hosts - 1 remote kernels, each behind a NetLink.
  int tenants = 4;  // Tenant k lives on host (k % hosts).
  int txns_per_tenant = 24;

  uint32_t server_frames = 64;  // Host 0's pool: small enough to page out.
  uint32_t tenant_frames = 64;  // Remote hosts' pools.

  // Chaos: arm the fault points and run the mid-run crash + heal.
  bool chaos = false;
  uint64_t seed = 1;

  int shm_shards = 4;
  VmSize file_pages = 8;  // Per-tenant mapped file size.
  VmSize slot_pages = 4;  // Ledger pages owned by each tenant.
};

struct TenantWorkloadResult {
  // Transactions.
  uint64_t committed = 0;
  uint64_t aborted = 0;        // Deliberate aborts plus error-path aborts.
  uint64_t error_aborts = 0;   // Aborts forced by an I/O or mapping error.
  Histogram latency;           // Virtual ns per committed transaction.
  uint64_t virtual_ns = 0;     // Total virtual makespan of the run.

  // Crash + heal (chaos mode; zero otherwise).
  uint64_t camelot_recover_ns = 0;  // Virtual cost of the mid-run Recover().
  uint64_t heal_ns = 0;  // Heal -> first commit from the crashed host.

  // Exactly-once oracle (always evaluated).
  bool oracle_ok = false;
  uint64_t slot_mismatches = 0;

  // Server-host VM counters (pageout clustering observability).
  uint64_t pageouts = 0;          // Pages written back by pageout paths.
  uint64_t pageout_runs = 0;      // pager_data_write messages those took.
  uint64_t pageout_run_pages = 0; // Pages carried by those messages.

  // Manager / transport / shm counters.
  uint64_t wal_enforced = 0;
  uint64_t deferred_pageouts = 0;
  uint64_t io_errors = 0;
  uint64_t bytes_retransmitted = 0;
  uint64_t fragments_retransmitted = 0;
  uint64_t messages_lost = 0;
  uint64_t peer_dead_events = 0;
  uint64_t shm_forward_drops = 0;

  // Teardown-to-baseline checks.
  // After teardown every server frame is free or on a paging queue (cached
  // persisting-object pages are reclaimable, not leaked); false means a
  // frame was stuck busy or holding an orphaned placeholder.
  bool frames_drained = false;
  int64_t ports_leaked = 0;     // Live-port delta across the whole run.
};

// Builds the cluster, runs the workload, tears everything down, and
// returns the measurements. Synchronous; no gtest dependencies.
TenantWorkloadResult RunTenantWorkload(const TenantWorkloadOptions& options);

}  // namespace mach

#endif  // TESTS_WORKLOAD_TENANT_WORKLOAD_H_
