// tenant_txn: E15's multi-tenant transaction mix without chaos. Host 0
// serves mapped files (FsServer), a recoverable ledger (Camelot
// RecoveryManager) and a shared board (4-shard ShmBroker) from 64 frames;
// host 1 (48 frames) reaches them over a reliable NORMA NetLink. Eight
// tenants alternate between the hosts and run round-robin on one thread.
// Modelled on tests/workload/tenant_workload.cc, but driven one transaction
// per op with spans at each manager boundary.
//
// Not yet listed in BENCHMARK.json: its oracles fail on the current kernel
// (lost board increments, and commits past the end of the log disk); see
// NOTES.md, "Known defects".

#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/camelot/recovery_manager.h"
#include "src/managers/fs/fs_server.h"
#include "src/managers/mfs/mapped_file.h"
#include "src/managers/shm/shm_broker.h"
#include "src/net/net_link.h"

namespace perfbench {
namespace {

using mach::IsOk;
using mach::KernReturn;
using mach::VmOffset;
using mach::VmSize;

constexpr VmSize kPage = 4096;
constexpr int kHosts = 2;
constexpr int kTenants = 8;
constexpr uint32_t kServerFrames = 64;
constexpr uint32_t kRemoteFrames = 48;
constexpr VmSize kFilePages = 8;
constexpr VmSize kSlotPages = 4;
constexpr VmSize kBoardPages = 2;
constexpr size_t kShmShards = 4;
constexpr VmSize kLedgerSize = kTenants * kSlotPages * kPage;
constexpr int kWarmupRounds = 4;

uint64_t FileStamp(uint64_t seed, int tenant, VmOffset page) {
  return 0xF11E'0000'0000'0000ull ^ (seed << 24) ^ (uint64_t(tenant) << 12) ^ page;
}

class TenantTxn : public Workload {
 public:
  explicit TenantTxn(uint64_t seed) : seed_(seed), rng_(seed * 0x9E37'79B9'7F4A'7C15ull + 1) {
    mach::Kernel::Config config;
    config.name = "tenant-srv";
    config.frames = kServerFrames;
    config.page_size = kPage;
    config.disk_latency = mach::DiskLatencyModel{200'000, 100};
    config.vm.on_pager_timeout = mach::VmSystem::Config::OnPagerTimeout::kZeroFill;
    hosts_.push_back(std::make_unique<mach::Kernel>(config));
    config.name = "tenant-h1";
    config.frames = kRemoteFrames;
    hosts_.push_back(std::make_unique<mach::Kernel>(config));

    const mach::DiskLatencyModel manager_disk{2'000'000, 200};
    data_disk_ = std::make_unique<mach::SimDisk>(4096, kPage, &hosts_[0]->clock(), manager_disk);
    log_disk_ = std::make_unique<mach::SimDisk>(65536, 512, &hosts_[0]->clock(), manager_disk);
    fs_disk_ = std::make_unique<mach::SimDisk>(4096, kPage, &hosts_[0]->clock(), manager_disk);

    rm_ = std::make_unique<mach::RecoveryManager>(data_disk_.get(), log_disk_.get(), kPage);
    rm_->Start();
    fs_ = std::make_unique<mach::FsServer>(hosts_[0].get(), fs_disk_.get());
    fs_->StartServer();
    // The board's recall deadlines run on the directory's own clock, so
    // idle service passes (paced by wall time) stay out of the virtual
    // time this workload reports.
    mach::ShmOptions shm_options;
    shm_options.page_size = kPage;
    shm_ = std::make_unique<mach::ShmBroker>("board", kShmShards, shm_options);
    shm_->Start();

    mach::NetFaultConfig net;
    net.reliable = true;
    link_ = std::make_unique<mach::NetLink>(&hosts_[0]->vm(), &hosts_[1]->vm(), &net_clock_,
                                            mach::kNormaLatency, net);

    CreateFiles();
    for (int k = 0; k < kTenants; ++k) {
      tenants_[k].id = k;
      tenants_[k].remote = (k % kHosts) == 1;
      setup_ok_ &= SetupTenant(tenants_[k]);
    }
    for (int i = 0; i < kWarmupRounds * kTenants; ++i) {
      setup_ok_ &= Op(0, nullptr);
    }
  }

  ~TenantTxn() override { Shutdown(); }

  // One transaction of the next tenant in round-robin order. Deliberate
  // aborts are successes; error aborts and model mismatches are failures.
  bool Op(int tid, Tracer* tracer) override {
    Tenant& t = tenants_[next_tenant_];
    next_tenant_ = (next_tenant_ + 1) % kTenants;
    if (!setup_ok_) {
      return false;
    }
    bool ok = true;

    // 1. Read-modify-write one page of the tenant's mapped file.
    const VmOffset fpage = rng_() % kFilePages;
    uint64_t got[2] = {0, 0};
    mach::Result<VmSize> read = Timed(tracer, tid, SpanName::kMfsRead, [&] {
      return t.file.ReadAt(fpage * kPage, got, sizeof(got));
    });
    ok &= read.ok() && got[0] == FileStamp(seed_, t.id, fpage) && got[1] == t.file_model[fpage];
    const uint64_t stamp = FileStamp(seed_, t.id, fpage) ^ rng_();
    ok &= Timed(tracer, tid, SpanName::kMfsWrite, [&] {
      return t.file.WriteAt(fpage * kPage + 8, &stamp, sizeof(stamp));
    }) == KernReturn::kSuccess;
    t.file_model[fpage] = stamp;

    // 2. Two failure-atomic ledger writes. The slots are checked against
    // the committed model first: a transaction over a wrong page would
    // capture a wrong undo image.
    std::vector<std::pair<VmSize, uint64_t>> writes;
    for (int w = 0; w < 2; ++w) {
      writes.emplace_back(rng_() % kSlotPages, rng_() | 1);  // Never 0.
    }
    for (const auto& [p, v] : writes) {
      uint64_t cur = 0;
      KernReturn kr = Timed(tracer, tid, SpanName::kVmRead, [&] {
        return t.task->Read(t.ledger.base() + SlotOffset(t.id, p), &cur, sizeof(cur));
      });
      ok &= IsOk(kr) && cur == ledger_model_[t.id][p];
    }
    const bool abort = (rng_() & 7) == 0;  // Deliberate abort: must leave no trace.
    if (!ok) {
      return false;
    }
    mach::Transaction txn(rm_.get());
    for (const auto& [p, v] : writes) {
      ok &= Timed(tracer, tid, SpanName::kCamelotWrite, [&] {
        return txn.Write(t.ledger, SlotOffset(t.id, p), &v, sizeof(v));
      }) == KernReturn::kSuccess;
    }

    // 3. Bump the tenant's slot on the board both hosts write.
    const VmOffset slot = t.shm_base + (uint64_t(t.id) * 64) % (kBoardPages * kPage);
    // Only this tenant writes its slot, so the slot must hold exactly its
    // own increments. A lost increment fails this op once: the model then
    // follows the board, so one loss is not counted on every later op.
    ok &= Timed(tracer, tid, SpanName::kShmBoardRmw, [&] {
      uint64_t board = 0;
      if (!IsOk(t.task->Read(slot, &board, sizeof(board)))) {
        return false;
      }
      const bool matched = board == board_model_[t.id];
      board_model_[t.id] = board + 1;
      return IsOk(t.task->Write(slot, &board_model_[t.id], sizeof(board))) && matched;
    });

    if (!ok || abort) {
      Timed(tracer, tid, SpanName::kCamelotAbort, [&] { return txn.Abort(); });
      return ok;
    }
    if (Timed(tracer, tid, SpanName::kCamelotCommit, [&] { return txn.Commit(); }) !=
        KernReturn::kSuccess) {
      return false;
    }
    for (const auto& [p, v] : writes) {
      ledger_model_[t.id][p] = v;
    }
    return true;
  }

  Counters ReadCounters() override {
    Counters c;
    for (const auto& h : hosts_) {
      AddHost(c, *h);
    }
    AddDisk(c, *data_disk_);
    AddDisk(c, *log_disk_);
    AddDisk(c, *fs_disk_);
    AddLink(c, *link_);
    AddManager(c, *rm_);
    AddManager(c, *fs_);
    AddManager(c, *shm_);
    for (size_t s = 0; s < shm_->shard_count(); ++s) {
      AddManager(c, shm_->shard(s));
    }
    c["virtual.net_ns"] += double(net_clock_.NowNs());
    c["camelot.log_forces"] += double(rm_->log_force_count());
    c["camelot.wal_enforced"] += double(rm_->wal_enforced_count());
    const mach::ShmCounters shm = shm_->aggregate_counters();
    c["shm.ownership_transfers"] += double(shm.ownership_transfers);
    c["shm.recalls"] += double(shm.recalls);
    c["shm.recall_timeouts"] += double(shm.recall_timeouts);
    return c;
  }

  uint64_t FreeFrames() override {
    return std::min(hosts_[0]->phys().free_frames(), hosts_[1]->phys().free_frames());
  }

  // The exactly-once check: with every tenant gone and the link cut, the
  // recovery manager crashes and recovers from its log, and a fresh host
  // (no cached pages) must read a ledger equal to the committed model.
  bool Verify(std::string* why) override {
    link_->SetPartitioned(true);
    for (Tenant& t : tenants_) {
      t.file = mach::MappedFile();
      t.ledger = mach::RecoverableSegment();
      t.task.reset();
    }
    WaitForQuietDataDisk();
    rm_->SimulateCrash();
    rm_->Recover();

    mach::Kernel::Config config;
    config.name = "tenant-verify";
    config.frames = 2 * kLedgerSize / kPage;
    config.page_size = kPage;
    mach::Kernel verifier(config);
    std::shared_ptr<mach::Task> checker = verifier.CreateTask(nullptr, "oracle-checker");
    mach::Result<mach::RecoverableSegment> seg =
        mach::RecoverableSegment::Map(rm_.get(), checker.get(), "ledger", kLedgerSize);
    if (!seg.ok()) {
      *why = "checker could not map the ledger";
      return false;
    }
    for (int k = 0; k < kTenants; ++k) {
      for (VmSize p = 0; p < kSlotPages; ++p) {
        mach::Result<uint64_t> v =
            checker->ReadValue<uint64_t>(seg.value().base() + SlotOffset(k, p));
        if (!v.ok() || v.value() != ledger_model_[k][p]) {
          *why = "ledger slot " + std::to_string(k) + "/" + std::to_string(p) +
                 " differs from the committed model";
          return false;
        }
      }
    }
    return true;
  }

 private:
  struct Tenant {
    int id = 0;
    bool remote = false;
    std::shared_ptr<mach::Task> task;
    mach::MappedFile file;
    mach::RecoverableSegment ledger;
    VmOffset shm_base = 0;
    uint64_t file_model[kFilePages] = {};  // Word 1 of each file page.
  };

  static VmOffset SlotOffset(int tenant, VmSize page) {
    return (uint64_t(tenant) * kSlotPages + page) * kPage;
  }

  void CreateFiles() {
    std::shared_ptr<mach::Task> admin = hosts_[0]->CreateTask(nullptr, "fs-admin");
    mach::FsClient client(admin.get(), fs_->service_port());
    const VmSize span = kFilePages * kPage;
    const VmOffset buf = admin->VmAllocate(span).value();
    for (int k = 0; k < kTenants; ++k) {
      for (VmOffset p = 0; p < kFilePages; ++p) {
        setup_ok_ &= IsOk(admin->WriteValue(buf + p * kPage, FileStamp(seed_, k, p)));
        setup_ok_ &= IsOk(admin->WriteValue(buf + p * kPage + 8, uint64_t(0)));
      }
      const std::string name = "f" + std::to_string(k);
      setup_ok_ &= IsOk(client.Create(name));
      setup_ok_ &= IsOk(client.WriteFile(name, buf, span));
    }
    admin->VmDeallocate(buf, span);
  }

  // Remote tenants reach every manager through proxies, so their paging
  // traffic crosses the wire; the transaction library's log calls stay
  // direct (a local library over the shared manager, §8.3).
  bool SetupTenant(Tenant& t) {
    mach::Kernel& host = *hosts_[t.remote ? 1 : 0];
    t.task = host.CreateTask(nullptr, "tenant-" + std::to_string(t.id));
    auto via = [&](mach::SendRight right) {
      return t.remote ? link_->ProxyForB(std::move(right)) : right;
    };

    mach::Result<mach::MappedFile> file = mach::MappedFile::Open(
        t.task.get(), via(fs_->service_port()), "f" + std::to_string(t.id), kFilePages * kPage);
    if (!file.ok()) {
      return false;
    }
    t.file = file.value();

    mach::Result<VmOffset> base =
        t.task->VmAllocateWithPager(kLedgerSize, via(rm_->OpenSegment("ledger", kLedgerSize)), 0);
    if (!base.ok()) {
      return false;
    }
    t.ledger = mach::RecoverableSegment(rm_->SegmentId("ledger"), base.value(), kLedgerSize,
                                       t.task.get());

    mach::ShmRegionInfoArgs info;
    if (t.remote) {
      mach::Result<mach::ShmRegionInfoArgs> remote = mach::ShmBroker::GetRegionVia(
          via(shm_->service_port()), "board", kBoardPages * kPage);
      if (!remote.ok()) {
        return false;
      }
      info = remote.value();
    } else {
      info = shm_->GetRegion("board", kBoardPages * kPage);
    }
    mach::Result<VmOffset> board = mach::ShmBroker::MapRegion(*t.task, info);
    if (!board.ok()) {
      return false;
    }
    t.shm_base = board.value();
    return true;
  }

  // Write-backs from the dropped tenants reach the data disk
  // asynchronously; recovery starts once they have stopped (bounded).
  void WaitForQuietDataDisk() {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    uint64_t last = data_disk_->write_ops();
    int quiet = 0;
    while (quiet < 5 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const uint64_t now = data_disk_->write_ops();
      quiet = now == last ? quiet + 1 : 0;
      last = now;
    }
  }

  // Dependency order: tenants, wire, managers, then hosts (declared first).
  void Shutdown() {
    for (Tenant& t : tenants_) {
      t.file = mach::MappedFile();
      t.ledger = mach::RecoverableSegment();
      t.task.reset();
    }
    link_.reset();
    shm_->Stop();
    shm_.reset();
    fs_->StopServer();
    fs_.reset();
    rm_->Stop();
    rm_.reset();
  }

  const uint64_t seed_;
  std::mt19937_64 rng_;
  mach::SimClock net_clock_;
  std::vector<std::unique_ptr<mach::Kernel>> hosts_;
  std::unique_ptr<mach::SimDisk> data_disk_;
  std::unique_ptr<mach::SimDisk> log_disk_;
  std::unique_ptr<mach::SimDisk> fs_disk_;
  std::unique_ptr<mach::RecoveryManager> rm_;
  std::unique_ptr<mach::FsServer> fs_;
  std::unique_ptr<mach::ShmBroker> shm_;
  std::unique_ptr<mach::NetLink> link_;
  Tenant tenants_[kTenants];
  int next_tenant_ = 0;
  // ledger_model_[tenant][slot]: the value the last committed transaction
  // wrote; board_model_[tenant]: the tenant's board increments so far.
  uint64_t ledger_model_[kTenants][kSlotPages] = {};
  uint64_t board_model_[kTenants] = {};
  bool setup_ok_ = true;
};

}  // namespace

std::unique_ptr<Workload> MakeTenantTxn(uint64_t seed) {
  return std::make_unique<TenantTxn>(seed);
}

}  // namespace perfbench
