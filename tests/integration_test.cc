// Cross-module integration scenarios from the paper's application sections:
// the Agora-style blackboard (§8.4, shared memory + messages across hosts),
// a UNIX-emulation pipeline over mapped files (§8.1), and services
// coexisting on one kernel.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/camelot/recovery_manager.h"
#include "src/managers/fs/fs_server.h"
#include "src/managers/mfs/mapped_file.h"
#include "src/managers/migrate/migration_manager.h"
#include "src/managers/shm/shm_broker.h"
#include "src/net/net_link.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

std::unique_ptr<Kernel> MakeHost(const std::string& name) {
  Kernel::Config config;
  config.name = name;
  config.frames = 192;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  return std::make_unique<Kernel>(config);
}

TEST(IntegrationTest, AgoraStyleBlackboard) {
  // §8.4: "Both communication and memory sharing are used to implement a
  // shared blackboard structure in which hypotheses are placed and
  // evaluated by multiple cooperating agents." Agents on two hosts write
  // hypotheses into shared memory and announce them with messages.
  auto host_a = MakeHost("speech-a");
  auto host_b = MakeHost("speech-b");
  ShmBroker shm("shm", 1, ShmOptions{});
  shm.Start();

  std::shared_ptr<Task> agent_a = host_a->CreateTask(nullptr, "acoustic");
  std::shared_ptr<Task> agent_b = host_b->CreateTask(nullptr, "semantic");
  ShmRegionInfoArgs board = shm.GetRegion("blackboard", 4 * kPage);
  VmOffset a = ShmBroker::MapRegion(*agent_a, board).value();
  VmOffset b = ShmBroker::MapRegion(*agent_b, board).value();

  PortPair announce = PortAllocate("announce");

  // Agent A posts 16 hypotheses to the blackboard, announcing each.
  std::shared_ptr<Thread> poster = agent_a->SpawnThread([&, a](Thread& self) {
    for (uint32_t i = 0; i < 16; ++i) {
      uint64_t hypothesis = 0x1111000000000000ull + i;
      self.task().WriteValue<uint64_t>(a + i * 64, hypothesis);
      Message msg(1);
      msg.PushU32(i);
      MsgSend(announce.send, std::move(msg), std::chrono::seconds(5));
    }
  });

  // Agent B consumes announcements and evaluates directly from shared
  // memory, writing verdicts next to each hypothesis.
  std::atomic<int> evaluated{0};
  std::shared_ptr<Thread> evaluator = agent_b->SpawnThread([&, b](Thread& self) {
    for (int n = 0; n < 16; ++n) {
      Result<Message> msg = MsgReceive(announce.receive, std::chrono::seconds(10));
      if (!msg.ok()) {
        return;
      }
      uint32_t slot = msg.value().TakeU32().value_or(0);
      // Coherence may lag the announcement: poll the blackboard slot.
      uint64_t hypothesis = 0;
      for (int tries = 0; tries < 2000; ++tries) {
        hypothesis = self.task().ReadValue<uint64_t>(b + slot * 64).value_or(0);
        if (hypothesis != 0) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (hypothesis == 0x1111000000000000ull + slot) {
        self.task().WriteValue<uint64_t>(b + slot * 64 + 8, ~hypothesis);
        evaluated.fetch_add(1);
      }
    }
  });
  poster->Join();
  evaluator->Join();
  EXPECT_EQ(evaluated.load(), 16);
  // Agent A sees B's verdicts through the same shared memory.
  for (uint32_t i = 0; i < 16; ++i) {
    uint64_t verdict = 0;
    for (int tries = 0; tries < 2000; ++tries) {
      verdict = agent_a->ReadValue<uint64_t>(a + i * 64 + 8).value_or(0);
      if (verdict != 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(verdict, ~(0x1111000000000000ull + i)) << "slot " << i;
  }
  agent_a.reset();
  agent_b.reset();
  shm.Stop();
}

TEST(IntegrationTest, UnixEmulationPipeline) {
  // §8.1: "UNIX filesystem I/O can be emulated by a library package"; a
  // two-stage pipeline: stage 1 writes a "preprocessed" file via mapped
  // I/O; stage 2 reads it, transforms, and writes the "object" file.
  auto host = MakeHost("unix");
  SimDisk fs_disk(4096, kPage, &host->clock(), DiskLatencyModel{0, 0});
  FsServer fs(host.get(), &fs_disk);
  fs.StartServer();
  std::shared_ptr<Task> user = host->CreateTask(nullptr, "cc");
  FsClient client(user.get(), fs.service_port());

  ASSERT_EQ(client.Create("main.c"), KernReturn::kSuccess);
  ASSERT_EQ(client.Create("main.i"), KernReturn::kSuccess);
  ASSERT_EQ(client.Create("main.o"), KernReturn::kSuccess);

  // Seed the source file.
  {
    MappedFile src = MappedFile::Open(user.get(), fs.service_port(), "main.c", 2 * kPage).value();
    std::string code = "int main() { return 42; }\n";
    ASSERT_EQ(src.Write(code.data(), code.size()), KernReturn::kSuccess);
    ASSERT_EQ(src.Close(), KernReturn::kSuccess);
  }
  // Stage 1: "preprocess" = uppercase into main.i.
  {
    MappedFile in = MappedFile::Open(user.get(), fs.service_port(), "main.c").value();
    MappedFile out = MappedFile::Open(user.get(), fs.service_port(), "main.i", 2 * kPage).value();
    std::vector<char> buf(in.size());
    ASSERT_TRUE(in.Read(buf.data(), buf.size()).ok());
    for (char& c : buf) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    ASSERT_EQ(out.Write(buf.data(), buf.size()), KernReturn::kSuccess);
    in.Close();
    ASSERT_EQ(out.Close(), KernReturn::kSuccess);
  }
  // Stage 2: "compile" = checksum into main.o.
  {
    MappedFile in = MappedFile::Open(user.get(), fs.service_port(), "main.i").value();
    MappedFile out = MappedFile::Open(user.get(), fs.service_port(), "main.o", kPage).value();
    std::vector<char> buf(in.size());
    ASSERT_TRUE(in.Read(buf.data(), buf.size()).ok());
    uint64_t checksum = 0;
    for (char c : buf) {
      checksum = checksum * 131 + static_cast<unsigned char>(c);
    }
    ASSERT_EQ(out.Write(&checksum, sizeof(checksum)), KernReturn::kSuccess);
    ASSERT_EQ(out.Close(), KernReturn::kSuccess);
  }
  // Verify the pipeline output via the whole-file API.
  Result<FsClient::ReadResult> obj = client.ReadFile("main.o");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj.value().size, sizeof(uint64_t));
  uint64_t checksum = 0;
  ASSERT_EQ(user->Read(obj.value().address, &checksum, sizeof(checksum)), KernReturn::kSuccess);
  std::string expect = "INT MAIN() { RETURN 42; }\n";
  uint64_t want = 0;
  for (char c : expect) {
    want = want * 131 + static_cast<unsigned char>(c);
  }
  EXPECT_EQ(checksum, want);
  user.reset();
  fs.StopServer();
}

TEST(IntegrationTest, MigrateTaskThatUsesMappedFile) {
  // A task reading a mapped file migrates; on the destination it keeps
  // working against its (copy-on-reference) address space.
  auto host_a = MakeHost("m-a");
  auto host_b = MakeHost("m-b");
  SimDisk fs_disk(1024, kPage, &host_a->clock(), DiskLatencyModel{0, 0});
  FsServer fs(host_a.get(), &fs_disk);
  fs.StartServer();
  std::shared_ptr<Task> worker = host_a->CreateTask(nullptr, "worker");
  FsClient client(worker.get(), fs.service_port());
  ASSERT_EQ(client.Create("input"), KernReturn::kSuccess);
  {
    MappedFile f = MappedFile::Open(worker.get(), fs.service_port(), "input", kPage).value();
    uint64_t seed = 31337;
    ASSERT_EQ(f.Write(&seed, sizeof(seed)), KernReturn::kSuccess);
    ASSERT_EQ(f.Close(), KernReturn::kSuccess);
  }
  // Load the input into anonymous memory (the working state to migrate).
  Result<FsClient::ReadResult> in = client.ReadFile("input");
  ASSERT_TRUE(in.ok());
  uint64_t seed = worker->ReadValue<uint64_t>(in.value().address).value();
  VmOffset state = worker->VmAllocate(kPage).value();
  ASSERT_EQ(worker->WriteValue<uint64_t>(state, seed * 2), KernReturn::kSuccess);

  MigrationManager migrator;
  migrator.Start();
  MigrationManager::Options options;
  std::shared_ptr<Task> moved = migrator.Migrate(worker, host_b.get(), options).value();
  EXPECT_EQ(moved->ReadValue<uint64_t>(state).value(), 31337u * 2);
  EXPECT_EQ(moved->ReadValue<uint64_t>(in.value().address).value(), 31337u);
  moved.reset();
  worker.reset();
  migrator.Stop();
  fs.StopServer();
}

TEST(IntegrationTest, TransactionalStateSharedWithFilesystem) {
  // Camelot and the filesystem coexist as independent data managers on one
  // kernel — the paper's "the actual system running on any particular
  // machine is more a function of its servers than its kernel" (§3.2).
  auto host = MakeHost("combo");
  SimDisk fs_disk(1024, kPage, &host->clock(), DiskLatencyModel{0, 0});
  SimDisk data_disk(1024, kPage, &host->clock(), DiskLatencyModel{0, 0});
  SimDisk log_disk(2048, 512, &host->clock(), DiskLatencyModel{0, 0});
  FsServer fs(host.get(), &fs_disk);
  fs.StartServer();
  RecoveryManager rm(&data_disk, &log_disk, kPage);
  rm.Start();

  std::shared_ptr<Task> app = host->CreateTask(nullptr, "app");
  FsClient files(app.get(), fs.service_port());
  RecoverableSegment ledger =
      RecoverableSegment::Map(&rm, app.get(), "ledger", kPage).value();

  // Transactionally record a value, then export it to a file.
  {
    Transaction txn(&rm);
    uint64_t total = 123456;
    ASSERT_EQ(txn.Write(ledger, 0, &total, sizeof(total)), KernReturn::kSuccess);
    ASSERT_EQ(txn.Commit(), KernReturn::kSuccess);
  }
  ASSERT_EQ(files.Create("report"), KernReturn::kSuccess);
  uint64_t total = app->ReadValue<uint64_t>(ledger.base()).value();
  VmOffset buf = app->VmAllocate(kPage).value();
  ASSERT_EQ(app->WriteValue<uint64_t>(buf, total), KernReturn::kSuccess);
  ASSERT_EQ(files.WriteFile("report", buf, sizeof(total)), KernReturn::kSuccess);

  Result<FsClient::ReadResult> report = files.ReadFile("report");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(app->ReadValue<uint64_t>(report.value().address).value(), 123456u);
  app.reset();
  rm.Stop();
  fs.StopServer();
}

TEST(IntegrationTest, SixteenTasksHammerOneKernel) {
  // Stress: many tasks with mixed anonymous/file workloads under memory
  // pressure, all sharing one kernel's cache.
  auto host = MakeHost("stress");
  std::vector<std::shared_ptr<Task>> tasks;
  std::vector<std::shared_ptr<Thread>> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 16; ++t) {
    tasks.push_back(host->CreateTask(nullptr, "stress" + std::to_string(t)));
    threads.push_back(tasks.back()->SpawnThread([t, &failures](Thread& self) {
      Result<VmOffset> addr = self.task().VmAllocate(24 * kPage);
      if (!addr.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 3; ++round) {
        for (VmOffset p = 0; p < 24; ++p) {
          uint64_t v = (uint64_t{static_cast<uint64_t>(t)} << 32) | (round * 100 + p);
          if (!IsOk(self.task().WriteValue<uint64_t>(addr.value() + p * kPage, v))) {
            failures.fetch_add(1);
            return;
          }
        }
        for (VmOffset p = 0; p < 24; ++p) {
          uint64_t expect = (uint64_t{static_cast<uint64_t>(t)} << 32) | (round * 100 + p);
          Result<uint64_t> got = self.task().ReadValue<uint64_t>(addr.value() + p * kPage);
          if (!got.ok() || got.value() != expect) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    }));
  }
  for (auto& t : threads) {
    t->Join();
  }
  EXPECT_EQ(failures.load(), 0);
  VmStatistics st = host->vm().Statistics();
  EXPECT_GT(st.pageouts, 0u);  // 16*24 pages >> 192 frames: paging happened.
  tasks.clear();
}

}  // namespace
}  // namespace mach
