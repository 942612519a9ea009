// remote_files: a client task on host B maps 16 files served by an
// FsServer on host A, across a reliable NetLink with NORMA latency and a
// seeded 1% fragment drop. The mapped set is 4x the client's memory, so the
// external-pager path (pager_data_request / provided / write over the wire,
// fault-ahead, pageout) does most of the work.

#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/base/fault_injector.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/fs/fs_server.h"
#include "src/managers/mfs/mapped_file.h"
#include "src/net/net_link.h"

namespace perfbench {
namespace {

using mach::IsOk;
using mach::VmOffset;
using mach::VmSize;

constexpr VmSize kPage = 4096;
constexpr int kFiles = 16;
constexpr uint64_t kFilePages = 64;
constexpr uint32_t kServerFrames = 4096;
constexpr uint32_t kClientFrames = 256;
constexpr double kFragDrop = 0.01;
constexpr int kWarmupOps = 256;

// Page contents: the first word of every page names its file, page and
// write sequence number, so a value read from anywhere can be checked
// without a copy of the file.
uint64_t Encode(uint64_t file, uint64_t page, uint64_t seq) {
  return (file << 56) | (page << 40) | seq;
}

std::string FileName(int f) { return "rf" + std::to_string(f); }

class RemoteFiles : public Workload {
 public:
  explicit RemoteFiles(uint64_t seed)
      : faults_(seed), rng_(seed * 0x9E37'79B9'7F4A'7C15ull + 7) {
    faults_.SetProbability(mach::NetLink::kFaultFragDrop, kFragDrop);

    mach::Kernel::Config config;
    config.page_size = kPage;
    config.disk_latency = mach::DiskLatencyModel{200'000, 100};
    config.name = "files-a";
    config.frames = kServerFrames;
    server_host_ = std::make_unique<mach::Kernel>(config);
    config.name = "files-b";
    config.frames = kClientFrames;
    client_host_ = std::make_unique<mach::Kernel>(config);

    fs_disk_ = std::make_unique<mach::SimDisk>(4096, kPage, &server_host_->clock(),
                                               mach::DiskLatencyModel{2'000'000, 200});
    fs_ = std::make_unique<mach::FsServer>(server_host_.get(), fs_disk_.get());
    fs_->StartServer();

    mach::NetFaultConfig net;
    net.injector = &faults_;
    net.reliable = true;
    link_ = std::make_unique<mach::NetLink>(&server_host_->vm(), &client_host_->vm(),
                                            &net_clock_, mach::kNormaLatency, net);

    CreateFiles();
    client_ = client_host_->CreateTask(nullptr, "files-client");
    mach::SendRight service = link_->ProxyForB(fs_->service_port());
    reader_ = std::make_unique<mach::FsClient>(client_.get(), service);
    for (int f = 0; f < kFiles; ++f) {
      mach::Result<mach::MappedFile> file =
          mach::MappedFile::Open(client_.get(), service, FileName(f), kFilePages * kPage);
      setup_ok_ &= file.ok();
      files_.push_back(file.ok() ? file.value() : mach::MappedFile());
    }
    for (int i = 0; i < kWarmupOps; ++i) {
      setup_ok_ &= Op(0, nullptr);
    }
  }

  ~RemoteFiles() override {
    files_.clear();
    reader_.reset();
    client_.reset();
    link_.reset();
    fs_->StopServer();
  }

  bool Op(int tid, Tracer* tracer) override {
    if (!setup_ok_) {
      return false;
    }
    const uint64_t kind = rng_() % 16;
    const int f = int(rng_() % kFiles);
    mach::MappedFile& file = files_[f];
    auto read = [&](uint64_t page) {
      uint64_t v = 0;
      mach::Result<VmSize> got = file.ReadAt(page * kPage, &v, sizeof(v));
      return got.ok() && got.value() == sizeof(v) && v == Encode(f, page, seq_[f][page]);
    };

    if (kind < 9) {  // 9/16: random 8-byte page read.
      const uint64_t page = rng_() % kFilePages;
      return Timed(tracer, tid, SpanName::kMfsRead, [&] { return read(page); });
    }
    if (kind < 13) {  // 4/16: random page write.
      const uint64_t page = rng_() % kFilePages;
      const uint64_t v = Encode(f, page, ++seq_[f][page]);
      return Timed(tracer, tid, SpanName::kMfsWrite, [&] {
        return file.WriteAt(page * kPage, &v, sizeof(v)) == mach::KernReturn::kSuccess;
      });
    }
    if (kind < 15) {  // 2/16: sequential scan of a whole file (fault-ahead).
      return Timed(tracer, tid, SpanName::kMfsScan, [&] {
        bool ok = true;
        for (uint64_t page = 0; page < kFilePages; ++page) {
          ok &= read(page);
        }
        return ok;
      });
    }
    // 1/16: whole-file fs_read_file; the OOL reply is flattened on the wire.
    mach::Result<mach::FsClient::ReadResult> whole =
        Timed(tracer, tid, SpanName::kFsReadFile, [&] { return reader_->ReadFile(FileName(f)); });
    if (!whole.ok()) {
      return false;
    }
    bool ok = whole.value().size == kFilePages * kPage;
    for (uint64_t page = 0; ok && page < kFilePages; ++page) {
      // The server's copy may lag the client's dirty pages (nothing makes
      // the two kernels' caches coherent), so any value this page has held
      // is correct: right file and page, sequence not ahead of the model.
      uint64_t v = 0;
      ok &= IsOk(client_->Read(whole.value().address + page * kPage, &v, sizeof(v)));
      ok &= (v >> 40) == ((uint64_t(f) << 16) | page) && (v & kSeqMask) >= 1 &&
            (v & kSeqMask) <= seq_[f][page];
    }
    ok &= IsOk(client_->VmDeallocate(whole.value().address, whole.value().size));
    return ok;
  }

  Counters ReadCounters() override {
    Counters c;
    AddHost(c, *server_host_);
    AddHost(c, *client_host_);
    AddDisk(c, *fs_disk_);
    AddLink(c, *link_);
    AddManager(c, *fs_);
    c["virtual.net_ns"] += double(net_clock_.NowNs());
    return c;
  }

  uint64_t FreeFrames() override {
    return std::min(server_host_->phys().free_frames(), client_host_->phys().free_frames());
  }

  // Close() syncs every file; once the write-backs have landed, a fresh
  // host maps each file and every page must match the model exactly.
  bool Verify(std::string* why) override {
    for (int f = 0; f < kFiles; ++f) {
      if (files_[f].Close() != mach::KernReturn::kSuccess) {
        *why = "close of " + FileName(f) + " failed";
        return false;
      }
    }
    if (!WaitForWriteBacks()) {
      *why = "write-backs did not settle";
      return false;
    }
    // A fresh kernel has no cached copy, so its reads are served from the
    // server's stored pages (host A's own cache is not coherent with B's
    // write-backs and would show the pre-write values).
    mach::Kernel::Config config;
    config.name = "files-verify";
    config.frames = 2 * kFiles * kFilePages;
    config.page_size = kPage;
    mach::Kernel verifier(config);
    std::shared_ptr<mach::Task> task = verifier.CreateTask(nullptr, "verify");
    for (int f = 0; f < kFiles; ++f) {
      mach::Result<mach::MappedFile> file =
          mach::MappedFile::Open(task.get(), fs_->service_port(), FileName(f));
      if (!file.ok()) {
        *why = "verifier could not map " + FileName(f);
        return false;
      }
      for (uint64_t page = 0; page < kFilePages; ++page) {
        uint64_t v = 0;
        mach::Result<VmSize> got = file.value().ReadAt(page * kPage, &v, sizeof(v));
        if (!got.ok() || v != Encode(f, page, seq_[f][page])) {
          *why = FileName(f) + " page " + std::to_string(page) + " differs from the model";
          return false;
        }
      }
      file.value().CloseLazy();
    }
    return true;
  }

 private:
  static constexpr uint64_t kSeqMask = (1ull << 40) - 1;

  void CreateFiles() {
    std::shared_ptr<mach::Task> admin = server_host_->CreateTask(nullptr, "files-admin");
    mach::FsClient client(admin.get(), fs_->service_port());
    const VmSize span = kFilePages * kPage;
    const VmOffset buf = admin->VmAllocate(span).value();
    for (int f = 0; f < kFiles; ++f) {
      for (uint64_t page = 0; page < kFilePages; ++page) {
        seq_[f][page] = 1;
        setup_ok_ &= IsOk(admin->WriteValue(buf + page * kPage, Encode(f, page, 1)));
      }
      setup_ok_ &= IsOk(client.Create(FileName(f)));
      setup_ok_ &= IsOk(client.WriteFile(FileName(f), buf, span));
    }
    admin->VmDeallocate(buf, span);
  }

  // The sync replies before the kernels' write-backs cross the wire; wait
  // until the wire, the server's disk and the client's pageouts are all
  // quiet for 100 ms.
  bool WaitForWriteBacks() {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    auto snapshot = [&] {
      return std::vector<uint64_t>{link_->messages_forwarded(), fs_disk_->write_ops(),
                                   client_host_->vm().Statistics().pageouts};
    };
    std::vector<uint64_t> last = snapshot();
    int quiet = 0;
    while (quiet < 10 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      std::vector<uint64_t> now = snapshot();
      quiet = now == last ? quiet + 1 : 0;
      last = now;
    }
    return quiet >= 10;
  }

  mach::FaultInjector faults_;
  mach::SimClock net_clock_;
  std::mt19937_64 rng_;
  std::unique_ptr<mach::Kernel> server_host_;
  std::unique_ptr<mach::Kernel> client_host_;
  std::unique_ptr<mach::SimDisk> fs_disk_;
  std::unique_ptr<mach::FsServer> fs_;
  std::unique_ptr<mach::NetLink> link_;
  std::shared_ptr<mach::Task> client_;
  std::unique_ptr<mach::FsClient> reader_;
  std::vector<mach::MappedFile> files_;
  uint64_t seq_[kFiles][kFilePages] = {};  // Last write sequence of each page.
  bool setup_ok_ = true;
};

}  // namespace

std::unique_ptr<Workload> MakeRemoteFiles(uint64_t seed) {
  return std::make_unique<RemoteFiles>(seed);
}

}  // namespace perfbench
