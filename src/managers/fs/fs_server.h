// The minimal filesystem of §4.1: a whole-file read / whole-file write
// server that doubles as the data manager for its files' memory objects.
//
// fs_read_file returns the file contents as out-of-line memory: the server
// maps the file's memory object into its *own* address space
// (vm_allocate_with_pager) and replies with a copy-on-write map copy, so the
// client receives new virtual memory whose pages are demand-fetched from
// this server — the paper's exact structure. Because the server permits
// caching (pager_cache), repeatedly read files are served from the kernel's
// physical memory cache with no disk traffic (§9).
//
// Files live on the server's own SimDisk, one block per page, in a flat
// directory.

#ifndef SRC_MANAGERS_FS_FS_SERVER_H_
#define SRC_MANAGERS_FS_FS_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/hw/sim_disk.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/pager/data_manager.h"

namespace mach {

// File API message ids (client -> server service port).
inline constexpr MsgId kMsgFsReadFile = 0x46530001;
inline constexpr MsgId kMsgFsWriteFile = 0x46530002;
inline constexpr MsgId kMsgFsCreate = 0x46530003;
inline constexpr MsgId kMsgFsDelete = 0x46530004;
inline constexpr MsgId kMsgFsStat = 0x46530005;
// Mapped-file extension (§8.1 UNIX emulation): returns the file's memory
// object so clients can map it directly ("read and write calls would
// operate directly on virtual memory").
inline constexpr MsgId kMsgFsOpenMapped = 0x46530006;
inline constexpr MsgId kMsgFsSetSize = 0x46530007;
inline constexpr MsgId kMsgFsSync = 0x46530008;
// Replies carry: u32 KernReturn [, u64 size][, OOL data][, port].

class FsServer : public DataManager {
 public:
  // The server runs as a task on `kernel` and stores files on `disk`
  // (which must have block_size == kernel page size).
  FsServer(Kernel* kernel, SimDisk* disk);
  ~FsServer() override;

  // The port clients send file API requests to.
  const SendRight& service_port() const { return service_send_; }

  void StartServer();
  void StopServer();

  // Statistics.
  uint64_t read_file_count() const { return read_files_.load(std::memory_order_relaxed); }
  uint64_t write_file_count() const { return write_files_.load(std::memory_order_relaxed); }
  uint64_t io_error_count() const { return io_errors_.load(std::memory_order_relaxed); }

 protected:
  void OnInit(uint64_t object_port_id, uint64_t cookie, PagerInitArgs args) override;
  void OnDataRequest(uint64_t object_port_id, uint64_t cookie, PagerDataRequestArgs args) override;
  void OnDataWrite(uint64_t object_port_id, uint64_t cookie, PagerDataWriteArgs args) override;
  void OnLockCompleted(uint64_t object_port_id, uint64_t cookie,
                       PagerLockCompletedArgs args) override;
  void OnPortDeath(uint64_t port_id) override;

 private:
  struct File {
    uint64_t id = 0;
    VmSize size = 0;
    std::vector<uint32_t> blocks;          // One per page; UINT32_MAX = hole.
    SendRight memory_object;               // Stable while the file exists.
    std::vector<SendRight> request_ports;  // One per mapping kernel.
    VmOffset server_mapping = 0;           // Address in the server task (0 = unmapped).
    VmSize server_mapping_size = 0;
  };

  void ApiLoop();
  void HandleReadFile(Message& msg);
  void HandleWriteFile(Message& msg);
  void HandleCreate(Message& msg);
  void HandleDelete(Message& msg);
  void HandleStat(Message& msg);
  void HandleOpenMapped(Message& msg);
  void HandleSetSize(Message& msg);
  void HandleSync(Message& msg);
  static void Reply(const Message& request, Message reply);

  File* FindByObjectId(uint64_t object_port_id);
  File* FindByCookie(uint64_t cookie);
  // Ensures the file's memory object is mapped into the server task large
  // enough for `size` bytes.
  KernReturn EnsureServerMapping(File* file, VmSize size);

  Kernel* const kernel_;
  SimDisk* const disk_;
  std::shared_ptr<Task> task_;

  ReceiveRight service_receive_;
  SendRight service_send_;
  std::thread api_thread_;
  std::atomic<bool> serving_{false};

  std::mutex fs_mu_;
  std::map<std::string, File> files_;
  uint64_t next_file_id_ = 1;
  // Request port ids whose pager_lock_completed for an fs_write_file flush
  // has not arrived yet; the write waits on flush_acked_ until it is empty.
  // Guarded by fs_mu_.
  std::multiset<uint64_t> flush_acks_pending_;
  std::condition_variable flush_acked_;

  std::atomic<uint64_t> read_files_{0};
  std::atomic<uint64_t> write_files_{0};
  std::atomic<uint64_t> io_errors_{0};
};

// Client-side library for the file API (the paper's fs_read_file /
// fs_write_file calls). The client must be a task on the same kernel as the
// returned memory is mapped into; cross-host access goes through the net
// proxy layer.
class FsClient {
 public:
  FsClient(Task* task, SendRight service_port)
      : task_(task), service_(std::move(service_port)) {}

  // fs_read_file: returns new (copy-on-write) virtual memory holding the
  // file contents, plus the file size.
  struct ReadResult {
    VmOffset address = 0;
    VmSize size = 0;
  };
  Result<ReadResult> ReadFile(const std::string& name);

  // fs_write_file: stores `size` bytes from `address` back into the file.
  KernReturn WriteFile(const std::string& name, VmOffset address, VmSize size);

  KernReturn Create(const std::string& name);
  KernReturn Delete(const std::string& name);
  Result<VmSize> Stat(const std::string& name);

 private:
  Task* const task_;
  SendRight service_;
};

}  // namespace mach

#endif  // SRC_MANAGERS_FS_FS_SERVER_H_
