#include "src/managers/camelot/recovery_manager.h"

#include <algorithm>
#include <cstring>

#include "src/base/log.h"

namespace mach {

namespace {
// Blocks at the front of the data disk reserved for the segment directory.
constexpr uint32_t kDirBlocks = 8;
constexpr uint32_t kDirMagic = 0xCA3E107Du;

void DirPutU32(std::vector<std::byte>* out, uint32_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out->insert(out->end(), p, p + sizeof(v));
}
void DirPutU64(std::vector<std::byte>* out, uint64_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out->insert(out->end(), p, p + sizeof(v));
}
template <typename T>
bool DirGet(const std::vector<std::byte>& in, size_t* pos, T* v) {
  if (*pos + sizeof(T) > in.size()) {
    return false;
  }
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}
}  // namespace

RecoveryManager::RecoveryManager(SimDisk* data_disk, SimDisk* log_disk, VmSize page_size)
    : DataManager("camelot"), page_size_(page_size), data_disk_(data_disk), log_(log_disk) {
  std::lock_guard<std::mutex> g(mu_);
  LoadDirectory();
}

void RecoveryManager::SaveDirectory() {
  std::vector<std::byte> out;
  DirPutU32(&out, kDirMagic);
  DirPutU32(&out, static_cast<uint32_t>(segments_.size()));
  for (const auto& [name, segment] : segments_) {
    DirPutU32(&out, static_cast<uint32_t>(name.size()));
    const auto* p = reinterpret_cast<const std::byte*>(name.data());
    out.insert(out.end(), p, p + name.size());
    DirPutU64(&out, segment.id);
    DirPutU64(&out, segment.size);
    DirPutU32(&out, static_cast<uint32_t>(segment.blocks.size()));
    for (uint32_t block : segment.blocks) {
      DirPutU32(&out, block);
    }
  }
  const VmSize bs = data_disk_->block_size();
  if (out.size() > kDirBlocks * bs) {
    MACH_LOG(kError) << "camelot: segment directory overflow";
    return;
  }
  out.resize(kDirBlocks * bs);
  for (uint32_t b = 0; b < kDirBlocks; ++b) {
    if (!IsOk(data_disk_->WriteBlock(b, out.data() + static_cast<size_t>(b) * bs))) {
      // The on-disk directory is now stale for this block; the in-memory
      // copy is authoritative and the next SaveDirectory retries.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      MACH_LOG(kWarn) << "camelot: directory write failed for block " << b;
    }
  }
}

void RecoveryManager::LoadDirectory() {
  const VmSize bs = data_disk_->block_size();
  std::vector<std::byte> in(kDirBlocks * bs);
  for (uint32_t b = 0; b < kDirBlocks; ++b) {
    if (!IsOk(data_disk_->ReadBlock(b, in.data() + static_cast<size_t>(b) * bs))) {
      // An unreadable directory block leaves zeroes in the buffer; the
      // magic/length checks below reject a torn directory.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  size_t pos = 0;
  uint32_t magic = 0;
  if (!DirGet(in, &pos, &magic) || magic != kDirMagic) {
    // Fresh disk: claim the directory blocks (the allocator hands out
    // ascending block numbers, so these are blocks 0..kDirBlocks-1).
    for (uint32_t b = 0; b < kDirBlocks; ++b) {
      uint32_t got = data_disk_->AllocBlock();
      (void)got;
    }
    SaveDirectory();
    return;
  }
  uint32_t count = 0;
  DirGet(in, &pos, &count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!DirGet(in, &pos, &name_len) || pos + name_len > in.size()) {
      return;
    }
    std::string name(reinterpret_cast<const char*>(in.data() + pos), name_len);
    pos += name_len;
    Segment segment;
    uint32_t nblocks = 0;
    if (!DirGet(in, &pos, &segment.id) || !DirGet(in, &pos, &segment.size) ||
        !DirGet(in, &pos, &nblocks)) {
      return;
    }
    segment.blocks.resize(nblocks, UINT32_MAX);
    for (uint32_t b = 0; b < nblocks; ++b) {
      if (!DirGet(in, &pos, &segment.blocks[b])) {
        return;
      }
    }
    next_segment_id_ = std::max(next_segment_id_, segment.id + 1);
    segment.object = CreateMemoryObject(segment.id, "segment:" + name);
    segments_.emplace(name, std::move(segment));
  }
}

SendRight RecoveryManager::OpenSegment(const std::string& name, VmSize size) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = segments_.find(name);
  if (it != segments_.end()) {
    return it->second.object;
  }
  Segment segment;
  segment.id = next_segment_id_++;
  segment.size = RoundPage(size, page_size_);
  segment.blocks.assign(segment.size / page_size_, UINT32_MAX);
  segment.object = CreateMemoryObject(segment.id, "segment:" + name);
  SendRight object = segment.object;
  segments_.emplace(name, std::move(segment));
  SaveDirectory();
  return object;
}

uint64_t RecoveryManager::SegmentId(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = segments_.find(name);
  return it == segments_.end() ? 0 : it->second.id;
}

RecoveryManager::Segment* RecoveryManager::SegmentByCookie(uint64_t cookie) {
  for (auto& [name, segment] : segments_) {
    if (segment.id == cookie) {
      return &segment;
    }
  }
  return nullptr;
}

uint32_t RecoveryManager::EnsureBlock(Segment* segment, size_t page_index) {
  if (page_index >= segment->blocks.size()) {
    segment->blocks.resize(page_index + 1, UINT32_MAX);
  }
  if (segment->blocks[page_index] == UINT32_MAX) {
    uint32_t block = data_disk_->AllocBlock();
    if (block != UINT32_MAX) {
      std::vector<std::byte> zero(page_size_, std::byte{0});
      if (!IsOk(data_disk_->WriteBlock(block, zero.data()))) {
        io_errors_.fetch_add(1, std::memory_order_relaxed);
        data_disk_->FreeBlock(block);
        return UINT32_MAX;
      }
      segment->blocks[page_index] = block;
      SaveDirectory();
    }
  }
  return segment->blocks[page_index];
}

// --- pager protocol -----------------------------------------------------------

void RecoveryManager::OnDataRequest(uint64_t object_port_id, uint64_t cookie,
                                    PagerDataRequestArgs args) {
  std::lock_guard<std::mutex> g(mu_);
  Segment* segment = SegmentByCookie(cookie);
  if (segment == nullptr) {
    DataUnavailable(args.pager_request_port, args.offset, args.length);
    return;
  }
  // Multi-page (fault-ahead) requests answered as coalesced runs; deferred
  // stash hits join the same run when contiguous.
  PagerRunBuilder run(args.pager_request_port);
  for (VmOffset off = args.offset; off < args.offset + args.length; off += page_size_) {
    auto def_it = segment->deferred.find(off);
    if (def_it != segment->deferred.end()) {
      // The freshest copy is the stashed deferred pageout, not the disk.
      run.AddData(off, std::vector<std::byte>(def_it->second), kVmProtNone);
      continue;
    }
    size_t page = static_cast<size_t>(off / page_size_);
    if (page >= segment->blocks.size() || segment->blocks[page] == UINT32_MAX) {
      run.AddUnavailable(off, page_size_);
      continue;
    }
    std::vector<std::byte> data(page_size_);
    if (!IsOk(data_disk_->ReadBlock(segment->blocks[page], data.data()))) {
      // §6.2.1: unreadable backing page → pager_data_unavailable.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      run.AddUnavailable(off, page_size_);
      continue;
    }
    run.AddData(off, std::move(data), kVmProtNone);
  }
}

void RecoveryManager::OnDataWrite(uint64_t object_port_id, uint64_t cookie,
                                  PagerDataWriteArgs args) {
  std::lock_guard<std::mutex> g(mu_);
  Segment* segment = SegmentByCookie(cookie);
  if (segment == nullptr) {
    return;
  }
  // Older deferred pageouts go first so retries stay in eviction order.
  FlushDeferred(segment);
  const size_t pages = args.data.size() / page_size_;
  for (size_t p = 0; p < pages; ++p) {
    VmOffset off = args.offset + p * page_size_;
    const std::byte* src = args.data.data() + p * page_size_;
    if (TryWritePage(segment, off, src)) {
      segment->deferred.erase(off);
      pageouts_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // The kernel has already evicted this page, so this stash is the
      // only remaining copy: keep it and retry on a later pageout/commit.
      segment->deferred[off].assign(src, src + page_size_);
      deferred_.fetch_add(1, std::memory_order_relaxed);
      MACH_LOG(kWarn) << "camelot: pageout deferred at offset " << off;
    }
  }
}

bool RecoveryManager::TryWritePage(Segment* segment, VmOffset off, const std::byte* src) {
  // THE WAL RULE (§8.3): before a recoverable page reaches permanent
  // storage, every log record describing changes to it must be durable.
  auto lsn_it = segment->page_lsn.find(TruncPage(off, page_size_));
  if (lsn_it != segment->page_lsn.end() && lsn_it->second > log_.forced_lsn()) {
    if (log_.Force() < lsn_it->second) {
      // The force failed (log-disk fault) and the page's records are still
      // volatile: writing the page now would violate the WAL rule — a
      // crash could lose a committed update.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    wal_enforced_.fetch_add(1, std::memory_order_relaxed);
  }
  uint32_t block = EnsureBlock(segment, static_cast<size_t>(off / page_size_));
  if (block == UINT32_MAX) {
    MACH_LOG(kError) << "camelot: data disk full";
    return false;
  }
  if (!IsOk(data_disk_->WriteBlock(block, src))) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    MACH_LOG(kWarn) << "camelot: segment write failed for block " << block;
    return false;
  }
  return true;
}

void RecoveryManager::FlushDeferred(Segment* segment) {
  for (auto it = segment->deferred.begin(); it != segment->deferred.end();) {
    if (TryWritePage(segment, it->first, it->second.data())) {
      pageouts_.fetch_add(1, std::memory_order_relaxed);
      it = segment->deferred.erase(it);
    } else {
      ++it;
    }
  }
}

// --- transactions ---------------------------------------------------------------

uint64_t RecoveryManager::BeginTransaction() {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t tid = next_tid_++;
  active_tids_.insert(tid);
  LogRecord rec;
  rec.type = LogRecord::Type::kBegin;
  rec.tid = tid;
  log_.Append(rec);
  return tid;
}

void RecoveryManager::LogUpdate(uint64_t tid, uint64_t segment_id, VmOffset offset,
                                std::vector<std::byte> old_data,
                                std::vector<std::byte> new_data) {
  std::lock_guard<std::mutex> g(mu_);
  const VmSize len = std::max<VmSize>(new_data.size(), 1);
  LogRecord rec;
  rec.type = LogRecord::Type::kUpdate;
  rec.tid = tid;
  rec.segment = segment_id;
  rec.offset = offset;
  rec.old_data = std::move(old_data);
  rec.new_data = std::move(new_data);
  uint64_t lsn = log_.Append(std::move(rec));
  // Track the newest LSN touching each affected page (for the WAL check).
  for (auto& [name, segment] : segments_) {
    if (segment.id != segment_id) {
      continue;
    }
    VmOffset first = TruncPage(offset, page_size_);
    VmOffset last = TruncPage(offset + len - 1, page_size_);
    for (VmOffset page = first; page <= last; page += page_size_) {
      segment.page_lsn[page] = lsn;
    }
    break;
  }
}

KernReturn RecoveryManager::CommitTransaction(uint64_t tid) {
  std::lock_guard<std::mutex> g(mu_);
  LogRecord rec;
  rec.type = LogRecord::Type::kCommit;
  rec.tid = tid;
  const uint64_t commit_lsn = log_.Append(rec);
  // Commit forces the log: the transaction is durable once the force covers
  // its commit record.
  const bool durable = log_.Force() >= commit_lsn;
  active_tids_.erase(tid);
  // A successful force unblocks any WAL-deferred pageouts (FlushDeferred
  // re-checks the rule itself, so this is safe even if the force failed).
  for (auto& [name, segment] : segments_) {
    FlushDeferred(&segment);
  }
  // A failed force leaves the commit record in the volatile tail: a crash
  // now loses the transaction, so the caller must not treat it as
  // committed. (A later successful force may still make it durable; its
  // outcome is in doubt until then.)
  return durable ? KernReturn::kSuccess : KernReturn::kFailure;
}

void RecoveryManager::AbortTransaction(uint64_t tid) {
  std::lock_guard<std::mutex> g(mu_);
  LogRecord rec;
  rec.type = LogRecord::Type::kAbort;
  rec.tid = tid;
  log_.Append(rec);
  active_tids_.erase(tid);
}

void RecoveryManager::LogCompensation(uint64_t tid, uint64_t segment_id, VmOffset offset,
                                      std::vector<std::byte> restored) {
  std::lock_guard<std::mutex> g(mu_);
  LogRecord rec;
  rec.type = LogRecord::Type::kCompensation;
  rec.tid = tid;
  rec.segment = segment_id;
  rec.offset = offset;
  rec.new_data = std::move(restored);
  uint64_t lsn = log_.Append(std::move(rec));
  for (auto& [name, segment] : segments_) {
    if (segment.id == segment_id) {
      segment.page_lsn[TruncPage(offset, page_size_)] = lsn;
      break;
    }
  }
}

void RecoveryManager::SimulateCrash() {
  std::lock_guard<std::mutex> g(mu_);
  log_.SimulateCrash();
  active_tids_.clear();
  // The deferred-pageout stash is volatile manager memory: a crash loses it
  // (recovery reconstructs committed state from the durable log).
  for (auto& [name, segment] : segments_) {
    segment.deferred.clear();
  }
}

void RecoveryManager::ApplyImage(uint64_t segment_id, VmOffset offset,
                                 const std::vector<std::byte>& image) {
  Segment* segment = nullptr;
  for (auto& [name, s] : segments_) {
    if (s.id == segment_id) {
      segment = &s;
      break;
    }
  }
  if (segment == nullptr || image.empty()) {
    return;
  }
  // The image may span page (block) boundaries.
  VmOffset cursor = offset;
  size_t done = 0;
  while (done < image.size()) {
    size_t page = static_cast<size_t>(cursor / page_size_);
    VmOffset in_page = cursor % page_size_;
    VmSize n = std::min<VmSize>(page_size_ - in_page, image.size() - done);
    uint32_t block = EnsureBlock(segment, page);
    if (block == UINT32_MAX) {
      return;
    }
    if (!IsOk(data_disk_->WriteAt(block, in_page, image.data() + done, n))) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    cursor += n;
    done += n;
  }
}

void RecoveryManager::Recover() {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<LogRecord> records = log_.ReadAll();
  // Analysis: committed transactions win; fully aborted ones are complete
  // (their compensations are in the log); anything else is a loser.
  std::set<uint64_t> losers;
  for (const LogRecord& rec : records) {
    switch (rec.type) {
      case LogRecord::Type::kBegin:
        losers.insert(rec.tid);
        break;
      case LogRecord::Type::kCommit:
      case LogRecord::Type::kAbort:
        losers.erase(rec.tid);
        break;
      case LogRecord::Type::kUpdate:
      case LogRecord::Type::kCompensation:
        break;
    }
  }
  // Redo pass, forward: repeat history — every update and compensation, in
  // log order, regardless of outcome (ARIES-style). This reconstructs the
  // exact pre-crash memory state on disk.
  for (const LogRecord& rec : records) {
    if (rec.type == LogRecord::Type::kUpdate || rec.type == LogRecord::Type::kCompensation) {
      ApplyImage(rec.segment, rec.offset, rec.new_data);
    }
  }
  // Undo pass, backward: roll back the (true) losers' updates.
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->type == LogRecord::Type::kUpdate && losers.count(it->tid) != 0) {
      ApplyImage(it->segment, it->offset, it->old_data);
    }
  }
  active_tids_.clear();
}

uint64_t RecoveryManager::log_force_count() const {
  return log_.force_count();
}

// --- client library ---------------------------------------------------------------

Result<RecoverableSegment> RecoverableSegment::Map(RecoveryManager* rm, Task* task,
                                                   const std::string& name, VmSize size) {
  SendRight object = rm->OpenSegment(name, size);
  Result<VmOffset> addr = task->VmAllocateWithPager(size, object, 0);
  if (!addr.ok()) {
    return addr.status();
  }
  return RecoverableSegment(rm->SegmentId(name), addr.value(), size, task);
}

KernReturn Transaction::Write(const RecoverableSegment& segment, VmOffset offset,
                              const void* data, VmSize len) {
  if (done_) {
    return KernReturn::kInvalidArgument;
  }
  // Capture the undo image, log undo+redo, then modify memory — in that
  // order, so the log always describes the page before the page changes.
  std::vector<std::byte> old_data(len);
  KernReturn kr = segment.task()->Read(segment.base() + offset, old_data.data(), len);
  if (!IsOk(kr)) {
    return kr;
  }
  std::vector<std::byte> new_data(len);
  std::memcpy(new_data.data(), data, len);
  rm_->LogUpdate(tid_, segment.id(), offset, old_data, new_data);
  undo_log_.push_back(Undo{segment, offset, std::move(old_data)});
  return segment.task()->Write(segment.base() + offset, data, len);
}

KernReturn Transaction::Commit() {
  if (done_) {
    return KernReturn::kInvalidArgument;
  }
  done_ = true;
  return rm_->CommitTransaction(tid_);
}

KernReturn Transaction::Abort() {
  if (done_) {
    return KernReturn::kInvalidArgument;
  }
  done_ = true;
  // Compensate in reverse order: log each undo action (redo-only
  // compensation), restore the old value through the mapping, and finally
  // log the abort. A crash anywhere in here recovers correctly: repeating
  // history replays whatever compensations made it to the log, and the
  // undo pass finishes the rest.
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    rm_->LogCompensation(tid_, it->segment.id(), it->offset, it->old_data);
    it->segment.task()->Write(it->segment.base() + it->offset, it->old_data.data(),
                              it->old_data.size());
  }
  rm_->AbortTransaction(tid_);
  return KernReturn::kSuccess;
}

}  // namespace mach
