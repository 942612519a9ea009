// Unit tests for the simulated hardware: physical memory frames, hardware
// reference/modify bits, pv lists, the pmap module, and the simulated disk.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <vector>

#include "src/hw/physical_memory.h"
#include "src/hw/pmap.h"
#include "src/hw/sim_disk.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

TEST(PhysicalMemoryTest, AllocateAndFreeFrames) {
  PhysicalMemory phys(8, kPage);
  EXPECT_EQ(phys.free_frames(), 8u);
  std::vector<uint32_t> frames;
  for (int i = 0; i < 8; ++i) {
    auto f = phys.AllocFrame();
    ASSERT_TRUE(f.has_value());
    frames.push_back(*f);
  }
  EXPECT_EQ(phys.free_frames(), 0u);
  EXPECT_FALSE(phys.AllocFrame().has_value());
  for (uint32_t f : frames) {
    phys.FreeFrame(f);
  }
  EXPECT_EQ(phys.free_frames(), 8u);
}

TEST(PhysicalMemoryTest, ReadWriteFrameData) {
  PhysicalMemory phys(4, kPage);
  uint32_t f = *phys.AllocFrame();
  const char msg[] = "hello, frame";
  phys.WriteFrame(f, 100, msg, sizeof(msg));
  char buf[sizeof(msg)] = {};
  phys.ReadFrame(f, 100, buf, sizeof(msg));
  EXPECT_STREQ(buf, msg);
}

TEST(PhysicalMemoryTest, HardwareBitsTrackAccess) {
  PhysicalMemory phys(4, kPage);
  uint32_t f = *phys.AllocFrame();
  EXPECT_FALSE(phys.IsReferenced(f));
  EXPECT_FALSE(phys.IsModified(f));
  char b = 0;
  phys.ReadFrame(f, 0, &b, 1);
  EXPECT_TRUE(phys.IsReferenced(f));
  EXPECT_FALSE(phys.IsModified(f));
  phys.ClearReference(f);
  EXPECT_FALSE(phys.IsReferenced(f));
  phys.WriteFrame(f, 0, &b, 1);
  EXPECT_TRUE(phys.IsReferenced(f));
  EXPECT_TRUE(phys.IsModified(f));
  phys.ClearModify(f);
  EXPECT_FALSE(phys.IsModified(f));
}

TEST(PhysicalMemoryTest, ZeroAndCopyFrame) {
  PhysicalMemory phys(4, kPage);
  uint32_t a = *phys.AllocFrame();
  uint32_t b = *phys.AllocFrame();
  uint32_t v = 0xABCD1234;
  phys.WriteFrame(a, 8, &v, sizeof(v));
  phys.CopyFrame(a, b);
  uint32_t out = 0;
  phys.ReadFrame(b, 8, &out, sizeof(out));
  EXPECT_EQ(out, v);
  phys.ZeroFrame(b);
  phys.ReadFrame(b, 8, &out, sizeof(out));
  EXPECT_EQ(out, 0u);
}

TEST(PhysicalMemoryTest, FreshFrameHasClearedBits) {
  PhysicalMemory phys(1, kPage);
  uint32_t f = *phys.AllocFrame();
  char b = 1;
  phys.WriteFrame(f, 0, &b, 1);
  // No pv entries -> can free directly.
  phys.FreeFrame(f);
  uint32_t f2 = *phys.AllocFrame();
  EXPECT_EQ(f2, f);
  EXPECT_FALSE(phys.IsReferenced(f2));
  EXPECT_FALSE(phys.IsModified(f2));
}

class PmapTest : public ::testing::Test {
 protected:
  PmapTest() : phys_(16, kPage), pmap_(&phys_) {}
  PhysicalMemory phys_;
  Pmap pmap_;
};

TEST_F(PmapTest, AccessWithoutMappingFaults) {
  char buf[4];
  auto r = pmap_.Access(0x1000, buf, sizeof(buf), /*is_write=*/false);
  EXPECT_EQ(r.fault, Pmap::FaultKind::kNotPresent);
  EXPECT_EQ(r.fault_addr, 0x1000u);
}

TEST_F(PmapTest, EnterThenAccess) {
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x2000, f, kVmProtDefault);
  uint32_t v = 77;
  auto w = pmap_.Access(0x2010, &v, sizeof(v), /*is_write=*/true);
  EXPECT_EQ(w.fault, Pmap::FaultKind::kNone);
  uint32_t out = 0;
  auto r = pmap_.Access(0x2010, &out, sizeof(out), /*is_write=*/false);
  EXPECT_EQ(r.fault, Pmap::FaultKind::kNone);
  EXPECT_EQ(out, 77u);
  EXPECT_TRUE(phys_.IsReferenced(f));
  EXPECT_TRUE(phys_.IsModified(f));
}

TEST_F(PmapTest, ProtectionFault) {
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x3000, f, kVmProtRead);
  uint32_t v = 1;
  auto w = pmap_.Access(0x3000, &v, sizeof(v), /*is_write=*/true);
  EXPECT_EQ(w.fault, Pmap::FaultKind::kProtection);
  auto r = pmap_.Access(0x3000, &v, sizeof(v), /*is_write=*/false);
  EXPECT_EQ(r.fault, Pmap::FaultKind::kNone);
}

TEST_F(PmapTest, RemoveRange) {
  uint32_t f1 = *phys_.AllocFrame();
  uint32_t f2 = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f1, kVmProtDefault);
  pmap_.Enter(0x2000, f2, kVmProtDefault);
  EXPECT_EQ(pmap_.entry_count(), 2u);
  pmap_.Remove(0x1000, 0x2000);
  EXPECT_EQ(pmap_.entry_count(), 1u);
  EXPECT_FALSE(pmap_.Translate(0x1000, kVmProtRead).has_value());
  EXPECT_TRUE(pmap_.Translate(0x2000, kVmProtRead).has_value());
}

TEST_F(PmapTest, ProtectLowersButNeverRaises) {
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f, kVmProtDefault);
  pmap_.Protect(0x1000, 0x2000, kVmProtRead);
  EXPECT_EQ(*pmap_.ProtectionOf(0x1000), kVmProtRead);
  // Protect with broader rights does not raise.
  pmap_.Protect(0x1000, 0x2000, kVmProtAll);
  EXPECT_EQ(*pmap_.ProtectionOf(0x1000), kVmProtRead);
}

TEST_F(PmapTest, ProtectToNoneRemoves) {
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f, kVmProtDefault);
  pmap_.Protect(0x1000, 0x2000, kVmProtNone);
  EXPECT_EQ(pmap_.entry_count(), 0u);
}

// A fork protects a task's whole entry range in one call, and the range may
// be far larger than what is mapped: both range operations must cost what
// the pmap holds, not the 2^35 pages of a 47-bit address space.
TEST_F(PmapTest, RangeOperationsOverAHugeSparseRangeVisitOnlyItsTranslations) {
  constexpr VmOffset kTop = VmOffset{1} << 47;
  const VmOffset addrs[] = {0x1000, 0x4000'0000, kTop - kPage};
  uint32_t frames[3];
  for (int i = 0; i < 3; ++i) {
    frames[i] = *phys_.AllocFrame();
    pmap_.Enter(addrs[i], frames[i], kVmProtDefault);
  }
  Pmap other(&phys_);
  other.Enter(0x1000, frames[0], kVmProtDefault);
  const auto started = std::chrono::steady_clock::now();

  pmap_.Protect(0, kTop, kVmProtRead);
  for (VmOffset a : addrs) {
    EXPECT_EQ(*pmap_.ProtectionOf(a), kVmProtRead);
  }
  EXPECT_EQ(*other.ProtectionOf(0x1000), kVmProtDefault);  // Not this pmap's.

  pmap_.Remove(0x2000, kTop - kPage);  // Only the middle translation.
  EXPECT_EQ(pmap_.entry_count(), 2u);
  EXPECT_FALSE(pmap_.ProtectionOf(addrs[1]).has_value());
  EXPECT_TRUE(phys_.PvList(frames[1]).empty());

  pmap_.Remove(0, kTop);
  EXPECT_EQ(pmap_.entry_count(), 0u);
  EXPECT_EQ(phys_.PvList(frames[0]).size(), 1u);  // The other pmap's.
  EXPECT_TRUE(phys_.PvList(frames[2]).empty());
  EXPECT_LT(std::chrono::steady_clock::now() - started, std::chrono::seconds(1));
}

TEST_F(PmapTest, PageProtectHitsAllPmaps) {
  Pmap other(&phys_);
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f, kVmProtDefault);
  other.Enter(0x8000, f, kVmProtDefault);
  Pmap::PageProtect(&phys_, f, kVmProtRead);
  EXPECT_EQ(*pmap_.ProtectionOf(0x1000), kVmProtRead);
  EXPECT_EQ(*other.ProtectionOf(0x8000), kVmProtRead);
  Pmap::PageProtect(&phys_, f, kVmProtNone);
  EXPECT_EQ(pmap_.entry_count(), 0u);
  EXPECT_EQ(other.entry_count(), 0u);
  EXPECT_TRUE(phys_.PvList(f).empty());
}

TEST_F(PmapTest, ReplacingMappingUpdatesPvList) {
  uint32_t f1 = *phys_.AllocFrame();
  uint32_t f2 = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f1, kVmProtDefault);
  pmap_.Enter(0x1000, f2, kVmProtRead);
  EXPECT_TRUE(phys_.PvList(f1).empty());
  EXPECT_EQ(phys_.PvList(f2).size(), 1u);
  EXPECT_EQ(*pmap_.ProtectionOf(0x1000), kVmProtRead);
}

TEST_F(PmapTest, DestructorCleansPvLists) {
  uint32_t f = *phys_.AllocFrame();
  {
    Pmap temp(&phys_);
    temp.Enter(0x1000, f, kVmProtDefault);
    EXPECT_EQ(phys_.PvList(f).size(), 1u);
  }
  EXPECT_TRUE(phys_.PvList(f).empty());
  phys_.FreeFrame(f);
}

TEST(SimDiskTest, ReadBackWrittenBlock) {
  SimClock clock;
  SimDisk disk(16, 512, &clock);
  std::vector<char> out(512);
  std::vector<char> in(512, 'x');
  disk.WriteBlock(3, in.data());
  disk.ReadBlock(3, out.data());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 512), 0);
}

TEST(SimDiskTest, CountsOperations) {
  SimClock clock;
  SimDisk disk(16, 512, &clock);
  std::vector<char> buf(512);
  disk.WriteBlock(0, buf.data());
  disk.WriteBlock(1, buf.data());
  disk.ReadBlock(0, buf.data());
  EXPECT_EQ(disk.write_ops(), 2u);
  EXPECT_EQ(disk.read_ops(), 1u);
  EXPECT_EQ(disk.total_ops(), 3u);
  EXPECT_EQ(disk.bytes_transferred(), 3u * 512u);
  disk.ResetStats();
  EXPECT_EQ(disk.total_ops(), 0u);
}

TEST(SimDiskTest, ChargesVirtualTime) {
  SimClock clock;
  DiskLatencyModel model;
  model.per_op_ns = 1000;
  model.per_byte_ns = 2;
  SimDisk disk(4, 256, &clock, model);
  std::vector<char> buf(256);
  disk.ReadBlock(0, buf.data());
  EXPECT_EQ(clock.NowNs(), 1000u + 2u * 256u);
}

TEST(SimDiskTest, BlockAllocator) {
  SimClock clock;
  SimDisk disk(4, 256, &clock);
  EXPECT_EQ(disk.free_blocks(), 4u);
  uint32_t b0 = disk.AllocBlock();
  uint32_t b1 = disk.AllocBlock();
  EXPECT_NE(b0, b1);
  EXPECT_EQ(disk.free_blocks(), 2u);
  disk.FreeBlock(b0);
  EXPECT_EQ(disk.free_blocks(), 3u);
  disk.AllocBlock();
  disk.AllocBlock();
  disk.AllocBlock();
  EXPECT_EQ(disk.AllocBlock(), UINT32_MAX);
}

TEST(SimDiskTest, PartialAccess) {
  SimClock clock;
  SimDisk disk(4, 512, &clock);
  const char msg[] = "log-record";
  EXPECT_EQ(disk.WriteAt(2, 100, msg, sizeof(msg)), KernReturn::kSuccess);
  char buf[sizeof(msg)] = {};
  EXPECT_EQ(disk.ReadAt(2, 100, buf, sizeof(buf)), KernReturn::kSuccess);
  EXPECT_STREQ(buf, msg);
}

TEST(SimDiskTest, OutOfRangeIsAnErrorNotACrash) {
  SimClock clock;
  SimDisk disk(4, 512, &clock);
  std::vector<char> buf(512);
  // Block index out of range.
  EXPECT_EQ(disk.ReadBlock(4, buf.data()), KernReturn::kInvalidArgument);
  EXPECT_EQ(disk.WriteBlock(4, buf.data()), KernReturn::kInvalidArgument);
  EXPECT_EQ(disk.ReadBlock(UINT32_MAX, buf.data()), KernReturn::kInvalidArgument);
  // Transfer running past the end of the block.
  EXPECT_EQ(disk.ReadAt(0, 500, buf.data(), 13), KernReturn::kInvalidArgument);
  EXPECT_EQ(disk.WriteAt(0, 513, buf.data(), 0), KernReturn::kInvalidArgument);
  // Failed transfers neither move data nor count as operations.
  EXPECT_EQ(disk.total_ops(), 0u);
  // Boundary cases that must succeed: last block, exact-fit transfer.
  EXPECT_EQ(disk.WriteBlock(3, buf.data()), KernReturn::kSuccess);
  EXPECT_EQ(disk.WriteAt(0, 500, buf.data(), 12), KernReturn::kSuccess);
  EXPECT_EQ(disk.ReadAt(0, 512, buf.data(), 0), KernReturn::kSuccess);
}

TEST(SimDiskTest, BadBlocksFailUntilCleared) {
  SimClock clock;
  SimDisk disk(4, 512, &clock);
  std::vector<char> buf(512, 'y');
  disk.MarkBadBlock(2);
  EXPECT_EQ(disk.WriteBlock(2, buf.data()), KernReturn::kFailure);
  EXPECT_EQ(disk.ReadBlock(2, buf.data()), KernReturn::kFailure);
  EXPECT_EQ(disk.write_errors(), 1u);
  EXPECT_EQ(disk.read_errors(), 1u);
  EXPECT_EQ(disk.WriteBlock(1, buf.data()), KernReturn::kSuccess);
  disk.ClearBadBlock(2);
  EXPECT_EQ(disk.WriteBlock(2, buf.data()), KernReturn::kSuccess);
}

TEST(SimDiskTest, InjectedFaultsFollowTheSchedule) {
  SimClock clock;
  FaultInjector inj(42);
  inj.SetSchedule(SimDisk::kFaultRead, {1});  // Fail the second read only.
  SimDisk disk(4, 512, &clock, DiskLatencyModel{}, &inj);
  std::vector<char> buf(512);
  EXPECT_EQ(disk.ReadBlock(0, buf.data()), KernReturn::kSuccess);
  EXPECT_EQ(disk.ReadBlock(0, buf.data()), KernReturn::kFailure);
  EXPECT_EQ(disk.ReadBlock(0, buf.data()), KernReturn::kSuccess);
  EXPECT_EQ(disk.read_errors(), 1u);
  EXPECT_EQ(inj.Injected(SimDisk::kFaultRead), 1u);
  // Writes are a separate fault point.
  EXPECT_EQ(disk.WriteBlock(0, buf.data()), KernReturn::kSuccess);
  EXPECT_EQ(disk.WriteBlock(0, buf.data()), KernReturn::kSuccess);
}

}  // namespace
}  // namespace mach
