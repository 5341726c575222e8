// errseq-style writeback error reporting and journal abort with
// read-only degradation (ISSUE 10):
//
//   - ErrSeq report-once semantics (the errseq_t contract): each cursor
//     sees a recorded error exactly once; a cursor sampled after the
//     error sees nothing; a new error re-arms every cursor.
//   - A writeback failure that happened on nobody's clock (background
//     drain) surfaces at each open descriptor's NEXT fsync — once per
//     descriptor, never twice.
//   - A failed journal write aborts the journal, on xv6 and ext4 alike:
//     fsync fails with EIO, nothing stays in flight, and the mount
//     degrades per its errors= policy (remount-ro default: writes fail
//     EROFS, reads keep serving; errors=continue keeps the mount
//     writable-in-cache but the journal stays dead).
//   - Unmounting an aborted journal writes nothing home, in the kernel
//     and behind FUSE alike: the aborted transaction's dirty blocks never
//     reach media.
//   - A failed xv6 header clear aborts the journal too: the header left
//     on media would otherwise replay a later commit's journal run onto
//     the committed transaction's home blocks.
//   - A transient fault retried to success by the request queue's
//     RetryPolicy is invisible to fsync: no residual error, no abort.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "../testutil.h"
#include "kernel/errseq.h"
#include "xv6fs/fsck.h"

namespace bsim::test {
namespace {

using kern::Err;
using kern::ErrSeq;
using kern::ErrSeqCursor;

// ---- the ErrSeq primitive ----

TEST(ErrSeqUnit, EachCursorSeesAnErrorExactlyOnce) {
  ErrSeq es;
  ErrSeqCursor a = es.sample();
  EXPECT_EQ(es.check(a), Err::Ok);

  es.record(Err::Io);
  EXPECT_EQ(es.check(a), Err::Io);  // reported...
  EXPECT_EQ(es.check(a), Err::Ok);  // ...exactly once

  // A cursor sampled after the failure (a later open) sees nothing.
  ErrSeqCursor b = es.sample();
  EXPECT_EQ(es.check(b), Err::Ok);

  // A NEW error re-arms every cursor, including already-caught-up ones.
  es.record(Err::NoSpc);
  EXPECT_EQ(es.check(b), Err::NoSpc);
  EXPECT_EQ(es.check(a), Err::NoSpc);
  EXPECT_EQ(es.check(a), Err::Ok);
}

TEST(ErrSeqUnit, OkIsNeverRecorded) {
  ErrSeq es;
  ErrSeqCursor c = es.sample();
  es.record(Err::Ok);
  EXPECT_EQ(es.seq(), 0u);
  EXPECT_EQ(es.check(c), Err::Ok);
}

// ---- kernel integration ----

constexpr std::uint64_t kBlocks = 16384;  // 64 MiB

struct Bed {
  kern::Kernel kernel;
  blk::BlockDevice* dev = nullptr;
  /// The first payload block of the journal area: poisoning it fails the
  /// next commit's journal run before its commit record is issued.
  std::uint64_t journal_block = 0;
  /// One past the journal area, which starts at journal_block - 1.
  std::uint64_t journal_end = 0;
};

/// A kernel with a device formatted for `fs` ("xv6_bento", "xv6_vfs",
/// "xv6_fuse" or "ext4j") and mounted at /mnt.
void make_bed(Bed& bed, std::string_view opts = "",
              std::string_view fs = "xv6_bento") {
  blk::DeviceParams params;
  params.nblocks = kBlocks;
  bed.dev = &bed.kernel.add_device("ssd0", params);
  // Both journal areas open with one header block (ext4's descriptor,
  // xv6's log header).
  if (fs == "ext4j") {
    const ext4::Super sb = ext4::mkfs(*bed.dev, /*inodes_per_group=*/512);
    bed.journal_block = sb.jstart;
    bed.journal_end = sb.jstart + sb.jblocks;
  } else {
    const xv6::DiskSuperblock sb = xv6::mkfs(*bed.dev, /*ninodes=*/512);
    bed.journal_block = sb.logstart;
    bed.journal_end = sb.logstart + sb.nlog;
  }
  bed.journal_block += 1;
  wl::register_deployments(bed.kernel);
  ASSERT_EQ(Err::Ok, bed.kernel.mount(fs, "ssd0", "/mnt", opts));
}

/// The mounted journal's abort count and in-flight commits.
struct JournalState {
  std::uint64_t aborts = 0;
  std::size_t inflight = 0;
};

JournalState journal_state(kern::Kernel& kernel) {
  kern::SuperBlock* sb = kernel.sb_at("/mnt");
  if (sb->fs_name == "ext4j") {
    const auto* mnt = sb->fs<ext4::Ext4Mount>();
    return {mnt->journal_stats().jbd_aborted, mnt->inflight_commits()};
  }
  if (sb->fs_name == "xv6_vfs") {
    const auto* mnt = sb->fs<xv6c::Xv6cMount>();
    return {mnt->log_stats().log_aborted, mnt->inflight_commits()};
  }
  const auto& fs = static_cast<const xv6::Xv6FileSystem&>(
      bento::BentoModule::from(*sb)->fs());
  return {fs.log_stats().log_aborted, fs.log().inflight_commits()};
}

TEST(WritebackErrseq, BackgroundFailureReportedOncePerDescriptor) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Bed bed;
  make_bed(bed);
  auto& kernel = bed.kernel;
  auto& p = kernel.proc();

  // Two descriptors on the same file, both opened BEFORE the failure.
  auto fd1 = kernel.open(p, "/mnt/f", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd1.ok());
  auto fd2 = kernel.open(p, "/mnt/f", kern::kORdWr);
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(kernel.write(p, fd1.value(), as_bytes("payload")).ok());
  ASSERT_EQ(Err::Ok, kernel.fsync(p, fd1.value()));

  // Fail a metadata writeback on NOBODY's clock: dirty three idle blocks
  // and write them back as one async batch, the way a journal install
  // does (redeemed later, long after the writer system call that dirtied
  // them returned), with an injected device write error on the middle one.
  kern::SuperBlock* sb = kernel.sb_at("/mnt");
  auto& bc = sb->bufcache();
  const std::uint64_t victim = kBlocks - 2;
  std::vector<kern::BufferHead*> batch;
  for (std::uint64_t b = victim - 1; b <= victim + 1; ++b) {
    auto bh = bc.bread(b);
    ASSERT_TRUE(bh.ok());
    bc.mark_dirty(bh.value());
    batch.push_back(bh.value());
  }
  const std::size_t dirty_before = bc.nr_dirty();
  bed.dev->inject_write_error(victim);
  bc.wait(bc.sync_dirty_buffers_async(batch));
  bed.dev->clear_write_error(victim);

  // The victim's write never happened, so it stays dirty; its neighbours
  // in the same batch were written and are clean. The failure is
  // sequenced once.
  EXPECT_FALSE(batch[0]->dirty);
  EXPECT_TRUE(batch[1]->dirty);
  EXPECT_FALSE(batch[2]->dirty);
  EXPECT_EQ(bc.nr_dirty(), dirty_before - 2);
  EXPECT_EQ(bc.wb_err().seq(), 1u);
  for (auto* bh : batch) bc.brelse(bh);

  // Each pre-failure descriptor's next fsync reports it — exactly once.
  EXPECT_EQ(kernel.fsync(p, fd1.value()), Err::Io);
  EXPECT_EQ(kernel.fsync(p, fd1.value()), Err::Ok);
  EXPECT_EQ(kernel.fsync(p, fd2.value()), Err::Io);
  EXPECT_EQ(kernel.fsync(p, fd2.value()), Err::Ok);

  // A descriptor opened after the failure never sees it.
  auto fd3 = kernel.open(p, "/mnt/f", kern::kORdOnly);
  ASSERT_TRUE(fd3.ok());
  EXPECT_EQ(kernel.fsync(p, fd3.value()), Err::Ok);

  for (const auto& fd : {fd1, fd2, fd3}) {
    EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  }
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
}

/// Journal abort on each journaled file system: the xv6 log on Bento, the
/// C baseline's xv6 log and ext4's jbd share one commit engine, so one
/// failure behaviour.
class JournalAbort : public ::testing::TestWithParam<const char*> {};

TEST_P(JournalAbort, FailedJournalWriteFlipsMountReadOnly) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Bed bed;
  make_bed(bed, "", GetParam());  // default policy: errors=remount-ro
  auto& kernel = bed.kernel;
  auto& p = kernel.proc();

  // A healthy committed file, read back after the abort.
  auto keep = kernel.open(p, "/mnt/keep", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(kernel.write(p, keep.value(), as_bytes("survives")).ok());
  ASSERT_EQ(Err::Ok, kernel.fsync(p, keep.value()));

  // Poison the journal area: the journal run's first payload block. The
  // next commit's journal write fails before its commit record is issued.
  bed.dev->inject_write_error(bed.journal_block);
  auto fd = kernel.open(p, "/mnt/doomed", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel.write(p, fd.value(), as_bytes("never durable")).ok());
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);

  kern::SuperBlock* sb = kernel.sb_at("/mnt");
  EXPECT_TRUE(sb->read_only());
  EXPECT_EQ(sb->fs_error_seen(), Err::Io);
  EXPECT_EQ(journal_state(kernel).aborts, 1u);
  // The abort redeemed every outstanding ticket, the pipeline's included.
  EXPECT_EQ(journal_state(kernel).inflight, 0u);

  // Writes fail with EROFS across the mutating syscalls...
  auto w = kernel.write(p, fd.value(), as_bytes("x"));
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error(), Err::RoFs);
  EXPECT_FALSE(kernel.open(p, "/mnt/new", kern::kOCreat).ok());
  EXPECT_EQ(kernel.mkdir(p, "/mnt/dir"), Err::RoFs);
  EXPECT_EQ(kernel.unlink(p, "/mnt/keep"), Err::RoFs);
  EXPECT_EQ(kernel.rename(p, "/mnt/keep", "/mnt/keep2"), Err::RoFs);

  // ...and a second fsync keeps failing (the journal never recovers in
  // this mount), but does NOT double-count the abort.
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);
  EXPECT_EQ(journal_state(kernel).aborts, 1u);

  // Reads keep serving: the pre-abort committed file is intact.
  std::vector<std::byte> buf(16);
  auto r = kernel.pread(p, keep.value(), buf, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "survives");

  EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  EXPECT_EQ(Err::Ok, kernel.close(p, keep.value()));
  // The aborted transaction let go of the buffers it held.
  EXPECT_EQ(kernel.sb_at("/mnt")->bufcache().outstanding_refs(), 0u);
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
}

TEST_P(JournalAbort, ErrorsContinueKeepsServingWithoutRoFlip) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Bed bed;
  make_bed(bed, "errors=continue", GetParam());
  auto& kernel = bed.kernel;
  auto& p = kernel.proc();

  bed.dev->inject_write_error(bed.journal_block);
  auto fd = kernel.open(p, "/mnt/f", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel.write(p, fd.value(), as_bytes("data")).ok());
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);

  kern::SuperBlock* sb = kernel.sb_at("/mnt");
  EXPECT_EQ(sb->fs_error_seen(), Err::Io);
  EXPECT_EQ(journal_state(kernel).inflight, 0u);
  EXPECT_FALSE(sb->read_only());  // continue: no EROFS flip...
  EXPECT_TRUE(kernel.write(p, fd.value(), as_bytes("more")).ok());
  // ...but the journal stays aborted: durability is gone for good.
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);

  EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  // The aborted transaction let go of the buffers it held.
  EXPECT_EQ(kernel.sb_at("/mnt")->bufcache().outstanding_refs(), 0u);
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
}

TEST_P(JournalAbort, AbortOutsideFsyncLeavesNothingInFlight) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Bed bed;
  make_bed(bed, "errors=continue", GetParam());
  auto& kernel = bed.kernel;
  auto& p = kernel.proc();

  // Unsynced files until a group commit is in flight (xv6 and ext4 both
  // commit at their block thresholds as writeback fills the running
  // transaction). Each file is 600 KiB.
  const std::vector<std::byte> data(600 << 10, std::byte{0x5a});
  int n = 0;
  auto write_file = [&] {
    auto fd = kernel.open(p, "/mnt/f" + std::to_string(n++),
                          kern::kOCreat | kern::kORdWr);
    if (!fd.ok()) return;
    (void)kernel.write(p, fd.value(), data);
    (void)kernel.close(p, fd.value());
  };
  while (journal_state(kernel).inflight == 0 && n < 64) write_file();
  ASSERT_GT(journal_state(kernel).inflight, 0u);

  // The next commit aborts inside an operation, not inside fsync: the
  // commit still in flight from before the abort is redeemed with it.
  bed.dev->inject_write_error(bed.journal_block);
  while (journal_state(kernel).aborts == 0 && n < 128) write_file();
  EXPECT_EQ(journal_state(kernel).aborts, 1u);
  EXPECT_EQ(journal_state(kernel).inflight, 0u);
  // The aborted transaction let go of the buffers it held.
  EXPECT_EQ(kernel.sb_at("/mnt")->bufcache().outstanding_refs(), 0u);
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
}

INSTANTIATE_TEST_SUITE_P(Fs, JournalAbort,
                         ::testing::Values("xv6_bento", "xv6_vfs", "ext4j"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// The unmount of an aborted journal, in the kernel (xv6 on Bento, the C
/// baseline, ext4) and in userspace (xv6 behind FUSE, on BentoKS-User).
class AbortedUnmount : public ::testing::TestWithParam<const char*> {};

TEST_P(AbortedUnmount, WritesNothingOutsideTheJournal) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Bed bed;
  make_bed(bed, "", GetParam());
  auto& kernel = bed.kernel;
  auto& p = kernel.proc();

  auto keep = kernel.open(p, "/mnt/keep", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(kernel.write(p, keep.value(), as_bytes("survives")).ok());
  ASSERT_EQ(Err::Ok, kernel.fsync(p, keep.value()));
  ASSERT_EQ(Err::Ok, kernel.close(p, keep.value()));
  const auto before = copy_device(*bed.dev);

  // The doomed op: its journal run fails, so the journal aborts before
  // the commit record. Its blocks stay dirty in the cache, and nothing
  // may write them home: not the fsync barrier, not eviction, not the
  // unmount's sync and flush.
  bed.dev->inject_write_error(bed.journal_block);
  auto fd = kernel.open(p, "/mnt/doomed", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel.write(p, fd.value(), as_bytes("never durable")).ok());
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);
  EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));

  std::array<std::byte, blk::kBlockSize> was{}, now{};
  std::vector<std::uint64_t> moved;
  for (std::uint64_t b = 0; b < bed.dev->nblocks(); ++b) {
    if (b >= bed.journal_block - 1 && b < bed.journal_end) continue;
    before->read_untimed(b, was);
    bed.dev->read_untimed(b, now);
    if (was != now) moved.push_back(b);
  }
  EXPECT_TRUE(moved.empty())
      << moved.size() << " home blocks written after the abort, first "
      << moved.front();
}

INSTANTIATE_TEST_SUITE_P(Fs, AbortedUnmount,
                         ::testing::Values("xv6_bento", "xv6_vfs", "xv6_fuse",
                                           "ext4j"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// A device that fails only the header clear of an xv6 commit. Once
/// armed, the first commit record it takes (a log header naming blocks)
/// poisons the header block, so the clear after the install fails. The
/// device then dies right after the next journal run reaches it, before
/// that commit's record.
class ClearFaultDevice final : public blk::BlockDevice {
 public:
  using BlockDevice::BlockDevice;
  void arm(std::uint64_t logstart) {
    logstart_ = logstart;
    armed_ = true;
  }

 protected:
  sim::Nanos submit_impl(std::span<blk::Bio* const> bios) override {
    const sim::Nanos done = BlockDevice::submit_impl(bios);
    watch(bios);
    return done;
  }
  blk::Ticket submit_async_impl(std::span<blk::Bio* const> bios) override {
    const blk::Ticket t = BlockDevice::submit_async_impl(bios);
    watch(bios);
    return t;
  }

 private:
  void watch(std::span<blk::Bio* const> bios) {
    for (const blk::Bio* bio : bios) {
      if (bio->op != blk::BioOp::Write) continue;
      for (const blk::BioVec& v : bio->vecs) {
        if (armed_ && v.blockno == logstart_) {
          std::uint32_t n = 0;  // LogHeader::n
          std::memcpy(&n, v.wdata.data(), sizeof(n));
          if (n == 0) continue;
          armed_ = false;
          poisoned_ = true;
          inject_write_error(logstart_);
        } else if (poisoned_ && v.blockno == logstart_ + 1) {
          power_off();
        }
      }
    }
  }

  std::uint64_t logstart_ = 0;
  bool armed_ = false;
  bool poisoned_ = false;
};

class FailedHeaderClear : public ::testing::TestWithParam<const char*> {};

TEST_P(FailedHeaderClear, AbortsBeforeTheNextJournalRun) {
  // Only the clear of /mnt/a's commit fails. Its header still names that
  // transaction on media, so a later commit's journal run would overwrite
  // what recovery replays onto /mnt/a's blocks, and a crash before that
  // commit's record (here: the device dies) would corrupt them.
  const std::string a(6000, 'a');
  std::unique_ptr<blk::BlockDevice> survivor;
  std::uint64_t logstart = 0;
  {
    sim::SimThread thread(0);
    sim::ScopedThread in(thread);
    kern::Kernel kernel;
    blk::DeviceParams params;
    params.nblocks = kBlocks;
    auto& dev = static_cast<ClearFaultDevice&>(kernel.add_device(
        "ssd0", std::make_unique<ClearFaultDevice>(params)));
    logstart = xv6::mkfs(dev, /*ninodes=*/512).logstart;
    wl::register_deployments(kernel);
    ASSERT_EQ(Err::Ok, kernel.mount(GetParam(), "ssd0", "/mnt"));
    auto& p = kernel.proc();
    const auto write_synced = [&](const std::string& path,
                                  const std::string& data) {
      auto fd = kernel.open(p, path, kern::kOCreat | kern::kORdWr);
      if (!fd.ok()) return;  // read-only once the journal aborted
      (void)kernel.write(p, fd.value(), as_bytes(data));
      (void)kernel.fsync(p, fd.value());
      (void)kernel.close(p, fd.value());
    };
    dev.arm(logstart);
    write_synced("/mnt/a", a);
    EXPECT_EQ(journal_state(kernel).aborts, 1u);
    write_synced("/mnt/b", std::string(a.size(), 'b'));
    survivor = copy_device(dev);
  }

  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  {
    // A recovery whose own clear fails does not mount, for the same
    // reason: the header would outlive the mount's first commit.
    kern::Kernel kernel;
    blk::BlockDevice& dev = kernel.add_device("ssd0", copy_device(*survivor));
    dev.inject_write_error(logstart);
    wl::register_deployments(kernel);
    EXPECT_EQ(Err::Io, kernel.mount(GetParam(), "ssd0", "/mnt"));
  }

  // Recovery replays what the header names; then /mnt/a must read back
  // and the image must pass fsck.
  kern::Kernel kernel;
  blk::BlockDevice& dev = kernel.add_device("ssd0", std::move(survivor));
  wl::register_deployments(kernel);
  ASSERT_EQ(Err::Ok, kernel.mount(GetParam(), "ssd0", "/mnt"));
  auto& p = kernel.proc();
  auto fd = kernel.open(p, "/mnt/a", kern::kORdOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(a.size() + 16);
  auto r = kernel.read(p, fd.value(), buf);
  ASSERT_TRUE(r.ok());
  const std::string got = to_string({buf.data(), r.value()});
  EXPECT_EQ(got.size(), a.size());
  EXPECT_EQ(got.find_first_not_of('a'), std::string::npos)
      << "/mnt/a holds another transaction's data";
  EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
  const auto report = xv6::fsck(dev);
  EXPECT_TRUE(report.ok) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(KernelXv6, FailedHeaderClear,
                         ::testing::Values("xv6_bento", "xv6_vfs"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(TransientRetry, RetriedToSuccessLeavesNoResidualError) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Bed bed;
  make_bed(bed, "retries=4,retry_backoff_us=100");
  auto& kernel = bed.kernel;
  auto& p = kernel.proc();

  auto fd = kernel.open(p, "/mnt/f", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel.write(p, fd.value(), as_bytes("retried fine")).ok());

  // One controller hiccup on the next bio: the request queue reissues it
  // after the backoff and the op completes — the caller never knows.
  bed.dev->inject_transient_errors(1);
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Ok);
  EXPECT_GE(bed.dev->queue().stats().retries, 1u);
  EXPECT_GE(bed.dev->queue().stats().retry_successes, 1u);

  // No residual: no abort, no RO flip, no error at the next fsync.
  EXPECT_EQ(journal_state(kernel).aborts, 0u);
  EXPECT_FALSE(kernel.sb_at("/mnt")->read_only());
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Ok);

  // The data actually landed.
  std::vector<std::byte> buf(32);
  auto r = kernel.pread(p, fd.value(), buf, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "retried fine");

  EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
}

}  // namespace
}  // namespace bsim::test
