// Unit + integration tests for the background flusher: threshold and
// periodic-timer wakes, drains off the writer's clock, QD>1 buffer
// draining, the fsync catch-up barrier, and the mount opt-out.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "../testutil.h"
#include "blockdev/striped.h"
#include "kernel/flusher.h"
#include "kernel/vfs.h"

namespace bsim::test {
namespace {

using kern::AddressSpaceOps;
using kern::Err;
using kern::FileType;
using kern::Flusher;
using kern::FlusherParams;
using kern::Inode;
using kern::PageRun;
using kern::SuperBlock;

/// Counts writepages traffic; pretends everything reaches media.
class CountingAops final : public AddressSpaceOps {
 public:
  Err readpage(Inode&, std::uint64_t, std::span<std::byte> out) override {
    std::memset(out.data(), 0, out.size());
    return Err::Ok;
  }
  Err writepage(Inode&, std::uint64_t, std::span<const std::byte>) override {
    pages += 1;
    return Err::Ok;
  }
  Err writepages(Inode&, std::span<const PageRun> runs,
                 std::size_t& completed_runs) override {
    completed_runs = 0;
    for (const auto& run : runs) {
      pages += run.pages.size();
      completed_runs += 1;
    }
    return Err::Ok;
  }
  [[nodiscard]] bool has_writepages() const override { return true; }

  std::size_t pages = 0;
};

class FlusherTest : public ::testing::Test {
 protected:
  void SetUp() override { sim::set_current(&thread_); }
  void TearDown() override { sim::set_current(nullptr); }

  Inode& make_file(SuperBlock& sb, kern::Ino ino, AddressSpaceOps& aops) {
    Inode& inode = sb.inew(ino);
    inode.type = FileType::Regular;
    inode.aops = &aops;
    return inode;
  }

  static void dirty_pages(Inode& inode, std::uint64_t first, std::size_t n) {
    for (std::uint64_t pg = first; pg < first + n; ++pg) {
      auto& page = inode.mapping.find_or_alloc(pg);
      page.uptodate = true;
      inode.mapping.mark_dirty(pg);
    }
  }

  sim::SimThread thread_{0};
  blk::BlockDevice dev_{[] {
    blk::DeviceParams p;
    p.nblocks = 4096;
    return p;
  }()};
};

TEST_F(FlusherTest, ThresholdWakeDrainsOffTheWriterClock) {
  SuperBlock sb(dev_, 0);
  CountingAops aops;
  Inode& inode = make_file(sb, 10, aops);

  FlusherParams fp;
  fp.dirty_pages_threshold = 8;
  sb.attach_flusher(std::make_unique<Flusher>(sb, fp));
  Flusher* f = sb.flusher();
  ASSERT_NE(f, nullptr);

  // Below the threshold: the poke is a no-op.
  dirty_pages(inode, 0, 4);
  EXPECT_FALSE(f->wake_due(&inode));
  f->poke(&inode);
  EXPECT_EQ(inode.mapping.nr_dirty(), 4u);
  EXPECT_EQ(f->stats().wakeups, 0u);

  // Crossing it wakes the flusher, which drains EVERYTHING — on its own
  // clock: the writer's virtual time must not advance.
  dirty_pages(inode, 4, 4);
  EXPECT_TRUE(f->wake_due(&inode));
  const sim::Nanos writer_before = sim::now();
  f->poke(&inode);
  EXPECT_EQ(sim::now(), writer_before);
  EXPECT_EQ(inode.mapping.nr_dirty(), 0u);
  EXPECT_EQ(aops.pages, 8u);
  EXPECT_EQ(f->stats().threshold_wakeups, 1u);
  EXPECT_EQ(f->stats().pages_flushed, 8u);
  // The flusher's clock advanced past the poke point (it did timed work).
  EXPECT_GT(f->last_completion(), writer_before);

  // wait_idle is the fsync barrier: the foreground catches up.
  f->wait_idle();
  EXPECT_EQ(sim::now(), f->last_completion());
}

TEST_F(FlusherTest, PeriodicTimerDrainsBelowThreshold) {
  SuperBlock sb(dev_, 0);
  CountingAops aops;
  Inode& inode = make_file(sb, 10, aops);

  FlusherParams fp;
  fp.dirty_pages_threshold = 1000;  // unreachable
  fp.period = sim::msec(5);
  sb.attach_flusher(std::make_unique<Flusher>(sb, fp));
  Flusher* f = sb.flusher();

  dirty_pages(inode, 0, 3);
  f->poke(&inode);  // before the period: nothing
  EXPECT_EQ(inode.mapping.nr_dirty(), 3u);

  sim::current().wait(sim::msec(6));  // kupdated interval elapses
  f->poke(&inode);
  EXPECT_EQ(inode.mapping.nr_dirty(), 0u);
  EXPECT_EQ(f->stats().timer_wakeups, 1u);
  EXPECT_EQ(f->stats().pages_flushed, 3u);
}

TEST_F(FlusherTest, DrainsDirtyBuffersThroughAsyncBatches) {
  SuperBlock sb(dev_, 0);
  FlusherParams fp;
  fp.dirty_buffers_min = 16;
  fp.max_batch = 8;
  fp.queue_depth = 2;
  fp.use_plug = false;  // this test pins down the QD>1 ticket path
  sb.attach_flusher(std::make_unique<Flusher>(sb, fp));
  Flusher* f = sb.flusher();

  auto& bc = sb.bufcache();
  std::vector<kern::BufferHead*> held;
  for (std::uint64_t i = 0; i < 32; ++i) {
    auto bh = bc.getblk(i * 3);  // scattered
    ASSERT_TRUE(bh.ok());
    bc.mark_dirty(bh.value());
    held.push_back(bh.value());
  }
  EXPECT_TRUE(f->wake_due(nullptr));
  f->poke(nullptr);
  EXPECT_EQ(bc.nr_dirty(), 0u);
  EXPECT_EQ(f->stats().buffers_flushed, 32u);
  EXPECT_EQ(dev_.queue().stats().async_batches, 4u);  // 32 / 8
  EXPECT_GE(dev_.queue().stats().max_inflight, 2u);   // QD>1
  EXPECT_EQ(dev_.queue().inflight(), 0u);
  for (auto* bh : held) bc.brelse(bh);
}

TEST_F(FlusherTest, DefaultDrainPlugsBatchesIntoOneElevatorPass) {
  // The default drain (use_plug on) accumulates the sub-batches under a
  // request plug: one queue submission per wake, cross-batch merging.
  SuperBlock sb(dev_, 0);
  FlusherParams fp;
  fp.dirty_buffers_min = 16;
  fp.max_batch = 8;
  fp.queue_depth = 2;
  sb.attach_flusher(std::make_unique<Flusher>(sb, fp));
  Flusher* f = sb.flusher();

  auto& bc = sb.bufcache();
  std::vector<kern::BufferHead*> held;
  for (std::uint64_t i = 0; i < 32; ++i) {
    auto bh = bc.getblk(100 + i);  // contiguous: merges into one request
    ASSERT_TRUE(bh.ok());
    bc.mark_dirty(bh.value());
    held.push_back(bh.value());
  }
  const auto wreq_before = dev_.stats().write_requests;
  f->poke(nullptr);
  EXPECT_EQ(bc.nr_dirty(), 0u);
  EXPECT_EQ(f->stats().buffers_flushed, 32u);
  EXPECT_EQ(dev_.plug_stats().plugs, 1u);
  EXPECT_EQ(dev_.plug_stats().plugged_batches, 4u);  // 32 / 8
  EXPECT_EQ(dev_.queue().stats().async_batches, 1u);  // one merged pass
  EXPECT_EQ(dev_.stats().write_requests - wreq_before, 1u);  // one command
  EXPECT_EQ(dev_.queue().inflight(), 0u);
  for (auto* bh : held) bc.brelse(bh);
}

TEST_F(FlusherTest, DrainWriteErrorLandsInTheErrorSequenceOnce) {
  // An EIO on the flusher's own clock (the writer returned long ago) must
  // surface through the buffer cache's writeback error sequence so the
  // caller's NEXT fsync reports it — exactly once per sampled cursor.
  SuperBlock sb(dev_, 0);
  FlusherParams fp;
  fp.dirty_buffers_min = 4;
  fp.dirty_pages_threshold = 1000;
  sb.attach_flusher(std::make_unique<Flusher>(sb, fp));
  Flusher* f = sb.flusher();

  auto& bc = sb.bufcache();
  kern::ErrSeqCursor cur = bc.wb_err_sample();  // "fd opened here"
  dev_.inject_write_error(7);
  std::vector<kern::BufferHead*> held;
  for (std::uint64_t b = 5; b < 13; ++b) {
    auto bh = bc.getblk(b);
    ASSERT_TRUE(bh.ok());
    bc.mark_dirty(bh.value());
    held.push_back(bh.value());
  }
  f->poke(nullptr);

  // Block 7's write failed; the rest drained. The failed buffer stays
  // dirty (the write never happened) and the failure is sequenced.
  EXPECT_EQ(bc.nr_dirty(), 1u);
  EXPECT_EQ(bc.wb_err_seq(), 1u);
  EXPECT_EQ(bc.wb_err_check(cur), Err::Io);  // reported at "fsync"...
  EXPECT_EQ(bc.wb_err_check(cur), Err::Ok);  // ...exactly once

  // A cursor sampled after the failure (a later open) sees nothing.
  kern::ErrSeqCursor later = bc.wb_err_sample();
  EXPECT_EQ(bc.wb_err_check(later), Err::Ok);

  dev_.clear_write_error(7);
  for (auto* bh : held) bc.brelse(bh);
}

TEST_F(FlusherTest, MultipleInodesAllDrain) {
  SuperBlock sb(dev_, 0);
  CountingAops aops;
  Inode& a = make_file(sb, 1, aops);
  Inode& b = make_file(sb, 2, aops);

  FlusherParams fp;
  fp.dirty_pages_threshold = 8;
  sb.attach_flusher(std::make_unique<Flusher>(sb, fp));

  dirty_pages(a, 0, 8);   // at threshold
  dirty_pages(b, 10, 3);  // below — drained anyway once awake
  sb.flusher()->poke(&a);
  EXPECT_EQ(a.mapping.nr_dirty(), 0u);
  EXPECT_EQ(b.mapping.nr_dirty(), 0u);
  EXPECT_EQ(sb.flusher()->stats().pages_flushed, 11u);
}

TEST_F(FlusherTest, WakeScansOnlyDirtyInodes) {
  // The O(dirty) regression for the old full-walk: a wake on a cache full
  // of CLEAN inodes must examine only the dirty-inode list, not the whole
  // inode cache.
  SuperBlock sb(dev_, 0);
  CountingAops aops;
  for (kern::Ino ino = 100; ino < 300; ++ino) {
    make_file(sb, ino, aops);  // 200 resident, clean inodes
  }
  Inode& d1 = make_file(sb, 1, aops);
  Inode& d2 = make_file(sb, 2, aops);
  Inode& d3 = make_file(sb, 3, aops);
  dirty_pages(d1, 0, 4);
  dirty_pages(d2, 0, 4);
  dirty_pages(d3, 0, 4);
  EXPECT_EQ(sb.dirty_inode_count(), 3u);

  FlusherParams fp;
  fp.dirty_pages_threshold = 4;
  sb.attach_flusher(std::make_unique<Flusher>(sb, fp));
  Flusher* f = sb.flusher();
  f->poke(&d1);
  EXPECT_EQ(f->stats().pages_flushed, 12u);  // all three dirty inodes
  EXPECT_EQ(f->stats().inodes_scanned, 3u)
      << "a wake must walk the dirty list, not all " << sb.cached_inodes()
      << " cached inodes";
  EXPECT_EQ(sb.dirty_inode_count(), 3u);  // pruned lazily at next wake
  dirty_pages(d1, 0, 4);
  f->poke(&d1);
  // Second wake re-scans the 3 list entries, prunes the 2 now-clean ones.
  EXPECT_EQ(f->stats().inodes_scanned, 6u);
  EXPECT_EQ(sb.dirty_inode_count(), 1u);
}

TEST(FlusherSharding, BackpressureThrottlesOnlySlowMemberWriters) {
  // Two-speed striped volume: member 1's transfers are ~300x slower than
  // member 0's. Each member has its own flusher; per-device backpressure
  // must throttle only writers whose inodes shard to the slow member.
  sim::SimThread boot(0);
  sim::ScopedThread in(boot);
  blk::StripeParams sp;
  sp.ndevices = 2;
  sp.chunk_blocks = 4;
  std::vector<blk::DeviceParams> members(2);
  members[0].nblocks = members[1].nblocks = 4096;
  members[1].write_xfer = sim::usec(2000);  // the slow shard
  blk::StripedDevice dev(sp, members);
  SuperBlock sb(dev, 0);

  FlusherParams fp;
  fp.dirty_buffers_min = 8;  // volume-wide; per-member trigger = 4
  fp.dirty_pages_threshold = 1000;
  fp.max_backlog = sim::msec(1);
  kern::maybe_attach_flusher(sb, blk::MountOpts{}, fp);
  ASSERT_EQ(sb.flusher_count(), 2u);  // one flusher per member device

  Inode& fast_file = sb.inew(10);  // ino 10 -> shard 0
  Inode& slow_file = sb.inew(11);  // ino 11 -> shard 1
  fast_file.type = slow_file.type = FileType::Regular;
  ASSERT_EQ(sb.flusher_for(&fast_file), sb.flusher_at(0));
  ASSERT_EQ(sb.flusher_for(&slow_file), sb.flusher_at(1));

  // 16 dirty buffers per member: even chunks live on member 0, odd on 1.
  auto& bc = sb.bufcache();
  std::vector<kern::BufferHead*> held;
  for (std::uint64_t chunk = 0; chunk < 32; ++chunk) {
    auto bh = bc.getblk(chunk * 4);
    ASSERT_TRUE(bh.ok());
    bc.mark_dirty(bh.value());
    held.push_back(bh.value());
  }
  ASSERT_EQ(bc.nr_dirty_shard(0), 16u);
  ASSERT_EQ(bc.nr_dirty_shard(1), 16u);

  // A writer bound to the FAST member pokes through the normal writer
  // hook: its own flusher drains shard 0 and may throttle it; the slow
  // member's flusher gets a courtesy wake — it drains ITS shard too (no
  // member starves just because no writer's inode hashes to it), but an
  // unowned member's backlog can never throttle this writer.
  sim::SimThread fast_writer(10);
  {
    sim::ScopedThread w(fast_writer);
    sb.poke_flushers(&fast_file);
  }
  EXPECT_EQ(bc.nr_dirty_shard(0), 0u);
  EXPECT_EQ(bc.nr_dirty_shard(1), 0u);  // courtesy wake drained the rest
  EXPECT_EQ(sb.flusher_at(0)->stats().buffers_flushed, 16u);
  EXPECT_EQ(sb.flusher_at(1)->stats().buffers_flushed, 16u);
  EXPECT_EQ(sb.flusher_at(0)->stats().throttle_waits, 0u);
  EXPECT_EQ(sb.flusher_at(1)->stats().throttle_waits, 0u);
  EXPECT_EQ(fast_writer.now(), 0);  // never throttled, never charged

  // A writer bound to the SLOW member: that member's drain is now far
  // past the backlog window, so THIS writer (and only this one) is
  // throttled to the slow member's drain rate.
  sim::SimThread slow_writer(11);
  {
    sim::ScopedThread w(slow_writer);
    sb.poke_flushers(&slow_file);
  }
  EXPECT_GE(sb.flusher_at(1)->stats().throttle_waits, 1u);
  EXPECT_EQ(sb.flusher_at(0)->stats().throttle_waits, 0u);
  EXPECT_GT(slow_writer.now(), sim::msec(1));  // held back by backpressure
  EXPECT_GT(sb.flusher_at(1)->last_completion(), slow_writer.now());

  for (auto* bh : held) bc.brelse(bh);
}

// ---- integration: real deployments ----

TEST(FlusherIntegration, BentoWritesDrainInBackgroundAndSurviveFsync) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = 16384;  // 64 MiB
  auto& dev = kernel.add_device("ssd0", params);
  xv6::mkfs(dev, 512);
  bento::register_bento_fs(kernel, "xv6_bento", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  ASSERT_EQ(Err::Ok, kernel.mount("xv6_bento", "ssd0", "/mnt"));
  kern::SuperBlock* sb = kernel.sb_at("/mnt");
  ASSERT_NE(sb, nullptr);
  ASSERT_NE(sb->flusher(), nullptr) << "Bento mounts attach a flusher";

  auto& p = kernel.proc();
  auto fd = kernel.open(p, "/mnt/big", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  // 2 MiB of buffered writes: crosses the 256-dirty-page threshold
  // repeatedly, so the background flusher (not the writer) drains.
  std::string chunk(64 << 10, 'x');
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(kernel.write(p, fd.value(), as_bytes(chunk)).ok());
  }
  EXPECT_GT(sb->flusher()->stats().pages_flushed, 0u)
      << "background flusher should have drained threshold writeback";

  ASSERT_EQ(Err::Ok, kernel.fsync(p, fd.value()));
  // fsync caught up with THIS inode's background writeback (per-inode
  // barrier — an unrelated file's writeback would not be charged).
  auto ino = kernel.resolve("/mnt/big");
  ASSERT_TRUE(ino.ok());
  EXPECT_GE(sim::now(), ino.value()->mapping.writeback_done_at());
  sb->iput(ino.value());

  // Data integrity end-to-end.
  std::vector<std::byte> buf(chunk.size());
  ASSERT_TRUE(kernel.pread(p, fd.value(), buf, 31 * chunk.size()).ok());
  EXPECT_EQ(to_string({buf.data(), buf.size()}), chunk);
  ASSERT_EQ(Err::Ok, kernel.close(p, fd.value()));
  ASSERT_EQ(Err::Ok, kernel.umount("/mnt"));
}

TEST(FlusherIntegration, NoflusherMountOptRestoresWriterContextSync) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = 16384;
  auto& dev = kernel.add_device("ssd0", params);
  xv6::mkfs(dev, 512);
  bento::register_bento_fs(kernel, "xv6_bento", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  ASSERT_EQ(Err::Ok,
            kernel.mount("xv6_bento", "ssd0", "/mnt", "noflusher"));
  kern::SuperBlock* sb = kernel.sb_at("/mnt");
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sb->flusher(), nullptr);
  ASSERT_EQ(Err::Ok, kernel.umount("/mnt"));
}

TEST(FlusherIntegration, DeterministicAcrossRuns) {
  // The same workload twice: device state and flusher stats must be
  // bit-identical (crash-sweep reproducibility depends on this).
  auto run = [] {
    sim::SimThread thread(0);
    sim::ScopedThread in(thread);
    kern::Kernel kernel;
    blk::DeviceParams params;
    params.nblocks = 16384;
    auto& dev = kernel.add_device("ssd0", params);
    xv6::mkfs(dev, 512);
    bento::register_bento_fs(kernel, "xv6_bento", [] {
      return std::make_unique<xv6::Xv6FileSystem>();
    });
    EXPECT_EQ(Err::Ok, kernel.mount("xv6_bento", "ssd0", "/mnt"));
    auto& p = kernel.proc();
    auto fd = kernel.open(p, "/mnt/f", kern::kOCreat | kern::kORdWr);
    std::string chunk(128 << 10, 'd');
    for (int i = 0; i < 16; ++i) {
      (void)kernel.write(p, fd.value(), as_bytes(chunk));
    }
    (void)kernel.fsync(p, fd.value());
    kern::SuperBlock* sb = kernel.sb_at("/mnt");
    const auto fstats = sb->flusher()->stats();
    struct Result {
      std::uint64_t writes, wakeups, pages;
      sim::Nanos clock;
    } r{dev.stats().writes, fstats.wakeups, fstats.pages_flushed,
        sim::now()};
    (void)kernel.close(p, fd.value());
    (void)kernel.umount("/mnt");
    return r;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_EQ(a.clock, b.clock);
}

}  // namespace
}  // namespace bsim::test
