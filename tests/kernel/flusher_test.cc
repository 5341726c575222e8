// Unit + integration tests for the background flusher: threshold and
// periodic-timer wakes, drains off the writer's clock, backpressure, the
// fsync catch-up barrier, and the mount opt-out.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "kernel/flusher.h"
#include "kernel/vfs.h"

namespace bsim::test {
namespace {

using kern::AddressSpaceOps;
using kern::Err;
using kern::FileType;
using kern::Flusher;
using kern::Inode;
using kern::kDirtyPagesThreshold;
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

  sb.attach_flusher(std::make_unique<Flusher>(sb));
  Flusher* f = sb.flusher();
  ASSERT_NE(f, nullptr);

  // Below the threshold: the poke is a no-op.
  constexpr std::size_t kHalf = kDirtyPagesThreshold / 2;
  dirty_pages(inode, 0, kHalf);
  EXPECT_FALSE(f->wake_due(inode));
  f->poke(inode);
  EXPECT_EQ(inode.mapping.nr_dirty(), kHalf);
  EXPECT_EQ(f->stats().wakeups, 0u);

  // Crossing it wakes the flusher, which drains EVERYTHING — on its own
  // clock: the writer's virtual time must not advance.
  dirty_pages(inode, kHalf, kDirtyPagesThreshold - kHalf);
  EXPECT_TRUE(f->wake_due(inode));
  const sim::Nanos writer_before = sim::now();
  f->poke(inode);
  EXPECT_EQ(sim::now(), writer_before);
  EXPECT_EQ(inode.mapping.nr_dirty(), 0u);
  EXPECT_EQ(aops.pages, kDirtyPagesThreshold);
  EXPECT_EQ(f->stats().threshold_wakeups, 1u);
  EXPECT_EQ(f->stats().pages_flushed, kDirtyPagesThreshold);
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

  sb.attach_flusher(std::make_unique<Flusher>(sb));
  Flusher* f = sb.flusher();

  dirty_pages(inode, 0, 3);  // far below the threshold
  f->poke(inode);            // before the period: nothing
  EXPECT_EQ(inode.mapping.nr_dirty(), 3u);

  sim::current().wait(kern::kFlushPeriod);  // kupdated interval elapses
  f->poke(inode);
  EXPECT_EQ(inode.mapping.nr_dirty(), 0u);
  EXPECT_EQ(f->stats().timer_wakeups, 1u);
  EXPECT_EQ(f->stats().pages_flushed, 3u);
  EXPECT_EQ(f->stats().wake_to_drain.count(), 1u);

  // A timer wake with nothing dirty is counted as a wake, but it drained
  // nothing, so it records no wake-to-drain sample.
  sim::current().wait(kern::kFlushPeriod);
  f->poke(inode);
  EXPECT_EQ(f->stats().timer_wakeups, 2u);
  EXPECT_EQ(f->stats().pages_flushed, 3u);
  EXPECT_EQ(f->stats().wake_to_drain.count(), 1u);
}

TEST_F(FlusherTest, MultipleInodesAllDrain) {
  SuperBlock sb(dev_, 0);
  CountingAops aops;
  Inode& a = make_file(sb, 1, aops);
  Inode& b = make_file(sb, 2, aops);

  sb.attach_flusher(std::make_unique<Flusher>(sb));

  dirty_pages(a, 0, kDirtyPagesThreshold);  // at threshold
  dirty_pages(b, 0, 3);  // below — drained anyway once awake
  sb.flusher()->poke(a);
  EXPECT_EQ(a.mapping.nr_dirty(), 0u);
  EXPECT_EQ(b.mapping.nr_dirty(), 0u);
  EXPECT_EQ(sb.flusher()->stats().pages_flushed, kDirtyPagesThreshold + 3);
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
  dirty_pages(d1, 0, kDirtyPagesThreshold);
  dirty_pages(d2, 0, 4);
  dirty_pages(d3, 0, 4);
  EXPECT_EQ(sb.dirty_inode_count(), 3u);

  sb.attach_flusher(std::make_unique<Flusher>(sb));
  Flusher* f = sb.flusher();
  f->poke(d1);
  // All three dirty inodes.
  EXPECT_EQ(f->stats().pages_flushed, kDirtyPagesThreshold + 8);
  EXPECT_EQ(f->stats().inodes_scanned, 3u)
      << "a wake must walk the dirty list, not all " << sb.cached_inodes()
      << " cached inodes";
  EXPECT_EQ(sb.dirty_inode_count(), 3u);  // pruned lazily at next wake
  dirty_pages(d1, 0, kDirtyPagesThreshold);
  f->poke(d1);
  // Second wake re-scans the 3 list entries, prunes the 2 now-clean ones.
  EXPECT_EQ(f->stats().inodes_scanned, 6u);
  EXPECT_EQ(sb.dirty_inode_count(), 1u);
}

/// Writes each page synchronously to its own block, on the caller's
/// clock, so a drain occupies the device for as long as its writes take.
class DeviceAops final : public AddressSpaceOps {
 public:
  explicit DeviceAops(blk::BlockDevice& dev) : dev_(&dev) {}

  Err readpage(Inode&, std::uint64_t, std::span<std::byte> out) override {
    std::memset(out.data(), 0, out.size());
    return Err::Ok;
  }
  Err writepage(Inode&, std::uint64_t pgoff,
                std::span<const std::byte> data) override {
    dev_->write(pgoff, data);
    return Err::Ok;
  }

 private:
  blk::BlockDevice* dev_;
};

TEST_F(FlusherTest, BackpressureThrottlesOnlyAWriterAheadOfASlowDevice) {
  // One threshold's worth of dirty pages, drained by the flusher the
  // writer's poke woke.
  auto drain = [this](blk::BlockDevice& dev, sim::SimThread& writer) {
    SuperBlock sb(dev, 0);
    DeviceAops aops(dev);
    Inode& inode = make_file(sb, 10, aops);
    sb.attach_flusher(std::make_unique<Flusher>(sb));
    dirty_pages(inode, 0, kDirtyPagesThreshold);
    {
      sim::ScopedThread w(writer);
      sb.flusher()->poke(inode);
    }
    EXPECT_EQ(inode.mapping.nr_dirty(), 0u);
    EXPECT_EQ(sb.flusher()->stats().pages_flushed, kDirtyPagesThreshold);
    return std::pair{sb.flusher()->stats(), sb.flusher()->last_completion()};
  };

  // 256 writes at 2 ms each put the drain far past the backlog window:
  // one poke holds the writer back to the hard limit, kHardBacklog behind
  // the drain, since pacing by an eighth of the excess would leave more.
  blk::DeviceParams slow_params;
  slow_params.nblocks = 4096;
  slow_params.write_xfer = sim::usec(2000);
  blk::BlockDevice slow(slow_params);
  sim::SimThread slow_writer(1);
  const auto [slow_stats, slow_done] = drain(slow, slow_writer);
  EXPECT_GE(slow_stats.throttle_waits, 1u);
  EXPECT_GT(slow_writer.now(), kern::kMaxBacklog);
  EXPECT_EQ(slow_done - slow_writer.now(), kern::kHardBacklog);

  // The same drain on the default device (6 us per write) ends within
  // the window: the writer is never throttled or charged.
  sim::SimThread fast_writer(2);
  const auto [fast_stats, fast_done] = drain(dev_, fast_writer);
  EXPECT_EQ(fast_stats.throttle_waits, 0u);
  EXPECT_EQ(fast_writer.now(), 0);
  EXPECT_GT(fast_done, 0);
}

/// One mount whose flusher drains through DeviceAops on `dev`, and the
/// writer thread that pokes it.
class PacedWriter {
 public:
  explicit PacedWriter(blk::BlockDevice& dev)
      : sb_(dev, 0), aops_(dev), inode_(sb_.inew(10)) {
    inode_.type = FileType::Regular;
    inode_.aops = &aops_;
    sb_.attach_flusher(std::make_unique<Flusher>(sb_));
  }

  /// Dirty one threshold's worth of pages and poke: the flusher wakes
  /// and drains them on its own clock.
  void dirty_and_poke() {
    sim::ScopedThread w(writer_);
    for (std::uint64_t pg = 0; pg < kDirtyPagesThreshold; ++pg) {
      inode_.mapping.find_or_alloc(pg).uptodate = true;
      inode_.mapping.mark_dirty(pg);
    }
    flusher().poke(inode_);
  }

  /// Poke without dirtying anything (no wake); returns the pause.
  sim::Nanos poke() {
    sim::ScopedThread w(writer_);
    const sim::Nanos before = writer_.now();
    flusher().poke(inode_);
    return writer_.now() - before;
  }

  void advance(sim::Nanos dt) { writer_.wait(dt); }

  /// How far the drain runs ahead of the writer.
  [[nodiscard]] sim::Nanos backlog() {
    return flusher().last_completion() - writer_.now();
  }
  [[nodiscard]] Flusher& flusher() { return *sb_.flusher(); }

 private:
  SuperBlock sb_;
  DeviceAops aops_;
  Inode& inode_;
  sim::SimThread writer_{1};
};

blk::DeviceParams device_with_write_xfer(sim::Nanos xfer) {
  blk::DeviceParams p;
  p.nblocks = 4096;
  p.write_xfer = xfer;
  return p;
}

TEST_F(FlusherTest, AWriterPastTheWindowPausesAnEighthOfTheExcess) {
  // A drain of about 26 ms: past kMaxBacklog, inside kHardBacklog.
  blk::BlockDevice dev(device_with_write_xfer(sim::usec(100)));
  PacedWriter w(dev);
  w.dirty_and_poke();
  const sim::Nanos first = w.flusher().stats().throttled;
  ASSERT_GT(first, 0);
  ASSERT_GT(w.backlog() + first, kern::kMaxBacklog);
  ASSERT_LT(w.backlog() + first, kern::kHardBacklog);
  EXPECT_EQ(first,
            (w.backlog() + first - kern::kMaxBacklog) / kern::kPaceDivisor);

  // Each further poke closes an eighth of what is left of the excess.
  for (int i = 0; i < 6; ++i) {
    const sim::Nanos backlog = w.backlog();
    ASSERT_GT(backlog, kern::kMaxBacklog);
    EXPECT_EQ(w.poke(), (backlog - kern::kMaxBacklog) / kern::kPaceDivisor)
        << "poke " << i;
  }
  EXPECT_EQ(w.flusher().stats().throttle_waits, 7u);
  EXPECT_EQ(w.flusher().stats().wakeups, 1u);
}

TEST_F(FlusherTest, NoBacklogPassesTheHardLimit) {
  // Every round queues a 512 ms drain behind the last: each poke that
  // wakes the flusher leaves the writer exactly kHardBacklog behind, and
  // the pokes between wakes only shrink the backlog.
  blk::BlockDevice dev(device_with_write_xfer(sim::usec(2000)));
  PacedWriter w(dev);
  for (int round = 0; round < 4; ++round) {
    w.dirty_and_poke();
    EXPECT_EQ(w.backlog(), kern::kHardBacklog) << "round " << round;
    for (int i = 0; i < 3; ++i) {
      const sim::Nanos before = w.backlog();
      EXPECT_GT(w.poke(), 0);
      EXPECT_LT(w.backlog(), before);
      EXPECT_LE(w.backlog(), kern::kHardBacklog);
    }
  }
}

TEST_F(FlusherTest, AWriterInsideTheWindowNeverPauses) {
  // Each drain takes about 10 ms and the writer dirties the next batch
  // 12 ms later: the drain always runs ahead of the writer, never by more
  // than kMaxBacklog.
  blk::BlockDevice dev(device_with_write_xfer(sim::usec(40)));
  PacedWriter w(dev);
  for (int round = 0; round < 8; ++round) {
    w.dirty_and_poke();
    EXPECT_GT(w.backlog(), 0) << "round " << round;
    EXPECT_LE(w.backlog(), kern::kMaxBacklog) << "round " << round;
    EXPECT_EQ(w.poke(), 0);
    w.advance(sim::msec(12));
  }
  EXPECT_EQ(w.flusher().stats().wakeups, 8u);
  EXPECT_EQ(w.flusher().stats().throttle_waits, 0u);
  EXPECT_EQ(w.flusher().stats().throttled, 0);
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
