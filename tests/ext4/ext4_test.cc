// Unit tests for the ext4 comparator: block groups, journal commit and
// recovery, fsync's FLUSH, and the directory index.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "../testutil.h"
#include "sim/runner.h"

namespace bsim::test {
namespace {

using kern::Err;

class Ext4Test : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 65536;  // 256 MiB
    auto& dev = kernel_.add_device("ssd0", params);
    ext4::mkfs(dev, /*inodes_per_group=*/4096);
    wl::register_deployments(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount("ext4j", "ssd0", "/mnt"));
    mount_ = kernel_.sb_at("/mnt")->fs<ext4::Ext4Mount>();
    ASSERT_NE(mount_, nullptr);
  }

  kern::Process& proc() { return kernel_.proc(); }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  ext4::Ext4Mount* mount_ = nullptr;
};

TEST_F(Ext4Test, MetadataOpsDoNotCommitSynchronously) {
  // The mechanism behind ext4's untar/fileserver advantage: creates join
  // the running transaction in memory; no journal commit per operation.
  const auto before = mount_->journal_stats().commits;
  for (int i = 0; i < 50; ++i) {
    auto fd = kernel_.open(proc(), "/mnt/f" + std::to_string(i),
                           kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }
  EXPECT_EQ(mount_->journal_stats().commits, before);  // still uncommitted
  ASSERT_EQ(Err::Ok, kernel_.sync(proc()));
  EXPECT_GT(mount_->journal_stats().commits, before);  // one batched commit
}

TEST_F(Ext4Test, FsyncCommitsTheRunningTransaction) {
  auto fd = kernel_.open(proc(), "/mnt/d", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> data(16384, std::byte{7});
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), data).ok());
  const auto before = mount_->journal_stats().commits;
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  EXPECT_GT(mount_->journal_stats().commits, before);
  // data=journal: the file data itself went through the journal.
  EXPECT_GE(mount_->journal_stats().blocks_journaled, 4u);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(Ext4Test, EmptyCommitSkippedWithoutPendingWrites) {
  // Satellite (ISSUE 5): a flush-commit with nothing tagged, nothing in
  // flight, and nothing written since the last FLUSH must not pay a
  // header write + device FLUSH — it is skipped and counted.
  auto fd = kernel_.open(proc(), "/mnt/skip", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("payload")).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));  // real commit
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  const auto commits = mount_->journal_stats().commits;
  const auto skips = mount_->journal_stats().empty_commits_skipped;
  const auto flushes = kernel_.device("ssd0")->stats().flushes;
  // Nothing dirtied since the fsync's flush: sync(2) has nothing to
  // commit and nothing to FLUSH. (The sync_fs path is where the no-op
  // commit used to pay a header write + FLUSH.)
  ASSERT_EQ(Err::Ok, kernel_.sync(proc()));
  EXPECT_EQ(mount_->journal_stats().commits, commits);
  EXPECT_GT(mount_->journal_stats().empty_commits_skipped, skips);
  EXPECT_EQ(kernel_.device("ssd0")->stats().flushes, flushes);
}

TEST_F(Ext4Test, ThresholdCommitsArePipelined) {
  // The write path's threshold commits (no flush) keep their transfers
  // in flight on tickets — transaction N+1 fills while N's commit record
  // and checkpoint complete. fsync drains them.
  auto fd = kernel_.open(proc(), "/mnt/pipe", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> mb(1 << 20, std::byte{3});
  const auto before = mount_->journal_stats().pipelined_commits;
  for (int i = 0; i < 16; ++i) {  // 16 MiB > kTxnCommitThreshold blocks
    ASSERT_TRUE(kernel_.write(proc(), fd.value(), mb).ok());
  }
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  EXPECT_GT(mount_->journal_stats().pipelined_commits, before);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(Ext4Test, JournalRecoveryReplaysCommittedTransaction) {
  // Write + fsync, snapshot the device, then re-point a fresh kernel at
  // the snapshot: mount-time recovery must yield the same contents.
  auto fd = kernel_.open(proc(), "/mnt/r", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("recovered")).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  // Copy image.
  auto* dev = kernel_.device("ssd0");
  kern::Kernel kernel2;
  blk::DeviceParams params;
  params.nblocks = dev->nblocks();
  auto& dev2 = kernel2.add_device("ssd0", params);
  std::array<std::byte, blk::kBlockSize> buf{};
  for (std::uint64_t b = 0; b < dev->nblocks(); ++b) {
    dev->read_untimed(b, buf);
    dev2.write_untimed(b, buf);
  }
  wl::register_deployments(kernel2);
  ASSERT_EQ(Err::Ok, kernel2.mount("ext4j", "ssd0", "/mnt"));
  auto fd2 = kernel2.open(kernel2.proc(), "/mnt/r", kern::kORdOnly);
  ASSERT_TRUE(fd2.ok());
  std::vector<std::byte> rbuf(32);
  auto r = kernel2.read(kernel2.proc(), fd2.value(), rbuf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({rbuf.data(), r.value()}), "recovered");
  ASSERT_EQ(Err::Ok, kernel2.close(kernel2.proc(), fd2.value()));
}

TEST_F(Ext4Test, CleanUnmountLeavesNothingToReplay) {
  // A clean unmount checkpoints and flushes every commit, so it marks the
  // journal empty: the next mount finds no transaction to replay.
  auto fd = kernel_.open(proc(), "/mnt/c", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("clean")).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  ASSERT_GT(mount_->journal_stats().commits, 0u);
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));

  ASSERT_EQ(Err::Ok, kernel_.mount("ext4j", "ssd0", "/mnt"));
  mount_ = kernel_.sb_at("/mnt")->fs<ext4::Ext4Mount>();
  EXPECT_EQ(mount_->journal_stats().recoveries, 0u);
  fd = kernel_.open(proc(), "/mnt/c", kern::kORdOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> rbuf(32);
  auto r = kernel_.read(proc(), fd.value(), rbuf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({rbuf.data(), r.value()}), "clean");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(Ext4Test, AllocationUsesMultipleGroups) {
  // Write enough data that allocation must spill beyond group 0.
  auto fd = kernel_.open(proc(), "/mnt/big", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> mb(1 << 20, std::byte{1});
  for (int i = 0; i < 64; ++i) {  // 64 MiB
    ASSERT_TRUE(kernel_.write(proc(), fd.value(), mb).ok());
  }
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  auto st = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(st.ok());
  EXPECT_LT(st.value().free_blocks + 16384,
            st.value().total_blocks);  // >16k blocks in use
}

TEST(Ext4Mkfs, AShortLastGroupCoversTheDeviceTail) {
  // 4,099 head blocks, one full group, and a 600-block tail. With 64
  // inodes a group's inode table is 2 blocks, so the tail is a short
  // group of 596 data blocks.
  constexpr std::uint32_t kTail = 600;
  constexpr std::uint32_t kInodesPerGroup = 64;
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = 4099 + 32768 + kTail;
  auto& dev = kernel.add_device("ssd0", params);
  const ext4::Super s = ext4::mkfs(dev, kInodesPerGroup);
  ASSERT_EQ(s.first_group, 4099u);
  ASSERT_EQ(s.ngroups, 2u);

  // Mark every data block of group 0 allocated, so allocation must go to
  // the tail.
  std::array<std::byte, blk::kBlockSize> gdt{};
  dev.read_untimed(s.gdt_start, gdt);
  auto* gd = reinterpret_cast<ext4::GroupDesc*>(gdt.data());
  EXPECT_EQ(gd[0].data_blocks, 32768u - 4);
  EXPECT_EQ(gd[1].data_blocks, kTail - 4);
  EXPECT_EQ(gd[1].data_start + gd[1].data_blocks, params.nblocks);
  std::array<std::byte, blk::kBlockSize> bbm{};
  dev.read_untimed(gd[0].block_bitmap, bbm);
  const std::uint32_t first_data = gd[0].data_start - s.first_group;
  for (std::uint32_t i = first_data; i < first_data + gd[0].data_blocks; ++i) {
    bbm[i / 8] |= std::byte{1} << (i % 8);
  }
  dev.write_untimed(gd[0].block_bitmap, bbm);
  gd[0].free_blocks = 0;
  dev.write_untimed(s.gdt_start, gdt);

  wl::register_deployments(kernel);
  ASSERT_EQ(Err::Ok, kernel.mount("ext4j", "ssd0", "/mnt"));
  auto& p = kernel.proc();
  auto st = kernel.statfs(p, "/mnt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().total_blocks, (32768u - 4) + (kTail - 4));
  EXPECT_EQ(st.value().free_blocks, kTail - 4);
  EXPECT_EQ(st.value().total_inodes, 2u * kInodesPerGroup);

  // Append a block at a time until the file system is full: every tail
  // block is allocated before NoSpc (595 data blocks and one indirect).
  auto fd = kernel.open(p, "/mnt/fill", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  const std::vector<std::byte> block(blk::kBlockSize, std::byte{5});
  std::uint32_t written = 0;
  Err e = Err::Ok;
  for (; written < kTail; ++written) {
    auto w = kernel.write(p, fd.value(), block);
    e = w.ok() ? kernel.fsync(p, fd.value()) : w.error();
    if (e != Err::Ok) break;
  }
  EXPECT_EQ(e, Err::NoSpc);
  EXPECT_EQ(written, kTail - 4 - 1);
  st = kernel.statfs(p, "/mnt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().free_blocks, 0u);
}

TEST_F(Ext4Test, FreeCountsRestoreAfterDelete) {
  const auto free0 = mount_->free_blocks_total();
  const auto inodes0 = mount_->free_inodes_total();
  auto fd = kernel_.open(proc(), "/mnt/tmp", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> data(1 << 20, std::byte{1});
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), data).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_LT(mount_->free_blocks_total(), free0);

  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/tmp"));
  EXPECT_EQ(mount_->free_blocks_total(), free0);
  EXPECT_EQ(mount_->free_inodes_total(), inodes0);
}

TEST_F(Ext4Test, DirIndexSurvivesChurn) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/idx"));
  for (int i = 0; i < 500; ++i) {
    auto fd = kernel_.open(proc(), "/mnt/idx/e" + std::to_string(i),
                           kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }
  for (int i = 0; i < 500; i += 2) {
    ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/idx/e" + std::to_string(i)));
  }
  for (int i = 0; i < 500; ++i) {
    const bool should_exist = i % 2 == 1;
    EXPECT_EQ(kernel_.stat(proc(), "/mnt/idx/e" + std::to_string(i)).ok(),
              should_exist)
        << i;
  }
  auto entries = kernel_.readdir(proc(), "/mnt/idx");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 2u + 250u);
}

TEST_F(Ext4Test, ConcurrentFsyncsReturnAfterACoveringFlush) {
  // Eight threads each write and fsync their own file. An fsync's
  // writeback tags its data and its force commits it in the same step,
  // so the FLUSH that covers that commit is one issued during the fsync.
  // No fsync may return before such a FLUSH completes.
  class Syncer final : public sim::Workload {
   public:
    Syncer(kern::Kernel& k, std::string path, int& uncovered)
        : kernel_(k), path_(std::move(path)), uncovered_(uncovered) {}
    void setup() override {
      proc_ = kernel_.new_process();
      auto fd = kernel_.open(*proc_, path_, kern::kOCreat | kern::kOWrOnly);
      fd_ = fd.value();
    }
    std::int64_t step() override {
      if (steps_-- == 0) return -1;
      std::vector<std::byte> data(4096, std::byte{1});
      (void)kernel_.write(*proc_, fd_, data);
      const std::size_t before = flushes().size();
      EXPECT_EQ(Err::Ok, kernel_.fsync(*proc_, fd_));
      const std::vector<sim::Nanos> done = flushes();
      bool covered = false;
      for (std::size_t i = before; i < done.size(); ++i) {
        covered = covered || done[i] <= sim::now();
      }
      if (!covered) uncovered_ += 1;
      return 4096;
    }

   private:
    /// Completion times of every FLUSH so far, in issue order.
    std::vector<sim::Nanos> flushes() const {
      std::vector<sim::Nanos> done;
      for (const blk::TraceEvent& e :
           kernel_.device("ssd0")->tracer()->events()) {
        if (e.ev == blk::TraceEv::Flush) done.push_back(e.t);
      }
      return done;
    }

    kern::Kernel& kernel_;
    std::string path_;
    int& uncovered_;
    int steps_ = 20;
    std::unique_ptr<kern::Process> proc_;
    int fd_ = -1;
  };

  kernel_.device("ssd0")->arm_trace(1 << 16, "ssd0");
  int uncovered = 0;
  std::vector<std::unique_ptr<sim::Workload>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(std::make_unique<Syncer>(
        kernel_, "/mnt/gc" + std::to_string(i), uncovered));
  }
  sim::RunnerOptions opts;
  opts.horizon = 10 * sim::kSecond;
  (void)sim::run_workloads(jobs, opts);
  EXPECT_EQ(uncovered, 0);
}

TEST_F(Ext4Test, ReadpagesMapsExtentsOncePerRun) {
  // Write a file deep into the indirect region, drop the page cache via
  // remount, then scan it sequentially. The readahead batches must
  // resolve their mapping through map_run — a handful of indirect-block
  // reads per batch — with ZERO per-page bmap calls on the read path.
  const std::size_t kFileBytes = 48 * 4096;  // 48 blocks: direct + indirect
  auto fd = kernel_.open(proc(), "/mnt/big", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> data(kFileBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i / 4096);
  }
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), data).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.sync(proc()));
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount("ext4j", "ssd0", "/mnt"));
  mount_ = kernel_.sb_at("/mnt")->fs<ext4::Ext4Mount>();

  const auto before = mount_->map_stats();
  fd = kernel_.open(proc(), "/mnt/big", kern::kORdOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(4096);
  for (std::size_t off = 0; off < kFileBytes; off += buf.size()) {
    auto r = kernel_.pread(proc(), fd.value(), buf, off);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value(), buf.size());
    EXPECT_EQ(buf[0], static_cast<std::byte>(off / 4096));
  }
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  const auto& after = mount_->map_stats();
  const std::uint64_t batches = after.readpages_calls - before.readpages_calls;
  const std::uint64_t runs = after.map_runs - before.map_runs;
  const std::uint64_t indirect = after.map_indirect_reads -
                                 before.map_indirect_reads;
  ASSERT_GT(batches, 0u);
  EXPECT_EQ(runs, batches);  // one mapping pass per readahead batch
  // The whole 48-block scan touches one indirect block; per-block bmap
  // would have read it ~36 times. Allow one read per batch (the regression
  // bound: bmap calls / indirect reads per readahead batch <= 1).
  EXPECT_LE(indirect, batches);
  // The only single-block lookups left are outside readpages: the open's
  // directory lookup and the very first page's ->readpage (the stream
  // window has not opened yet). Per-page bmap would be ~48 here.
  EXPECT_LE(after.bmap_calls - before.bmap_calls, 4u)
      << "readpages must not fall back to per-page bmap";
}

}  // namespace
}  // namespace bsim::test
