// Unit tests for xv6 file-system internals, driven through the userspace
// debug rig (UserMount + MemBlockBackend; §4.9) — no kernel involved.
// Covers block-mapping boundaries, sparse files, the log's absorption, and
// allocator accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bento/user.h"
#include "blockdev/opts.h"
#include "kernel/buffer_cache.h"
#include "sim/thread.h"
#include "xv6fs/fs.h"
#include "xv6fs/layout.h"

namespace bsim::xv6 {
namespace {

using bento::kRootIno;
using kern::Err;

/// Debug rig with a formatted in-memory "disk".
class Xv6Rig : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kBlocks = 16384;  // 64 MiB

  void SetUp() override {
    sim::set_current(&thread_);
    format_and_mount("");
  }

  /// Format a scratch device, load its image into the memory backend and
  /// mount it with mount options `opts` (replacing any earlier mount).
  void format_and_mount(std::string_view opts) {
    blk::DeviceParams params;
    params.nblocks = kBlocks;
    blk::BlockDevice scratch(params);
    dsb_ = mkfs(scratch, /*ninodes=*/1024);
    auto backend = std::make_unique<bento::MemBlockBackend>(scratch);
    auto fs = std::make_unique<Xv6FileSystem>();
    const auto parsed = blk::parse_mount_opts(opts);
    ASSERT_TRUE(parsed.has_value());
    fs->apply_mount_opts(*parsed);
    mount_ = std::make_unique<bento::UserMount>(std::move(backend),
                                                std::move(fs));
    ASSERT_EQ(Err::Ok, mount_->mount_init());
  }

  Xv6FileSystem& fs() {
    return static_cast<Xv6FileSystem&>(mount_->fs());
  }

  bento::Ino create_file(std::string_view name) {
    auto r = fs().create(mount_->mkreq(), mount_->borrow(), kRootIno, name,
                         0644);
    EXPECT_TRUE(r.ok());
    mount_->check_borrows();
    return r.ok() ? r.value().ino : 0;
  }

  void write_at(bento::Ino ino, std::uint64_t off,
                std::span<const std::byte> data) {
    auto r = fs().write(mount_->mkreq(), mount_->borrow(), ino, 0, off, data);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value(), data.size());
    mount_->check_borrows();
  }

  std::vector<std::byte> read_at(bento::Ino ino, std::uint64_t off,
                                 std::size_t len) {
    std::vector<std::byte> buf(len);
    auto r = fs().read(mount_->mkreq(), mount_->borrow(), ino, 0, off, buf);
    EXPECT_TRUE(r.ok());
    buf.resize(r.ok() ? r.value() : 0);
    mount_->check_borrows();
    return buf;
  }

  sim::SimThread thread_{0};
  DiskSuperblock dsb_;
  std::unique_ptr<bento::UserMount> mount_;
};

TEST_F(Xv6Rig, DirectToIndirectBoundary) {
  // Direct blocks cover kNDirect * 4K; write a byte pattern across the
  // boundary and read it back.
  const bento::Ino ino = create_file("boundary");
  const std::uint64_t boundary = kNDirect * kBlockSize;
  std::vector<std::byte> data(2 * kBlockSize);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i % 251);
  }
  write_at(ino, boundary - kBlockSize, data);
  auto got = read_at(ino, boundary - kBlockSize, data.size());
  EXPECT_EQ(got, data);

  auto attr = fs().getattr(mount_->mkreq(), mount_->borrow(), ino);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, boundary + kBlockSize);
}

TEST_F(Xv6Rig, IndirectToDoubleIndirectBoundary) {
  const bento::Ino ino = create_file("dind");
  const std::uint64_t boundary =
      (kNDirect + kNIndirect) * static_cast<std::uint64_t>(kBlockSize);
  std::vector<std::byte> data(2 * kBlockSize, std::byte{0x3C});
  write_at(ino, boundary - kBlockSize, data);
  auto got = read_at(ino, boundary - kBlockSize, data.size());
  EXPECT_EQ(got, data);
  // The double-indirect tree exists now (paper §6.1's 4 GB capability).
  auto attr = fs().getattr(mount_->mkreq(), mount_->borrow(), ino);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, boundary + kBlockSize);
}

TEST_F(Xv6Rig, SparseFileReadsZeroesInHoles) {
  const bento::Ino ino = create_file("sparse");
  const std::byte x{0x5A};
  write_at(ino, 0, {&x, 1});
  // Extend far beyond without writing the middle.
  write_at(ino, 100 * kBlockSize, {&x, 1});

  auto hole = read_at(ino, 50 * kBlockSize, 64);
  ASSERT_EQ(hole.size(), 64u);
  for (auto b : hole) EXPECT_EQ(b, std::byte{0});
  // Sparse: far fewer blocks allocated than the size implies.
  auto before = fs().free_data_blocks();
  EXPECT_GT(before, 0u);
}

TEST_F(Xv6Rig, WriteBulkMatchesLoopedWrites) {
  const bento::Ino a = create_file("bulk_a");
  const bento::Ino b = create_file("bulk_b");
  std::vector<std::byte> page0(kBlockSize, std::byte{1});
  std::vector<std::byte> page1(kBlockSize, std::byte{2});
  std::vector<std::span<const std::byte>> pages{page0, page1};

  auto r = fs().write_bulk(mount_->mkreq(), mount_->borrow(), a, 0, pages);
  ASSERT_TRUE(r.ok());
  mount_->check_borrows();
  write_at(b, 0, page0);
  write_at(b, kBlockSize, page1);

  EXPECT_EQ(read_at(a, 0, 2 * kBlockSize), read_at(b, 0, 2 * kBlockSize));
}

TEST_F(Xv6Rig, FullPageWriteBulkTagsTheInodeOnceAndZeroesNothing) {
  // From an empty running transaction, k full pages to a fresh file tag
  // the bitmap block (absorbed k - 1 times), k data blocks and the inode
  // block, each once. Zeroing a data block that writei then overwrites,
  // or updating the inode once per page, would show as more absorptions.
  const bento::Ino ino = create_file("bulk");
  ASSERT_EQ(Err::Ok, fs().fsync(mount_->mkreq(), mount_->borrow(), ino, 0,
                                false));
  mount_->check_borrows();
  constexpr std::size_t kPages = 8;
  std::vector<std::vector<std::byte>> data;
  std::vector<std::span<const std::byte>> pages;
  for (std::size_t i = 0; i < kPages; ++i) {
    data.emplace_back(kBlockSize, static_cast<std::byte>(i + 1));
  }
  for (const auto& d : data) pages.emplace_back(d);
  const auto before = fs().log_stats();
  auto r = fs().write_bulk(mount_->mkreq(), mount_->borrow(), ino, 0, pages);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), kPages * kBlockSize);
  mount_->check_borrows();
  ASSERT_EQ(Err::Ok, fs().fsync(mount_->mkreq(), mount_->borrow(), ino, 0,
                                false));
  mount_->check_borrows();
  const auto after = fs().log_stats();
  EXPECT_EQ(after.absorbed - before.absorbed, kPages - 1);
  EXPECT_EQ(after.blocks_logged - before.blocks_logged, kPages + 2);
  for (std::size_t i = 0; i < kPages; ++i) {
    EXPECT_EQ(read_at(ino, i * kBlockSize, kBlockSize), data[i]) << i;
  }
}

TEST_F(Xv6Rig, PartialWriteToAReusedBlockReadsZerosAroundIt) {
  // A block freed by a truncate still holds its old bytes. Reallocated
  // under a partial write, it must read back zeros around the bytes
  // written: balloc zeroes every block that writei does not fully
  // overwrite.
  const bento::Ino old = create_file("old");
  write_at(old, 0, std::vector<std::byte>(4 * kBlockSize, std::byte{0xAB}));
  bento::SetAttrIn shrink;
  shrink.set_size = true;
  shrink.size = 0;
  ASSERT_TRUE(
      fs().setattr(mount_->mkreq(), mount_->borrow(), old, shrink).ok());
  mount_->check_borrows();

  const bento::Ino ino = create_file("fresh");
  const std::vector<std::byte> payload(10, std::byte{0x5C});
  write_at(ino, 100, payload);
  const std::byte last{0x77};
  write_at(ino, kBlockSize - 1, {&last, 1});
  const auto got = read_at(ino, 0, kBlockSize);
  ASSERT_EQ(got.size(), kBlockSize);
  for (std::size_t i = 0; i < kBlockSize - 1; ++i) {
    const bool written = i >= 100 && i < 110;
    ASSERT_EQ(got[i], written ? payload[i - 100] : std::byte{0}) << i;
  }
  EXPECT_EQ(got[kBlockSize - 1], last);
}

TEST_F(Xv6Rig, LogAbsorbsRepeatedBlocks) {
  // An explicit 8-op cadence, so the writes below reach a commit.
  format_and_mount("max_log_batch=8");
  const bento::Ino ino = create_file("absorb");
  const auto before = fs().log_stats();
  // Many small writes to the same block within the same page: each write
  // is its own transaction here, but within a transaction the inode block
  // is logged once (absorption).
  std::vector<std::byte> chunk(512, std::byte{7});
  for (int i = 0; i < 8; ++i) {
    write_at(ino, static_cast<std::uint64_t>(i) * 512, chunk);
  }
  const auto after = fs().log_stats();
  EXPECT_GT(after.commits, before.commits);
  EXPECT_GT(after.absorbed, before.absorbed);  // data block re-logged
}

TEST_F(Xv6Rig, GroupCommitDoesNotCountOps) {
  // end_op sizes a transaction by log space and age, not by op count:
  // twenty closed ops (well past the old 8-op cadence) still pool.
  const bento::Ino ino = create_file("group");
  std::vector<std::byte> chunk(256, std::byte{4});
  for (int i = 0; i < 20; ++i) {
    write_at(ino, static_cast<std::uint64_t>(i) * 256, chunk);
  }
  EXPECT_EQ(fs().log_stats().commits, 0u);
  EXPECT_EQ(fs().log().inflight_commits(), 0u);
}

TEST_F(Xv6Rig, FsyncForcesThePooledTransaction) {
  const bento::Ino ino = create_file("forced");
  auto snap0 = fs().log_stats();
  std::vector<std::byte> chunk(256, std::byte{4});
  for (int i = 0; i < 3; ++i) {
    write_at(ino, static_cast<std::uint64_t>(i) * 256, chunk);
  }
  EXPECT_EQ(fs().log_stats().commits, snap0.commits);
  ASSERT_EQ(Err::Ok, fs().fsync(mount_->mkreq(), mount_->borrow(), ino, 0,
                                false));
  mount_->check_borrows();
  const auto after = fs().log_stats();
  EXPECT_EQ(after.commits, snap0.commits + 1);    // ONE commit for all ops
  EXPECT_GT(after.group_commits, snap0.group_commits);
  EXPECT_EQ(after.ops_committed, snap0.ops_committed + 4);  // create + 3
}

TEST_F(Xv6Rig, GroupCommitCommitsAtTheBlockThreshold) {
  // Each one-block append tags one new block (its data block; the bitmap
  // and inode blocks absorb), so the transaction reaches the threshold,
  // the log less one op's worst case, exactly: the op that closes on it
  // commits it, and none before does.
  const bento::Ino ino = create_file("threshold");
  const std::vector<std::byte> block(kBlockSize, std::byte{5});
  std::uint64_t bn = 0;
  while (fs().log_stats().commits == 0 && bn < kLogSize) {
    write_at(ino, bn * kBlockSize, block);
    bn += 1;
  }
  const auto stats = fs().log_stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.blocks_logged, kLogSize - kMaxOpBlocks);
}

TEST_F(Xv6Rig, GroupCommitCommitsAnAgedTransaction) {
  // The create opens the transaction (a few microseconds before it
  // returns); an op closing on it short of Log::kCommitAge pools, the
  // first one past the age commits it.
  const bento::Ino ino = create_file("aged");
  const sim::Nanos opened = thread_.now();
  std::vector<std::byte> chunk(64, std::byte{8});
  thread_.wait_until(opened + Log::kCommitAge - sim::msec(1));
  write_at(ino, 0, chunk);
  EXPECT_EQ(fs().log_stats().commits, 0u);
  thread_.wait_until(opened + Log::kCommitAge);
  write_at(ino, 64, chunk);
  const auto stats = fs().log_stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.ops_committed, 3u);
}

TEST_F(Xv6Rig, EmptyForceCommitAndFlushAreSkipped) {
  const bento::Ino ino = create_file("noop");
  std::vector<std::byte> chunk(64, std::byte{6});
  write_at(ino, 0, chunk);
  ASSERT_EQ(Err::Ok, fs().fsync(mount_->mkreq(), mount_->borrow(), ino, 0,
                                false));
  mount_->check_borrows();
  const auto snap = fs().log_stats();
  // A second fsync with nothing new: no commit work, no flush barrier.
  ASSERT_EQ(Err::Ok, fs().fsync(mount_->mkreq(), mount_->borrow(), ino, 0,
                                false));
  mount_->check_borrows();
  const auto after = fs().log_stats();
  EXPECT_EQ(after.commits, snap.commits);
  EXPECT_GT(after.empty_commits_skipped, snap.empty_commits_skipped);
  EXPECT_GT(after.flushes_skipped, snap.flushes_skipped);
}

TEST_F(Xv6Rig, TruncateToZeroFreesEverything) {
  const auto free0 = fs().free_data_blocks();
  const bento::Ino ino = create_file("bigfree");
  std::vector<std::byte> mb(1 << 20, std::byte{9});
  for (int i = 0; i < 8; ++i) {
    write_at(ino, static_cast<std::uint64_t>(i) << 20, mb);
  }
  EXPECT_LT(fs().free_data_blocks(), free0);

  bento::SetAttrIn shrink;
  shrink.set_size = true;
  shrink.size = 0;
  auto r = fs().setattr(mount_->mkreq(), mount_->borrow(), ino, shrink);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size, 0u);
  // Everything (data + index blocks) returned to the allocator; only the
  // root dir block difference remains.
  EXPECT_EQ(fs().free_data_blocks(), free0);
}

TEST_F(Xv6Rig, PartialTruncateKeepsPrefix) {
  const bento::Ino ino = create_file("part");
  std::vector<std::byte> data(6 * kBlockSize);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i / kBlockSize + 1);
  }
  write_at(ino, 0, data);

  bento::SetAttrIn shrink;
  shrink.set_size = true;
  shrink.size = 2 * kBlockSize + 100;
  ASSERT_TRUE(
      fs().setattr(mount_->mkreq(), mount_->borrow(), ino, shrink).ok());

  auto got = read_at(ino, 0, 6 * kBlockSize);
  ASSERT_EQ(got.size(), 2 * kBlockSize + 100);
  EXPECT_EQ(got[0], std::byte{1});
  EXPECT_EQ(got[2 * kBlockSize + 50], std::byte{3});
}

TEST_F(Xv6Rig, CreateRejectsBadNames) {
  auto dot = fs().create(mount_->mkreq(), mount_->borrow(), kRootIno, ".",
                         0644);
  EXPECT_FALSE(dot.ok());
  auto slash = fs().create(mount_->mkreq(), mount_->borrow(), kRootIno,
                           "a/b", 0644);
  EXPECT_FALSE(slash.ok());
  const std::string long_name(kDirNameLen + 5, 'x');
  auto toolong = fs().create(mount_->mkreq(), mount_->borrow(), kRootIno,
                             long_name, 0644);
  EXPECT_FALSE(toolong.ok());
}

TEST_F(Xv6Rig, CreateDuplicateFails) {
  create_file("dup");
  auto again = fs().create(mount_->mkreq(), mount_->borrow(), kRootIno,
                           "dup", 0644);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.error(), Err::Exist);
}

TEST_F(Xv6Rig, LookupMissingIsNoEnt) {
  auto r = fs().lookup(mount_->mkreq(), mount_->borrow(), kRootIno, "ghost");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::NoEnt);
}

TEST_F(Xv6Rig, StatfsTracksAllocations) {
  auto s0 = fs().statfs(mount_->mkreq(), mount_->borrow());
  ASSERT_TRUE(s0.ok());
  const bento::Ino ino = create_file("acct");
  std::vector<std::byte> blockful(kBlockSize, std::byte{1});
  write_at(ino, 0, blockful);
  auto s1 = fs().statfs(mount_->mkreq(), mount_->borrow());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1.value().free_inodes + 1, s0.value().free_inodes);
  EXPECT_LT(s1.value().free_blocks, s0.value().free_blocks);
}

TEST_F(Xv6Rig, ReaddirStreamsAllEntries) {
  for (int i = 0; i < 200; ++i) {
    create_file("many" + std::to_string(i));
  }
  std::uint64_t pos = 0;
  int count = 0;
  ASSERT_EQ(Err::Ok,
            fs().readdir(mount_->mkreq(), mount_->borrow(), kRootIno, pos,
                         [&](const kern::DirEnt&) {
                           count += 1;
                           return true;
                         }));
  EXPECT_EQ(count, 202);  // ".", "..", 200 files
}

TEST_F(Xv6Rig, FileGrowsToFBigLimit) {
  const bento::Ino ino = create_file("toofar");
  const std::byte x{1};
  // Writing beyond the maximum mapped block must fail cleanly.
  auto r = fs().write(mount_->mkreq(), mount_->borrow(), ino, 0,
                      kMaxFileBlocks * static_cast<std::uint64_t>(kBlockSize),
                      {&x, 1});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::FBig);
}

TEST(Xv6InodeLock, ReadersShareItAndAWriterWaitsForTheLast) {
  // A kernel-backed rig on a slow device, so every cold read (sequential
  // or not) holds the inode lock for a long, known time.
  sim::SimThread main(0);
  sim::ScopedThread in_main(main);
  blk::DeviceParams params;
  params.nblocks = 16384;
  params.read_lat_rand = sim::msec(10);
  params.read_lat_seq = params.read_lat_rand;
  blk::BlockDevice dev(params);
  mkfs(dev, /*ninodes=*/1024);
  kern::BufferCache cache(dev, /*capacity=*/0);
  bento::UserMount mount(std::make_unique<bento::KernelBlockBackend>(cache),
                         std::make_unique<Xv6FileSystem>());
  ASSERT_EQ(Err::Ok, mount.mount_init());
  auto& fs = static_cast<Xv6FileSystem&>(mount.fs());

  auto created =
      fs.create(mount.mkreq(), mount.borrow(), kRootIno, "shared", 0644);
  ASSERT_TRUE(created.ok());
  const bento::Ino ino = created.value().ino;
  const auto write_block = [&](std::uint64_t bn, std::byte fill) {
    std::vector<std::byte> block(kBlockSize, fill);
    auto w = fs.write(mount.mkreq(), mount.borrow(), ino, 0, bn * kBlockSize,
                      block);
    ASSERT_TRUE(w.ok());
  };
  for (std::uint64_t bn = 0; bn < 4; ++bn) {
    write_block(bn, static_cast<std::byte>(bn + 1));
  }
  ASSERT_EQ(Err::Ok, fs.sync_fs(mount.mkreq(), mount.borrow()));
  ASSERT_EQ(cache.nr_dirty(), 0u);  // the commit wrote every block home
  cache.invalidate();
  // Warm what a write of block 3 touches; time a second, warm write.
  write_block(3, std::byte{0x33});
  const sim::Nanos warm_start = main.now();
  write_block(3, std::byte{0x44});
  const sim::Nanos warm_write = main.now() - warm_start;
  ASSERT_LT(warm_write, params.read_lat_rand);

  const sim::Nanos t0 = main.now();
  const auto read_on = [&](sim::SimThread& t, std::uint64_t bn) {
    sim::ScopedThread in(t);
    t.wait_until(t0);
    std::vector<std::byte> buf(kBlockSize);
    auto r = fs.read(mount.mkreq(), mount.borrow(), ino, 0, bn * kBlockSize,
                     buf);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(buf[0], static_cast<std::byte>(bn + 1));
  };
  sim::SimThread r1(1);
  sim::SimThread r2(2);
  read_on(r1, 0);  // cold: holds the lock shared across the device read
  read_on(r2, 1);
  EXPECT_GE(r1.now() - t0, params.read_lat_rand);
  EXPECT_GE(r2.now() - t0, params.read_lat_rand);
  // Readers overlap rather than queue behind each other.
  EXPECT_LT(r2.now() - t0, 2 * params.read_lat_rand);

  sim::SimThread w(3);
  w.wait_until(t0);
  {
    sim::ScopedThread in(w);
    write_block(3, std::byte{0x55});
  }
  // Uncontended, the write would end after warm_write (< one device
  // read); it first waits for the later of the two shared releases.
  EXPECT_GE(w.now(), std::max(r1.now(), r2.now()));
  mount.check_borrows();
}

TEST(Xv6HeldBuffers, ForcedCommitLooksUpNoLoggedBlockAndCachesNoLogBlock) {
  // The running transaction holds a reference to each buffer it tags, so
  // its commit writes the log run and installs from those references: it
  // looks up no logged block (three lookups per block before), and the log
  // area never enters the cache. The header block is looked up twice, for
  // the commit record and for its clear.
  sim::SimThread main(0);
  sim::ScopedThread in_main(main);
  blk::DeviceParams params;
  params.nblocks = 16384;
  blk::BlockDevice dev(params);
  const DiskSuperblock dsb = mkfs(dev, /*ninodes=*/1024);
  kern::BufferCache cache(dev, /*capacity=*/0);
  bento::UserMount mount(std::make_unique<bento::KernelBlockBackend>(cache),
                         std::make_unique<Xv6FileSystem>());
  ASSERT_EQ(Err::Ok, mount.mount_init());
  auto& fs = static_cast<Xv6FileSystem&>(mount.fs());

  auto created =
      fs.create(mount.mkreq(), mount.borrow(), kRootIno, "held", 0644);
  ASSERT_TRUE(created.ok());
  const bento::Ino ino = created.value().ino;
  for (std::uint64_t bn = 0; bn < 8; ++bn) {
    const std::vector<std::byte> block(kBlockSize, std::byte{0x42});
    ASSERT_TRUE(fs.write(mount.mkreq(), mount.borrow(), ino, 0,
                         bn * kBlockSize, block)
                    .ok());
  }
  mount.check_borrows();
  ASSERT_EQ(fs.log_stats().commits, 0u);
  // One reference per tagged block, held by the running transaction.
  const std::uint64_t held = cache.outstanding_refs();
  EXPECT_GT(held, 8u);

  const auto lookups = [&] {
    return cache.stats().hits + cache.stats().misses;
  };
  const std::uint64_t before = lookups();
  ASSERT_EQ(Err::Ok, fs.sync_fs(mount.mkreq(), mount.borrow()));
  mount.check_borrows();
  EXPECT_EQ(lookups() - before, 2u);
  EXPECT_EQ(fs.log_stats().commits, 1u);
  EXPECT_EQ(fs.log_stats().blocks_logged, held);
  EXPECT_EQ(cache.outstanding_refs(), 0u);

  // Every block of the log run misses: none was cached.
  const std::uint64_t misses = cache.stats().misses;
  for (std::uint64_t i = 0; i < held; ++i) {
    auto bh = cache.bread(dsb.logstart + 1 + i);
    ASSERT_TRUE(bh.ok());
    cache.brelse(bh.value());
  }
  EXPECT_EQ(cache.stats().misses - misses, held);
  cache.invalidate(dsb.logstart + 1, held);
}

TEST(Xv6HeldBuffers, RecoveryDropsTheLogAreaItRead) {
  // Replay reads the log area through the cache; commits write it behind
  // the cache. A copy left cached by recovery would go stale under the
  // next commit's log run and be read back in place of the media.
  sim::SimThread main(0);
  sim::ScopedThread in_main(main);
  blk::DeviceParams params;
  params.nblocks = 16384;
  blk::BlockDevice dev(params);
  const DiskSuperblock dsb = mkfs(dev, /*ninodes=*/1024);
  // A committed transaction that never reached home: its header names one
  // free data block, whose new contents sit in the log area.
  const std::uint32_t home = dsb.size - 1;
  std::array<std::byte, kBlockSize> logged{};
  logged.fill(std::byte{0x6D});
  dev.write_untimed(dsb.logstart + 1, logged);
  LogHeader header;
  header.n = 1;
  header.blocks[0] = home;
  std::array<std::byte, kBlockSize> hblock{};
  std::memcpy(hblock.data(), &header, sizeof(header));
  dev.write_untimed(dsb.logstart, hblock);

  kern::BufferCache cache(dev, /*capacity=*/0);
  bento::UserMount mount(std::make_unique<bento::KernelBlockBackend>(cache),
                         std::make_unique<Xv6FileSystem>());
  ASSERT_EQ(Err::Ok, mount.mount_init());
  auto& fs = static_cast<Xv6FileSystem&>(mount.fs());
  EXPECT_EQ(fs.log_stats().recoveries, 1u);
  std::array<std::byte, kBlockSize> got{};
  dev.read_untimed(home, got);
  EXPECT_EQ(got, logged);

  // One commit writes the log area again, then read its first block back.
  auto created =
      fs.create(mount.mkreq(), mount.borrow(), kRootIno, "after", 0644);
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(Err::Ok, fs.sync_fs(mount.mkreq(), mount.borrow()));
  mount.check_borrows();
  ASSERT_EQ(fs.log_stats().commits, 1u);
  dev.read_untimed(dsb.logstart + 1, got);
  EXPECT_NE(got, logged);
  auto bh = cache.bread(dsb.logstart + 1);
  ASSERT_TRUE(bh.ok());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), bh.value()->bytes().begin()));
  cache.brelse(bh.value());
  cache.invalidate(dsb.logstart + 1, 1);
}

TEST(Xv6Bitmap, FirstFreeBitSkipsFullWordsAndKeepsToTheDataRange) {
  // Bitmap block 1 covers blocks kBitsPerBlock .. 2 * kBitsPerBlock - 1.
  DiskSuperblock dsb;
  dsb.datastart = kBitsPerBlock + 3;
  dsb.size = kBitsPerBlock + 200;
  std::vector<std::byte> bits(kBlockSize, std::byte{0xFF});
  EXPECT_EQ(kBitsPerBlock, first_free_bit(dsb, 1, bits));  // all taken

  // A free bit below datastart names no data block.
  bits[0] = std::byte{0xFE};
  EXPECT_EQ(kBitsPerBlock, first_free_bit(dsb, 1, bits));
  // Bit 5 of byte 17, in word 2, past the full word 1: bit 141.
  bits[17] = ~(std::byte{1} << 5);
  EXPECT_EQ(141u, first_free_bit(dsb, 1, bits));
  // A free bit at or past the device's end ends the scan.
  bits[17] = std::byte{0xFF};
  bits[25] = std::byte{0x00};  // bit 200: the first past the end
  EXPECT_EQ(kBitsPerBlock, first_free_bit(dsb, 1, bits));
  // The first free bit wins, even inside a word with earlier full bytes.
  bits[25] = std::byte{0xFF};
  bits[3] = std::byte{0x7F};  // bit 31
  bits[4] = std::byte{0x00};
  EXPECT_EQ(31u, first_free_bit(dsb, 1, bits));
  // Unaligned contents: no alignment is assumed.
  std::vector<std::byte> shifted(kBlockSize + 1, std::byte{0xFF});
  std::memcpy(shifted.data() + 1, bits.data(), kBlockSize);
  EXPECT_EQ(31u, first_free_bit(dsb, 1, {shifted.data() + 1, kBlockSize}));
}

TEST(Xv6Inodes, FirstFreeInodeResumesAtTheCursorAndChargesWhatItExamines) {
  sim::SimThread thread(0);
  sim::ScopedThread scope(thread);
  const sim::Nanos per_inode = sim::costs().ialloc_scan_per_inode;
  // Inode block 1 holds inodes 64..127; the table ends at inode 100.
  DiskSuperblock dsb;
  dsb.ninodes = 100;
  std::vector<Dinode> di(kInodesPerBlock);
  for (Dinode& d : di) d.type = static_cast<std::uint16_t>(InodeKind::File);
  di[70 % kInodesPerBlock].type = static_cast<std::uint16_t>(InodeKind::Free);
  di[90 % kInodesPerBlock].type = static_cast<std::uint16_t>(InodeKind::Free);

  // From 66: examines 66..70, takes 70 and leaves the cursor past it.
  std::uint32_t cursor = 66;
  EXPECT_EQ(70u, first_free_inode(dsb, di.data(), cursor));
  EXPECT_EQ(71u, cursor);
  EXPECT_EQ(5 * per_inode, thread.now());
  // A cursor past a free inode does not see it: 90 is next.
  EXPECT_EQ(90u, first_free_inode(dsb, di.data(), cursor));
  EXPECT_EQ(91u, cursor);
  // Nothing free before the table's end: 0, with the cursor at the end.
  const sim::Nanos before = thread.now();
  EXPECT_EQ(0u, first_free_inode(dsb, di.data(), cursor));
  EXPECT_EQ(100u, cursor);
  EXPECT_EQ(9 * per_inode, thread.now() - before);
  // A block with nothing free leaves the cursor at the next block.
  dsb.ninodes = 200;
  cursor = 91;
  EXPECT_EQ(0u, first_free_inode(dsb, di.data(), cursor));
  EXPECT_EQ(2 * kInodesPerBlock, cursor);
}

}  // namespace
}  // namespace bsim::xv6
