// Unit tests for the buffer cache: caching, refcounts, writeback, LRU
// order and eviction, and the write path the journal depends on.
#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <cstring>
#include <span>
#include <vector>

#include "kernel/buffer_cache.h"
#include "sim/thread.h"

namespace bsim::kern {
namespace {

class BufferCacheTest : public ::testing::Test {
 protected:
  BufferCacheTest() : dev_(params()) {}

  static blk::DeviceParams params() {
    blk::DeviceParams p;
    p.nblocks = 256;
    return p;
  }

  void SetUp() override { sim::set_current(&thread_); }
  void TearDown() override { sim::set_current(nullptr); }

  /// Write `bhs` back and wait for the batch, as a synchronous writer does.
  static Err write_back(BufferCache& cache,
                        std::span<BufferHead* const> bhs) {
    const blk::Ticket t = cache.sync_dirty_buffers_async(bhs);
    cache.wait(t);
    return t.failed ? Err::Io : Err::Ok;
  }

  /// Read and release each of `blocks`, in order.
  static void touch(BufferCache& cache,
                    std::initializer_list<std::uint64_t> blocks) {
    for (const std::uint64_t b : blocks) {
      auto bh = cache.bread(b);
      ASSERT_TRUE(bh.ok());
      cache.brelse(bh.value());
    }
  }

  /// Whether each of `blocks` is cached, read in order: a hit leaves the
  /// miss count alone, so a test can check residency with breads as long
  /// as the misses come last.
  std::vector<bool> cached(BufferCache& cache,
                           std::initializer_list<std::uint64_t> blocks) {
    std::vector<bool> out;
    for (const std::uint64_t b : blocks) {
      const auto misses = cache.stats().misses;
      auto bh = cache.bread(b);
      EXPECT_TRUE(bh.ok());
      if (bh.ok()) cache.brelse(bh.value());
      out.push_back(cache.stats().misses == misses);
    }
    return out;
  }

  sim::SimThread thread_{0};
  blk::BlockDevice dev_;
};

TEST_F(BufferCacheTest, MissThenHit) {
  BufferCache cache(dev_, 16);
  auto a = cache.bread(5);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.brelse(a.value());
  auto b = cache.bread(5);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(a.value(), b.value());  // same buffer
  cache.brelse(b.value());
}

TEST_F(BufferCacheTest, ReadsDeviceContent) {
  std::array<std::byte, blk::kBlockSize> w{};
  w[0] = std::byte{0xAB};
  dev_.write_untimed(9, w);
  BufferCache cache(dev_, 16);
  auto bh = cache.bread(9);
  ASSERT_TRUE(bh.ok());
  EXPECT_EQ(bh.value()->bytes()[0], std::byte{0xAB});
  cache.brelse(bh.value());
}

TEST_F(BufferCacheTest, GetblkDoesNotReadDevice) {
  BufferCache cache(dev_, 16);
  const auto reads_before = dev_.stats().reads;
  auto bh = cache.getblk(3);
  ASSERT_TRUE(bh.ok());
  EXPECT_EQ(dev_.stats().reads, reads_before);
  cache.brelse(bh.value());
}

TEST_F(BufferCacheTest, SyncDirtyBufferWritesThrough) {
  BufferCache cache(dev_, 16);
  auto bh = cache.bread(4);
  ASSERT_TRUE(bh.ok());
  bh.value()->bytes()[0] = std::byte{0x5C};
  cache.mark_dirty(bh.value());
  ASSERT_EQ(Err::Ok, write_back(cache, {&bh.value(), 1}));
  EXPECT_FALSE(bh.value()->dirty);
  cache.brelse(bh.value());

  std::array<std::byte, blk::kBlockSize> r{};
  dev_.read_untimed(4, r);
  EXPECT_EQ(r[0], std::byte{0x5C});
}

TEST_F(BufferCacheTest, DirtyBlockStaysInCacheUntilSync) {
  // The property journaling depends on: modifying a cached block must not
  // reach the device until explicitly written.
  BufferCache cache(dev_, 16);
  auto bh = cache.bread(4);
  ASSERT_TRUE(bh.ok());
  bh.value()->bytes()[0] = std::byte{0x77};
  cache.mark_dirty(bh.value());
  std::array<std::byte, blk::kBlockSize> r{};
  dev_.read_untimed(4, r);
  EXPECT_EQ(r[0], std::byte{0});  // device still has old content
  ASSERT_EQ(Err::Ok, write_back(cache, {&bh.value(), 1}));
  cache.brelse(bh.value());
}

TEST_F(BufferCacheTest, EvictionNeitherWritesNorDropsDirtyBuffers) {
  // Only a buffer's owner (a journal commit) writes it: eviction passes
  // over dirty buffers, and the cache overshoots its capacity meanwhile.
  // Once written, an unreferenced drop-behind buffer is the next victim.
  BufferCache cache(dev_, 4);
  std::vector<BufferHead*> dirty;
  for (std::uint64_t b = 0; b < 4; ++b) {
    auto bh = cache.getblk(b);
    ASSERT_TRUE(bh.ok());
    cache.mark_drop_behind(bh.value());
    bh.value()->bytes()[0] = std::byte{0x22};
    cache.mark_dirty(bh.value());
    cache.brelse(bh.value());
    dirty.push_back(bh.value());
  }
  for (std::uint64_t b = 10; b < 14; ++b) {
    auto bh = cache.bread(b);
    ASSERT_TRUE(bh.ok());
    cache.brelse(bh.value());
  }
  // Each miss past capacity evicted a clean block, never a dirty one.
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(cache.cached_blocks(), 5u);
  EXPECT_EQ(cache.stats().writebacks, 0u);
  EXPECT_EQ(cache.nr_dirty(), 4u);
  std::array<std::byte, blk::kBlockSize> r{};
  for (std::uint64_t b = 0; b < 4; ++b) {
    dev_.read_untimed(b, r);
    EXPECT_EQ(r[0], std::byte{0}) << "block " << b << " written on evict";
    auto bh = cache.bread(b);
    ASSERT_TRUE(bh.ok());
    EXPECT_EQ(bh.value(), dirty[b]);  // still cached, contents intact
    EXPECT_EQ(bh.value()->bytes()[0], std::byte{0x22});
    cache.brelse(bh.value());
  }

  // Written back, the drop-behind buffers go to the cold end: the next
  // miss evicts one of them, not the metadata block 13.
  ASSERT_EQ(Err::Ok, write_back(cache, dirty));
  const auto reads = dev_.stats().reads;
  auto fresh = cache.bread(20);
  ASSERT_TRUE(fresh.ok());
  cache.brelse(fresh.value());
  auto meta = cache.bread(13);
  ASSERT_TRUE(meta.ok());
  cache.brelse(meta.value());
  EXPECT_EQ(dev_.stats().reads, reads + 1);  // only block 20 missed
  EXPECT_EQ(cache.stats().evictions, 4u);
}

// ---- LRU order (capacity 4) ----

TEST_F(BufferCacheTest, HitMovesABufferToTheHotEnd) {
  BufferCache cache(dev_, 4);
  touch(cache, {0, 1, 2, 3});
  touch(cache, {0});  // hot end: 0, 3, 2, 1
  touch(cache, {4});  // evicts the coldest, 1, not 0
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cached(cache, {0, 2, 3, 4, 1}),
            (std::vector<bool>{true, true, true, true, false}));
}

TEST_F(BufferCacheTest, CleanDropBehindBufferGoesColdOnRelease) {
  BufferCache cache(dev_, 4);
  touch(cache, {0, 1, 2});
  auto data = cache.getblk(3);
  ASSERT_TRUE(data.ok());
  cache.mark_drop_behind(data.value());
  // Hot end: 3, 2, 1, 0. Released clean and unreferenced, 3 goes cold.
  cache.brelse(data.value());
  touch(cache, {4});
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cached(cache, {0, 1, 2, 4, 3}),
            (std::vector<bool>{true, true, true, true, false}));
}

TEST_F(BufferCacheTest, EvictionSkipsReferencedAndDirtyBuffers) {
  BufferCache cache(dev_, 4);
  auto held = cache.bread(0);
  ASSERT_TRUE(held.ok());
  auto dirty = cache.getblk(1);
  ASSERT_TRUE(dirty.ok());
  cache.mark_dirty(dirty.value());
  cache.brelse(dirty.value());
  touch(cache, {2, 3});  // hot end: 3, 2, 1 (dirty), 0 (referenced)
  touch(cache, {4});     // the coldest clean, unreferenced one is 2
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cached(cache, {0, 1, 3, 4, 2}),
            (std::vector<bool>{true, true, true, true, false}));
  EXPECT_EQ(cache.stats().writebacks, 0u);
  cache.brelse(held.value());
}

TEST_F(BufferCacheTest, InvalidateRangeDropsOnlyCleanUnreferencedBuffers) {
  BufferCache cache(dev_, 4);
  auto held = cache.bread(10);
  ASSERT_TRUE(held.ok());
  auto dirty = cache.getblk(11);
  ASSERT_TRUE(dirty.ok());
  cache.mark_dirty(dirty.value());
  cache.brelse(dirty.value());
  touch(cache, {12, 13});
  cache.invalidate(10, 3);  // 10, 11 and 12; 13 is past the range
  EXPECT_EQ(cache.cached_blocks(), 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cached(cache, {10, 11, 13, 12}),
            (std::vector<bool>{true, true, true, false}));
  EXPECT_TRUE(dirty.value()->dirty);
  cache.brelse(held.value());
}

TEST_F(BufferCacheTest, ReferencedBuffersAreNotEvicted) {
  BufferCache cache(dev_, 2);
  auto pinned = cache.bread(0);
  ASSERT_TRUE(pinned.ok());
  for (std::uint64_t i = 1; i < 6; ++i) {
    auto bh = cache.bread(i);
    ASSERT_TRUE(bh.ok());
    cache.brelse(bh.value());
  }
  // Block 0 must still be present (refcount held).
  auto again = cache.bread(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), pinned.value());
  cache.brelse(again.value());
  cache.brelse(pinned.value());
}

TEST_F(BufferCacheTest, DropBehindDataLeavesMetadataResident) {
  BufferCache cache(dev_, 16);
  const auto read_meta = [&] {
    for (std::uint64_t b = 0; b < 8; ++b) {
      auto bh = cache.bread(b);
      ASSERT_TRUE(bh.ok());
      cache.brelse(bh.value());
    }
  };
  // Write 64 blocks of file data through a 16-block cache, as a journal
  // does: each is marked, dirtied and written, half while referenced
  // (cleaned, then released) and half after release (released dirty,
  // then cleaned by a batched write, as an install does).
  const auto stream = [&](std::uint64_t first) {
    for (std::uint64_t b = first; b < first + 64; ++b) {
      auto bh = cache.getblk(b);
      ASSERT_TRUE(bh.ok());
      cache.mark_drop_behind(bh.value());
      bh.value()->bytes()[0] = std::byte{0x33};
      cache.mark_dirty(bh.value());
      if (b % 2 == 0) {
        ASSERT_EQ(Err::Ok, write_back(cache, {&bh.value(), 1}));
        cache.brelse(bh.value());
      } else {
        cache.brelse(bh.value());
        ASSERT_EQ(Err::Ok, write_back(cache, {&bh.value(), 1}));
      }
    }
  };
  read_meta();
  stream(100);
  const auto reads = dev_.stats().reads;
  const auto hits = cache.stats().hits;
  read_meta();  // the metadata outlived a data stream 4x the cache
  EXPECT_EQ(dev_.stats().reads, reads);
  EXPECT_EQ(cache.stats().hits, hits + 8);

  // getblk clears the mark: a data block reused as metadata is cached
  // like metadata again and survives the next stream.
  auto reused = cache.getblk(163);
  ASSERT_TRUE(reused.ok());
  EXPECT_FALSE(reused.value()->drop_behind);
  cache.brelse(reused.value());
  stream(170);
  auto again = cache.bread(163);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), reused.value());
  cache.brelse(again.value());
  EXPECT_EQ(dev_.stats().reads, reads);
}

TEST_F(BufferCacheTest, OutstandingRefsTracked) {
  BufferCache cache(dev_, 16);
  EXPECT_EQ(cache.outstanding_refs(), 0u);
  auto a = cache.bread(1);
  auto b = cache.bread(2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.outstanding_refs(), 2u);
  cache.brelse(a.value());
  cache.brelse(b.value());
  EXPECT_EQ(cache.outstanding_refs(), 0u);
}

TEST_F(BufferCacheTest, BreadAfterGetblkKeepsOverwrittenContent) {
  // Regression: block 9 has stale content on the device; getblk + full
  // overwrite + a later bread must see the new content, not re-read the
  // device. (This bug corrupted reallocated indirect blocks under the
  // fileserver workload.)
  std::array<std::byte, blk::kBlockSize> stale{};
  stale.fill(std::byte{0x66});
  dev_.write_untimed(9, stale);

  BufferCache cache(dev_, 16);
  auto nb = cache.getblk(9);
  ASSERT_TRUE(nb.ok());
  std::memset(nb.value()->bytes().data(), 0, blk::kBlockSize);
  cache.mark_dirty(nb.value());
  cache.brelse(nb.value());

  auto rb = cache.bread(9);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb.value()->bytes()[0], std::byte{0});  // not 0x66
  cache.brelse(rb.value());
}

TEST_F(BufferCacheTest, BreadBeyondDeviceFails) {
  BufferCache cache(dev_, 16);
  auto r = cache.bread(10'000);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::Io);
}

TEST_F(BufferCacheTest, InjectedReadErrorSurfacesAsIoError) {
  // A medium error on an unmirrored device must surface to the caller,
  // not silently hand back a zero-filled "cached" buffer.
  BufferCache cache(dev_, 16);
  dev_.inject_read_error(7);
  auto bad = cache.bread(7);
  EXPECT_FALSE(bad.ok());
  auto batch = cache.bread_batch(std::vector<std::uint64_t>{6, 7, 8});
  EXPECT_FALSE(batch.ok());

  // A rewrite repairs the sector; the read then succeeds and the buffer
  // population is consistent (no stale !uptodate entries pinned).
  std::array<std::byte, blk::kBlockSize> data{};
  data.fill(std::byte{0x5C});
  dev_.write(7, data);
  auto good = cache.bread(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value()->bytes()[0], std::byte{0x5C});
  cache.brelse(good.value());
  EXPECT_EQ(cache.outstanding_refs(), 0u);
}

TEST_F(BufferCacheTest, BreadOfInFlightBufferWaitsForTheFill) {
  // Threads run whole ops in host order: a's read is "done" in host order
  // before b runs, but b's clock is earlier than a's device completion.
  // b must not see the block before the device returned it.
  std::array<std::byte, blk::kBlockSize> w{};
  w[0] = std::byte{0x3E};
  dev_.write_untimed(12, w);
  BufferCache cache(dev_, 16);
  sim::SimThread a(1);
  sim::SimThread b(2);
  a.wait_until(sim::usec(5));
  {
    sim::ScopedThread in(a);
    auto bh = cache.bread(12);
    ASSERT_TRUE(bh.ok());
    cache.brelse(bh.value());
  }
  const sim::Nanos filled = a.now();
  ASSERT_GE(filled, sim::usec(5) + params().read_lat_rand);
  {
    sim::ScopedThread in(b);
    auto bh = cache.bread(12);
    ASSERT_TRUE(bh.ok());
    EXPECT_GE(b.now(), filled);
    EXPECT_EQ(bh.value()->bytes()[0], std::byte{0x3E});
    cache.brelse(bh.value());
  }
  sim::SimThread c(3);
  {
    sim::ScopedThread in(c);
    auto batch = cache.bread_batch(std::vector<std::uint64_t>{12, 13});
    ASSERT_TRUE(batch.ok());
    EXPECT_GE(c.now(), filled);
    for (BufferHead* bh : batch.value()) cache.brelse(bh);
  }
  EXPECT_EQ(dev_.stats().reads, 2u);  // block 12 once, block 13 once
}

}  // namespace
}  // namespace bsim::kern
