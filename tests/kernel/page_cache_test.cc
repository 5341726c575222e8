// Unit tests for the page cache / address space: read-through, dirty
// tracking, run coalescing for ->writepages, and truncation.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "kernel/page_cache.h"
#include "kernel/vfs.h"
#include "sim/thread.h"

namespace bsim::kern {
namespace {

/// Records the writeback calls it receives.
class RecordingAops final : public AddressSpaceOps {
 public:
  explicit RecordingAops(bool batched) : batched_(batched) {}

  Err readpage(Inode&, std::uint64_t pgoff,
               std::span<std::byte> out) override {
    reads.push_back(pgoff);
    std::memset(out.data(), static_cast<int>(pgoff & 0xFF), out.size());
    return Err::Ok;
  }
  Err writepage(Inode&, std::uint64_t pgoff,
                std::span<const std::byte>) override {
    single_writes.push_back(pgoff);
    return Err::Ok;
  }
  Err writepages(Inode&, std::span<const PageRun> runs,
                 std::size_t& completed_runs) override {
    completed_runs = 0;
    for (const auto& r : runs) {
      run_shapes.emplace_back(r.first_pgoff, r.pages.size());
      completed_runs += 1;
    }
    return Err::Ok;
  }
  [[nodiscard]] bool has_writepages() const override { return batched_; }

  std::vector<std::uint64_t> reads;
  std::vector<std::uint64_t> single_writes;
  std::vector<std::pair<std::uint64_t, std::size_t>> run_shapes;

 private:
  bool batched_;
};

class PageCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { sim::set_current(&thread_); }
  void TearDown() override { sim::set_current(nullptr); }

  sim::SimThread thread_{0};
  blk::BlockDevice dev_{[] {
    blk::DeviceParams p;
    p.nblocks = 64;
    return p;
  }()};
  SuperBlock sb_{dev_, 0};
};

TEST_F(PageCacheTest, ReadThroughOnce) {
  Inode inode(sb_, 10);
  RecordingAops aops(false);
  auto p1 = inode.mapping.read_page(inode, aops, 3);
  ASSERT_TRUE(p1.ok());
  auto p2 = inode.mapping.read_page(inode, aops, 3);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value(), p2.value());
  EXPECT_EQ(aops.reads.size(), 1u);  // second access was a cache hit
  EXPECT_EQ(p1.value()->bytes()[0], std::byte{3});
}

TEST_F(PageCacheTest, DirtyTrackingAndWritepageFallback) {
  Inode inode(sb_, 10);
  RecordingAops aops(false);
  for (std::uint64_t pg : {0ULL, 1ULL, 5ULL}) {
    auto& page = inode.mapping.find_or_alloc(pg);
    page.uptodate = true;
    inode.mapping.mark_dirty(pg);
  }
  EXPECT_EQ(inode.mapping.nr_dirty(), 3u);
  ASSERT_EQ(Err::Ok, inode.mapping.writeback(inode, aops));
  EXPECT_EQ(aops.single_writes, (std::vector<std::uint64_t>{0, 1, 5}));
  EXPECT_EQ(inode.mapping.nr_dirty(), 0u);
}

TEST_F(PageCacheTest, WritepagesCoalescesContiguousRuns) {
  Inode inode(sb_, 10);
  RecordingAops aops(true);
  for (std::uint64_t pg : {0ULL, 1ULL, 2ULL, 7ULL, 8ULL, 20ULL}) {
    auto& page = inode.mapping.find_or_alloc(pg);
    page.uptodate = true;
    inode.mapping.mark_dirty(pg);
  }
  ASSERT_EQ(Err::Ok, inode.mapping.writeback(inode, aops));
  ASSERT_EQ(aops.run_shapes.size(), 3u);
  EXPECT_EQ(aops.run_shapes[0], std::make_pair(std::uint64_t{0}, std::size_t{3}));
  EXPECT_EQ(aops.run_shapes[1], std::make_pair(std::uint64_t{7}, std::size_t{2}));
  EXPECT_EQ(aops.run_shapes[2], std::make_pair(std::uint64_t{20}, std::size_t{1}));
}

TEST_F(PageCacheTest, WritebackSkipsCleanPages) {
  Inode inode(sb_, 10);
  RecordingAops aops(false);
  auto& clean = inode.mapping.find_or_alloc(0);
  clean.uptodate = true;
  auto& dirty = inode.mapping.find_or_alloc(1);
  dirty.uptodate = true;
  inode.mapping.mark_dirty(1);
  ASSERT_EQ(Err::Ok, inode.mapping.writeback(inode, aops));
  EXPECT_EQ(aops.single_writes, std::vector<std::uint64_t>{1});
}

TEST_F(PageCacheTest, TruncateDropsPagesAndZeroesTail) {
  Inode inode(sb_, 10);
  RecordingAops aops(false);
  for (std::uint64_t pg = 0; pg < 4; ++pg) {
    auto& page = inode.mapping.find_or_alloc(pg);
    page.uptodate = true;
    std::memset(page.bytes().data(), 0xFF, kPageSize);
    inode.mapping.mark_dirty(pg);
  }
  inode.size = 4 * kPageSize;
  generic_truncate_pagecache(inode, kPageSize + 100);
  EXPECT_EQ(inode.size, kPageSize + 100);
  EXPECT_EQ(inode.mapping.nr_pages(), 2u);  // pages 0 and 1 remain
  // Tail of page 1 beyond byte 100 is zeroed.
  Page* p1 = inode.mapping.find(1);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1->bytes()[99], std::byte{0xFF});
  EXPECT_EQ(p1->bytes()[100], std::byte{0});
  EXPECT_EQ(p1->bytes()[kPageSize - 1], std::byte{0});
}

/// Fault injection: fails every writepages run (and every writepage call)
/// past a configurable budget — the mid-run failure the partial-writeback
/// regression tests drive.
class FailingAops final : public AddressSpaceOps {
 public:
  FailingAops(bool batched, std::size_t budget)
      : batched_(batched), budget_(budget) {}

  Err readpage(Inode&, std::uint64_t, std::span<std::byte> out) override {
    std::memset(out.data(), 0, out.size());
    return Err::Ok;
  }
  Err writepage(Inode&, std::uint64_t pgoff,
                std::span<const std::byte>) override {
    if (budget_ == 0) return Err::Io;
    budget_ -= 1;
    written_pages.push_back(pgoff);
    return Err::Ok;
  }
  Err writepages(Inode&, std::span<const PageRun> runs,
                 std::size_t& completed_runs) override {
    completed_runs = 0;
    for (const auto& run : runs) {
      if (budget_ == 0) return Err::Io;  // this run never reached media
      budget_ -= 1;
      written_runs.emplace_back(run.first_pgoff, run.pages.size());
      completed_runs += 1;
    }
    return Err::Ok;
  }
  [[nodiscard]] bool has_writepages() const override { return batched_; }

  void refill(std::size_t budget) { budget_ = budget; }

  std::vector<std::uint64_t> written_pages;
  std::vector<std::pair<std::uint64_t, std::size_t>> written_runs;

 private:
  bool batched_;
  std::size_t budget_;
};

TEST_F(PageCacheTest, PartialWritepagesFailureClearsExactlyCompletedPrefix) {
  // Regression: writeback used to clear NO dirty state when ->writepages
  // failed mid-run, so runs that already reached media were re-submitted
  // on the next sync (duplicate journal transactions, duplicate device
  // writes). Now exactly the completed prefix is retired.
  Inode inode(sb_, 10);
  FailingAops aops(/*batched=*/true, /*budget=*/1);  // 1 run, then EIO
  for (std::uint64_t pg : {0ULL, 1ULL, 2ULL, 7ULL, 8ULL, 20ULL}) {
    auto& page = inode.mapping.find_or_alloc(pg);
    page.uptodate = true;
    inode.mapping.mark_dirty(pg);
  }
  ASSERT_EQ(inode.mapping.nr_dirty(), 6u);

  // Runs: [0-2], [7-8], [20]. Budget 1: run [0-2] completes, [7-8] fails.
  EXPECT_EQ(Err::Io, inode.mapping.writeback(inode, aops));
  ASSERT_EQ(aops.written_runs.size(), 1u);
  EXPECT_EQ(aops.written_runs[0],
            std::make_pair(std::uint64_t{0}, std::size_t{3}));
  // Completed prefix clean; failed tail still dirty.
  EXPECT_EQ(inode.mapping.nr_dirty(), 3u);
  EXPECT_FALSE(inode.mapping.find(0)->dirty);
  EXPECT_FALSE(inode.mapping.find(2)->dirty);
  EXPECT_TRUE(inode.mapping.find(7)->dirty);
  EXPECT_TRUE(inode.mapping.find(8)->dirty);
  EXPECT_TRUE(inode.mapping.find(20)->dirty);

  // Re-dirtying an already-dirty page must not double-count.
  inode.mapping.mark_dirty(7);
  EXPECT_EQ(inode.mapping.nr_dirty(), 3u);

  // The retry submits ONLY the still-dirty runs — nothing is written
  // twice and nothing is lost.
  aops.refill(100);
  EXPECT_EQ(Err::Ok, inode.mapping.writeback(inode, aops));
  ASSERT_EQ(aops.written_runs.size(), 3u);
  EXPECT_EQ(aops.written_runs[1],
            std::make_pair(std::uint64_t{7}, std::size_t{2}));
  EXPECT_EQ(aops.written_runs[2],
            std::make_pair(std::uint64_t{20}, std::size_t{1}));
  EXPECT_EQ(inode.mapping.nr_dirty(), 0u);
}

TEST_F(PageCacheTest, PartialWritepageFailureKeepsIndexConsistent) {
  // The unbatched path had the dual bug: pages written before a mid-loop
  // failure were marked clean but stayed in the dirty-tag index, so
  // nr_dirty went inconsistent (and a later mark_dirty double-counted).
  Inode inode(sb_, 10);
  FailingAops aops(/*batched=*/false, /*budget=*/2);  // 2 pages, then EIO
  for (std::uint64_t pg : {0ULL, 1ULL, 5ULL, 9ULL}) {
    auto& page = inode.mapping.find_or_alloc(pg);
    page.uptodate = true;
    inode.mapping.mark_dirty(pg);
  }

  EXPECT_EQ(Err::Io, inode.mapping.writeback(inode, aops));
  EXPECT_EQ(aops.written_pages, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(inode.mapping.nr_dirty(), 2u);
  EXPECT_FALSE(inode.mapping.find(1)->dirty);
  EXPECT_TRUE(inode.mapping.find(5)->dirty);

  // mark_dirty on a retired page re-enters the index exactly once.
  inode.mapping.mark_dirty(0);
  EXPECT_EQ(inode.mapping.nr_dirty(), 3u);

  aops.refill(100);
  EXPECT_EQ(Err::Ok, inode.mapping.writeback(inode, aops));
  EXPECT_EQ(aops.written_pages, (std::vector<std::uint64_t>{0, 1, 0, 5, 9}));
  EXPECT_EQ(inode.mapping.nr_dirty(), 0u);
}

TEST_F(PageCacheTest, HitMissStats) {
  Inode inode(sb_, 10);
  RecordingAops aops(false);
  (void)inode.mapping.read_page(inode, aops, 0);
  (void)inode.mapping.read_page(inode, aops, 0);
  EXPECT_EQ(inode.mapping.stats().misses, 1u);
  EXPECT_EQ(inode.mapping.stats().hits, 1u);
}

// ---- concurrent misses (generic_file_read's fill protocol) ----

/// ->readpage that takes a device's random-read latency.
class SlowAops final : public AddressSpaceOps {
 public:
  static constexpr sim::Nanos kReadLat = sim::usec(80);

  Err readpage(Inode&, std::uint64_t pgoff,
               std::span<std::byte> out) override {
    reads += 1;
    sim::current().wait(kReadLat);
    std::memset(out.data(), static_cast<int>(pgoff & 0xFF), out.size());
    return Err::Ok;
  }
  Err writepage(Inode&, std::uint64_t, std::span<const std::byte>) override {
    return Err::Ok;
  }

  std::uint64_t reads = 0;
};

TEST_F(PageCacheTest, MissesOnOneFileOverlap) {
  Inode inode(sb_, 20);
  SlowAops aops;
  inode.aops = &aops;
  inode.size = 8 * kPageSize;
  std::vector<sim::SimThread> threads;
  for (int i = 1; i <= 4; ++i) threads.emplace_back(i);
  const std::uint64_t pages[] = {6, 0, 4, 2};
  std::vector<std::byte> buf(kPageSize);
  for (std::size_t i = 0; i < threads.size(); ++i) {
    sim::ScopedThread in(threads[i]);
    ASSERT_TRUE(generic_file_read(inode, pages[i] * kPageSize, buf).ok());
    EXPECT_EQ(buf[0], static_cast<std::byte>(pages[i]));
    // No reader waits behind another's fill.
    EXPECT_LT(threads[i].now(), 2 * SlowAops::kReadLat) << "reader " << i;
  }
  EXPECT_EQ(aops.reads, 4u);
}

TEST_F(PageCacheTest, ReaderOfInFlightPageWaitsForTheFill) {
  Inode inode(sb_, 21);
  SlowAops aops;
  inode.aops = &aops;
  inode.size = 8 * kPageSize;
  std::vector<std::byte> buf(kPageSize);
  // a fills page 3 first in host order, though its clock is later than
  // b's and c's: both find the page uptodate with its fill in their
  // future, and must wait for it.
  sim::SimThread a(1);
  a.wait_until(sim::usec(5));
  {
    sim::ScopedThread in(a);
    ASSERT_TRUE(generic_file_read(inode, 3 * kPageSize, buf).ok());
  }
  Page* page = inode.mapping.find(3);
  ASSERT_NE(page, nullptr);
  const sim::Nanos filled = page->filled_at;
  EXPECT_GE(filled, sim::usec(5) + SlowAops::kReadLat);

  sim::SimThread b(2);
  {
    sim::ScopedThread in(b);
    std::vector<std::byte> mine(kPageSize);
    ASSERT_TRUE(generic_file_read(inode, 3 * kPageSize, mine).ok());
    EXPECT_GE(b.now(), filled);
    EXPECT_EQ(mine[0], std::byte{3});
  }
  sim::SimThread c(3);
  {
    sim::ScopedThread in(c);
    const std::string patch = "partial";
    ASSERT_TRUE(generic_file_write(
                    inode, 3 * kPageSize + 100,
                    {reinterpret_cast<const std::byte*>(patch.data()),
                     patch.size()})
                    .ok());
    EXPECT_GE(c.now(), filled);  // a partial write reads the page first
  }
  EXPECT_EQ(aops.reads, 1u);
}

TEST_F(PageCacheTest, WriterDrainsTheInodeAtTheDirtyThresholdWithoutAFlusher) {
  // "-o noflusher": generic_file_write does balance_dirty_pages itself.
  // The 255th dirty page of an inode writes nothing back; the 256th
  // (kDirtyPagesThreshold) drains the whole inode in the writer's context.
  ASSERT_EQ(sb_.flusher(), nullptr);
  Inode inode(sb_, 30);
  RecordingAops aops(true);
  inode.aops = &aops;
  const std::vector<std::byte> data(kPageSize, std::byte{7});
  for (std::uint64_t pg = 0; pg < 255; ++pg) {
    ASSERT_TRUE(generic_file_write(inode, pg * kPageSize, data).ok());
  }
  EXPECT_EQ(inode.mapping.nr_dirty(), 255u);
  EXPECT_TRUE(aops.run_shapes.empty());

  ASSERT_TRUE(generic_file_write(inode, 255 * kPageSize, data).ok());
  EXPECT_EQ(kDirtyPagesThreshold, 256u);
  EXPECT_EQ(inode.mapping.nr_dirty(), 0u);
  ASSERT_EQ(aops.run_shapes.size(), 1u);
  EXPECT_EQ(aops.run_shapes[0],
            (std::pair<std::uint64_t, std::size_t>{0, 256}));
}

// ---- the buffered write's page walk (generic_file_write) ----

/// Reads pages [first, first + n) into the cache through `aops`, so they
/// are resident and uptodate with their fill complete.
void make_resident(Inode& inode, AddressSpaceOps& aops, std::uint64_t first,
                   std::size_t n) {
  for (std::uint64_t pg = first; pg < first + n; ++pg) {
    ASSERT_TRUE(inode.mapping.read_page(inode, aops, pg).ok());
  }
}

TEST_F(PageCacheTest, OverwriteOfResidentPagesIsOneWalk) {
  constexpr std::size_t kPages = 32;
  Inode inode(sb_, 40);
  RecordingAops aops(true);
  inode.aops = &aops;
  inode.size = kPages * kPageSize;
  make_resident(inode, aops, 0, kPages);
  const auto hits = inode.mapping.stats().hits;

  const std::vector<std::byte> data(kPages * kPageSize, std::byte{9});
  const sim::Nanos t0 = sim::now();
  ASSERT_TRUE(generic_file_write(inode, 0, data).ok());
  const auto& c = sim::costs();
  // One tree lock, one descent, then the next slot for each further page.
  EXPECT_EQ(sim::now() - t0, c.lock_uncontended + c.page_lookup +
                                 (kPages - 1) * c.page_lookup_next +
                                 kPages * c.page_copy);
  EXPECT_EQ(inode.mapping.stats().hits, hits + kPages);
  EXPECT_EQ(aops.reads.size(), kPages);  // only make_resident's fills
  EXPECT_EQ(inode.mapping.nr_dirty(), kPages);
}

TEST_F(PageCacheTest, TheWalkEndsAtAHole) {
  // Pages 0-3 and 5-7 resident, page 4 a hole: the walk covers 0-3; every
  // page from the hole on is looked up alone, and the hole is allocated.
  Inode inode(sb_, 41);
  RecordingAops aops(true);
  inode.aops = &aops;
  inode.size = 8 * kPageSize;
  make_resident(inode, aops, 0, 4);
  make_resident(inode, aops, 5, 3);
  const auto misses = inode.mapping.stats().misses;

  const std::vector<std::byte> data(8 * kPageSize, std::byte{9});
  const sim::Nanos t0 = sim::now();
  ASSERT_TRUE(generic_file_write(inode, 0, data).ok());
  const auto& c = sim::costs();
  const sim::Nanos walk = c.lock_uncontended + c.page_lookup +
                          3 * c.page_lookup_next;
  const sim::Nanos alone = c.lock_uncontended + c.page_lookup;
  EXPECT_EQ(sim::now() - t0,
            walk + (alone + c.page_alloc) + 3 * alone + 8 * c.page_copy);
  EXPECT_EQ(inode.mapping.stats().misses, misses + 1);
  EXPECT_EQ(inode.mapping.nr_pages(), 8u);
}

TEST_F(PageCacheTest, APartialLastPageInTheWalkWaitsForItsFill) {
  Inode inode(sb_, 42);
  SlowAops aops;
  inode.aops = &aops;
  inode.size = 2 * kPageSize;
  // Another thread filled page 1; at this thread's clock the fill is
  // still in flight.
  sim::SimThread filler(1);
  filler.wait_until(sim::usec(5));
  {
    sim::ScopedThread in(filler);
    ASSERT_TRUE(inode.mapping.read_page(inode, aops, 1).ok());
  }
  const sim::Nanos filled = inode.mapping.find(1)->filled_at;
  auto& page0 = inode.mapping.find_or_alloc(0);
  page0.uptodate = true;
  ASSERT_LT(sim::now(), filled);

  // Page 0 is fully overwritten, page 1 only in part: the walk takes both,
  // and the copy into page 1 waits for its fill instead of reading again.
  const std::vector<std::byte> data(kPageSize + 100, std::byte{9});
  ASSERT_TRUE(generic_file_write(inode, 0, data).ok());
  EXPECT_GE(sim::now(), filled);
  EXPECT_EQ(aops.reads, 1u);
  const Page* page1 = inode.mapping.find(1);
  EXPECT_EQ(page1->bytes()[99], std::byte{9});
  EXPECT_EQ(page1->bytes()[100], std::byte{1});
}

TEST_F(PageCacheTest, PartialFirstAndLastPagesOfAWalkLandByteExact) {
  constexpr std::size_t kPages = 4;
  Inode inode(sb_, 43);
  RecordingAops aops(true);
  inode.aops = &aops;
  inode.size = kPages * kPageSize;
  make_resident(inode, aops, 0, kPages);  // page p holds bytes p

  constexpr std::uint64_t kOff = 1000;
  constexpr std::uint64_t kEnd = 3 * kPageSize + 500;
  std::vector<std::byte> data(kEnd - kOff);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(0x80 | (i % 61));
  }
  ASSERT_TRUE(generic_file_write(inode, kOff, data).ok());
  EXPECT_EQ(aops.reads.size(), kPages);  // no page was read again
  EXPECT_EQ(inode.size, kPages * kPageSize);

  std::vector<std::byte> back(kPages * kPageSize);
  ASSERT_TRUE(generic_file_read(inode, 0, back).ok());
  for (std::uint64_t pos = 0; pos < back.size(); ++pos) {
    const std::byte want =
        pos >= kOff && pos < kEnd
            ? data[pos - kOff]
            : static_cast<std::byte>(pos / kPageSize);
    ASSERT_EQ(back[pos], want) << "byte " << pos;
  }
}

// ---- sequential-stream readahead (generic_file_read heuristics) ----

/// Batched aops that records the shape of every ->readpages call.
class BatchRecordingAops final : public AddressSpaceOps {
 public:
  Err readpage(Inode&, std::uint64_t pgoff,
               std::span<std::byte> out) override {
    single_reads += 1;
    std::memset(out.data(), static_cast<int>(pgoff & 0xFF), out.size());
    return Err::Ok;
  }
  Err readpages(Inode&, std::uint64_t first_pgoff,
                std::span<const std::span<std::byte>> pages) override {
    batch_shapes.emplace_back(first_pgoff, pages.size());
    for (std::size_t i = 0; i < pages.size(); ++i) {
      std::memset(pages[i].data(), static_cast<int>((first_pgoff + i) & 0xFF),
                  pages[i].size());
    }
    return Err::Ok;
  }
  [[nodiscard]] bool has_readpages() const override { return true; }
  Err writepage(Inode&, std::uint64_t, std::span<const std::byte>) override {
    return Err::Ok;
  }

  std::uint64_t single_reads = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> batch_shapes;
};

TEST_F(PageCacheTest, SequentialScanGrowsReadaheadWindow) {
  constexpr std::uint64_t kPages = 64;
  Inode inode(sb_, 10);
  BatchRecordingAops aops;
  inode.aops = &aops;
  inode.size = kPages * kPageSize;

  // A page-at-a-time sequential scan. Without the stream window this
  // faulted every page individually (64 ->readpage calls, zero batches);
  // with detection + doubling the whole file arrives in a handful of
  // growing ->readpages batches.
  std::vector<std::byte> buf(kPageSize);
  for (std::uint64_t pg = 0; pg < kPages; ++pg) {
    auto r = generic_file_read(inode, pg * kPageSize, buf);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), kPageSize);
    EXPECT_EQ(buf[0], static_cast<std::byte>(pg & 0xFF)) << pg;
  }

  const auto& stats = inode.mapping.stats();
  EXPECT_LE(aops.batch_shapes.size() + aops.single_reads, 6u)
      << "sequential scan should issue few, growing batches";
  EXPECT_EQ(stats.readahead_pages + aops.single_reads, kPages);
  EXPECT_EQ(stats.ra_window_max, kReadaheadMaxPages);  // doubled to the cap
  EXPECT_GE(stats.ra_sequential_hits, kPages - 1);
  // Windows double: every batch after the first is larger, until the cap
  // or EOF clips it.
  for (std::size_t i = 1; i + 1 < aops.batch_shapes.size(); ++i) {
    EXPECT_GE(aops.batch_shapes[i].second, aops.batch_shapes[i - 1].second);
  }
}

TEST_F(PageCacheTest, RandomReadsCollapseTheWindow) {
  constexpr std::uint64_t kPages = 64;
  Inode inode(sb_, 11);
  BatchRecordingAops aops;
  inode.aops = &aops;
  inode.size = kPages * kPageSize;

  // Stride-7 single-page reads: never sequential, so no speculation — no
  // batched readahead, one ->readpage per distinct page, and the window
  // never opens.
  std::vector<std::byte> buf(kPageSize);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t pg = (i * 7 + 3) % kPages;
    ASSERT_TRUE(generic_file_read(inode, pg * kPageSize, buf).ok());
  }
  EXPECT_EQ(aops.batch_shapes.size(), 0u);
  EXPECT_EQ(inode.mapping.stats().ra_window_max, 0u);
  EXPECT_EQ(inode.mapping.stats().ra_sequential_hits, 0u);
}

TEST_F(PageCacheTest, ReadaheadClampsAtEof) {
  // 6-page file: the stream window must never fault pages past EOF.
  Inode inode(sb_, 12);
  BatchRecordingAops aops;
  inode.aops = &aops;
  inode.size = 6 * kPageSize + 123;  // partial 7th page

  std::vector<std::byte> buf(kPageSize);
  for (std::uint64_t pg = 0; pg < 7; ++pg) {
    ASSERT_TRUE(generic_file_read(inode, pg * kPageSize, buf).ok());
  }
  std::uint64_t max_pg = 0;
  for (const auto& [first, count] : aops.batch_shapes) {
    max_pg = std::max(max_pg, first + count - 1);
  }
  EXPECT_LE(max_pg, 6u);
  EXPECT_LE(inode.mapping.nr_pages(), 7u);
}

}  // namespace
}  // namespace bsim::kern
