// Unit tests for the bio/request layer: adjacent-block merging, channel-
// parallel batch timing, out-of-order completion, crash-model interaction
// (kill_after counts write commands per bio), and batched buffer-cache
// writeback ordering.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "blockdev/device.h"
#include "kernel/buffer_cache.h"
#include "sim/rng.h"
#include "sim/thread.h"

namespace bsim::blk {
namespace {

using sim::Nanos;

class BioTest : public ::testing::Test {
 protected:
  void SetUp() override { sim::set_current(&thread_); }
  void TearDown() override { sim::set_current(nullptr); }

  static DeviceParams small_params() {
    DeviceParams p;
    p.nblocks = 1024;
    return p;
  }

  static std::array<std::byte, kBlockSize> pattern(std::uint8_t seed) {
    std::array<std::byte, kBlockSize> b{};
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::byte>(seed + i);
    }
    return b;
  }

  sim::SimThread thread_{0};
};

// ---- merging ----

TEST_F(BioTest, AdjacentReadBiosMergeIntoOneRequest) {
  auto p = small_params();
  BlockDevice dev(p);
  std::array<std::array<std::byte, kBlockSize>, 4> bufs{};
  std::vector<Bio> bios;
  for (std::uint64_t i = 0; i < 4; ++i) {
    bios.push_back(Bio::single_read(100 + i, bufs[i]));
  }
  const Nanos t0 = sim::now();
  dev.submit(bios);
  const Nanos elapsed = sim::now() - t0;

  EXPECT_EQ(dev.stats().read_requests, 1u);
  EXPECT_EQ(dev.stats().reads, 4u);
  EXPECT_EQ(dev.stats().merges, 3u);
  EXPECT_EQ(dev.stats().max_request_blocks, 4u);
  // First block random-priced, tail at the sequential rate.
  EXPECT_EQ(elapsed, p.read_lat_rand + 3 * p.read_lat_seq);
  EXPECT_EQ(dev.stats().seq_read_blocks, 3u);
}

TEST_F(BioTest, OutOfOrderBatchIsSortedBeforeMerging) {
  BlockDevice dev(small_params());
  std::array<std::array<std::byte, kBlockSize>, 3> bufs{};
  std::vector<Bio> bios;
  bios.push_back(Bio::single_read(202, bufs[0]));
  bios.push_back(Bio::single_read(200, bufs[1]));
  bios.push_back(Bio::single_read(201, bufs[2]));
  dev.submit(bios);
  EXPECT_EQ(dev.stats().read_requests, 1u);  // elevator sort found the run
  EXPECT_EQ(dev.stats().merges, 2u);
}

TEST_F(BioTest, NonAdjacentBiosSplitIntoSeparateRequests) {
  auto p = small_params();
  BlockDevice dev(p);
  std::array<std::array<std::byte, kBlockSize>, 3> bufs{};
  std::vector<Bio> bios;
  bios.push_back(Bio::single_read(10, bufs[0]));
  bios.push_back(Bio::single_read(12, bufs[1]));  // gap at 11: no merge
  bios.push_back(Bio::single_read(500, bufs[2]));
  const Nanos t0 = sim::now();
  dev.submit(bios);
  const Nanos elapsed = sim::now() - t0;

  EXPECT_EQ(dev.stats().read_requests, 3u);
  EXPECT_EQ(dev.stats().merges, 0u);
  // Three random requests overlap across idle channels: the batch costs
  // one random latency, not three.
  EXPECT_EQ(elapsed, p.read_lat_rand);
}

TEST_F(BioTest, BatchOverlapIsBoundedByChannels) {
  auto p = small_params();
  p.channels = 2;
  BlockDevice dev(p);
  std::array<std::array<std::byte, kBlockSize>, 4> bufs{};
  std::vector<Bio> bios;
  // Four scattered (non-mergeable) reads on two channels: two rounds.
  bios.push_back(Bio::single_read(10, bufs[0]));
  bios.push_back(Bio::single_read(20, bufs[1]));
  bios.push_back(Bio::single_read(30, bufs[2]));
  bios.push_back(Bio::single_read(40, bufs[3]));
  const Nanos t0 = sim::now();
  dev.submit(bios);
  EXPECT_EQ(sim::now() - t0, 2 * p.read_lat_rand);
}

TEST_F(BioTest, MergedRunContinuingScalarStreamPricesHeadSequential) {
  auto p = small_params();
  BlockDevice dev(p);
  std::array<std::byte, kBlockSize> b{};
  dev.read(99, b);  // random; stream now ends at 99
  std::array<std::array<std::byte, kBlockSize>, 2> bufs{};
  std::vector<Bio> bios;
  bios.push_back(Bio::single_read(100, bufs[0]));
  bios.push_back(Bio::single_read(101, bufs[1]));
  const Nanos t0 = sim::now();
  dev.submit(bios);
  // 100 continues the stream: the whole merged run streams sequentially.
  EXPECT_EQ(sim::now() - t0, 2 * p.read_lat_seq);
}

// ---- completion timing ----

TEST_F(BioTest, PerBioCompletionTimesAreOutOfOrder) {
  auto p = small_params();
  BlockDevice dev(p);
  std::array<std::byte, kBlockSize> big[4]{};
  std::array<std::byte, kBlockSize> small{};
  std::vector<Bio> bios;
  // One long merged run (submitted first) plus one short random read: the
  // short request completes before the long one despite submission order.
  Bio run(BioOp::Read);
  for (std::uint64_t i = 0; i < 4; ++i) run.add_read(100 + i, big[i]);
  bios.push_back(std::move(run));
  bios.push_back(Bio::single_read(600, small));
  const Nanos t0 = sim::now();
  dev.submit(bios);

  const Nanos run_done = bios[0].done_at;
  const Nanos small_done = bios[1].done_at;
  EXPECT_EQ(run_done - t0, p.read_lat_rand + 3 * p.read_lat_seq);
  EXPECT_EQ(small_done - t0, p.read_lat_rand);
  EXPECT_LT(small_done, run_done);
  // The submitting thread resumes at the batch barrier (the max).
  EXPECT_EQ(sim::now(), run_done);
}

TEST_F(BioTest, DataLandsInEachBioVec) {
  BlockDevice dev(small_params());
  auto w0 = pattern(3);
  auto w1 = pattern(7);
  dev.write(50, w0);
  dev.write(51, w1);
  std::array<std::byte, kBlockSize> r0{}, r1{};
  Bio bio(BioOp::Read);
  bio.add_read(50, r0);
  bio.add_read(51, r1);
  dev.queue().submit(bio);
  EXPECT_EQ(w0, r0);
  EXPECT_EQ(w1, r1);
}

// ---- async submission (QD>1) ----

TEST_F(BioTest, SubmitAsyncOverlapsBatchesInVirtualTime) {
  auto p = small_params();
  BlockDevice dev(p);
  const Nanos t0 = sim::now();

  // Batch A: one long merged run — occupies one channel for a while.
  std::array<std::byte, kBlockSize> big[8]{};
  std::vector<Bio> a;
  {
    Bio run(BioOp::Read);
    for (std::uint64_t i = 0; i < 8; ++i) run.add_read(100 + i, big[i]);
    a.push_back(std::move(run));
  }
  const Ticket ta = dev.submit_async(a);

  // The submitting thread did NOT advance: the batch is in flight.
  EXPECT_EQ(sim::now(), t0);
  EXPECT_EQ(dev.queue().inflight(), 1u);

  // Batch B, submitted while A is in flight, lands on a free channel and
  // completes BEFORE A — two batches overlap from one thread (QD=2).
  std::array<std::byte, kBlockSize> small{};
  std::vector<Bio> b;
  b.push_back(Bio::single_read(600, small));
  const Ticket tb = dev.submit_async(b);

  EXPECT_EQ(sim::now(), t0);  // still not advanced
  EXPECT_EQ(ta.done - t0, p.read_lat_rand + 7 * p.read_lat_seq);
  EXPECT_EQ(tb.done - t0, p.read_lat_rand);
  EXPECT_LT(tb.done, ta.done);  // B finished while A was still in flight
  EXPECT_EQ(a[0].done_at, ta.done);
  EXPECT_EQ(b[0].done_at, tb.done);
  EXPECT_EQ(dev.queue().stats().async_batches, 2u);
  EXPECT_EQ(dev.queue().stats().max_inflight, 2u);

  // Redeem out of submission order: each wait advances to ITS batch's
  // completion, so after redeeming both the clock is at max(ta, tb)
  // regardless of wait order.
  dev.wait(tb);
  EXPECT_EQ(sim::now(), tb.done);
  dev.wait(ta);
  EXPECT_EQ(sim::now(), ta.done);
  EXPECT_EQ(dev.queue().inflight(), 0u);
}

TEST_F(BioTest, WaitOrderDoesNotAffectFinalClock) {
  // The same two async batches on two identical devices, redeemed in
  // opposite orders, leave the thread at the same virtual time — wait
  // order does not affect determinism.
  auto p = small_params();
  p.channels = 2;
  Nanos final_clock[2] = {0, 0};
  for (int order = 0; order < 2; ++order) {
    sim::SimThread t(order + 1);
    sim::ScopedThread in(t);
    BlockDevice dev(p);
    std::array<std::byte, kBlockSize> b0[4]{}, b1{};
    std::vector<Bio> a;
    {
      Bio run(BioOp::Read);
      for (std::uint64_t i = 0; i < 4; ++i) run.add_read(10 + i, b0[i]);
      a.push_back(std::move(run));
    }
    std::vector<Bio> b;
    b.push_back(Bio::single_read(700, b1));
    const Ticket ta = dev.submit_async(a);
    const Ticket tb = dev.submit_async(b);
    if (order == 0) {
      dev.wait(ta);
      dev.wait(tb);
    } else {
      dev.wait(tb);
      dev.wait(ta);
    }
    final_clock[order] = sim::now();
  }
  EXPECT_EQ(final_clock[0], final_clock[1]);
}

TEST_F(BioTest, AsyncBatchesQueueBehindEachOtherOnBusyChannels) {
  auto p = small_params();
  p.channels = 1;  // force the second batch to queue behind the first
  BlockDevice dev(p);
  std::array<std::byte, kBlockSize> r0{}, r1{};
  std::vector<Bio> a, b;
  a.push_back(Bio::single_read(10, r0));
  b.push_back(Bio::single_read(500, r1));
  const Nanos t0 = sim::now();
  const Ticket ta = dev.submit_async(a);
  const Ticket tb = dev.submit_async(b);
  // One channel: B starts when A finishes.
  EXPECT_EQ(ta.done - t0, p.read_lat_rand);
  EXPECT_EQ(tb.done - t0, 2 * p.read_lat_rand);
  dev.wait(ta);
  dev.wait(tb);
  EXPECT_EQ(sim::now(), tb.done);
}

// ---- same-block bios within one batch ----

TEST_F(BioTest, DuplicateBlockWritesCoalesceAndLastSubmittedWins) {
  BlockDevice dev(small_params());
  const auto first = pattern(1);
  const auto second = pattern(2);
  const auto tail = pattern(3);
  std::vector<Bio> bios;
  bios.push_back(Bio::single_write(100, first));
  bios.push_back(Bio::single_write(100, second));  // same block, later
  bios.push_back(Bio::single_write(101, tail));
  dev.submit(bios);

  // Identical-range bios are absorbed into the request instead of
  // splitting the 100-101 merge: one write command for the batch.
  EXPECT_EQ(dev.stats().write_requests, 1u);
  EXPECT_EQ(dev.stats().merges, 2u);
  EXPECT_EQ(dev.stats().writes, 3u);  // three bios transferred

  // Last-submitted data wins on media.
  std::array<std::byte, kBlockSize> r{};
  dev.read_untimed(100, r);
  EXPECT_EQ(r, second);
  dev.read_untimed(101, r);
  EXPECT_EQ(r, tail);
}

TEST_F(BioTest, DuplicateBlockReadsBothReceiveData) {
  BlockDevice dev(small_params());
  const auto w = pattern(9);
  dev.write_untimed(42, w);
  std::array<std::byte, kBlockSize> r0{}, r1{};
  std::vector<Bio> bios;
  bios.push_back(Bio::single_read(42, r0));
  bios.push_back(Bio::single_read(42, r1));
  dev.submit(bios);
  EXPECT_EQ(dev.stats().read_requests, 1u);  // coalesced
  EXPECT_EQ(r0, w);
  EXPECT_EQ(r1, w);
}

// ---- crash model ----

TEST_F(BioTest, KillAfterCountsWriteCommandsPerBio) {
  BlockDevice dev(small_params());
  dev.enable_crash_tracking();
  dev.kill_after(1);  // one more write command survives

  auto w = pattern(9);
  std::vector<Bio> bios;
  // Scattered single-bio writes; dispatch order is sorted by block.
  bios.push_back(Bio::single_write(30, w));
  bios.push_back(Bio::single_write(10, w));
  bios.push_back(Bio::single_write(20, w));
  dev.submit(bios);
  EXPECT_TRUE(dev.dead());

  // Sorted dispatch: block 10 was the surviving command; 20 killed the
  // device mid-batch; 30 never reached media.
  std::array<std::byte, kBlockSize> r{};
  dev.read_untimed(10, r);
  EXPECT_EQ(r, w);
  dev.read_untimed(20, r);
  EXPECT_EQ(r[0], std::byte{0});
  dev.read_untimed(30, r);
  EXPECT_EQ(r[0], std::byte{0});
}

TEST_F(BioTest, MultiBlockBioAppliesAtomicallyUnderKill) {
  BlockDevice dev(small_params());
  dev.enable_crash_tracking();
  dev.kill_after(0);  // the very next write command dies

  auto w = pattern(5);
  Bio bio(BioOp::Write);
  bio.add_write(60, w);
  bio.add_write(61, w);
  bio.add_write(62, w);
  dev.queue().submit(bio);
  EXPECT_TRUE(dev.dead());

  // One bio = one command: none of its blocks reached media.
  for (std::uint64_t b = 60; b <= 62; ++b) {
    std::array<std::byte, kBlockSize> r{};
    dev.read_untimed(b, r);
    EXPECT_EQ(r[0], std::byte{0}) << "block " << b;
  }
}

TEST_F(BioTest, ScalarWritesStillCountIndividually) {
  // The scalar wrapper is one bio per write: kill_after semantics are
  // unchanged from the pre-bio device.
  BlockDevice dev(small_params());
  dev.enable_crash_tracking();
  dev.kill_after(2);
  auto w = pattern(1);
  dev.write(1, w);
  dev.write(2, w);
  EXPECT_FALSE(dev.dead());
  dev.write(3, w);
  EXPECT_TRUE(dev.dead());
}

TEST_F(BioTest, BatchedSyncKeepsUnexecutedBuffersDirty) {
  // Regression: batched writeback used to clear bh->dirty for the whole
  // span even when kill_after aborted the batched submission early, so
  // buffers whose write command never executed were silently "clean" and
  // never retried. Dirty state must track exactly what reached media.
  BlockDevice dev(small_params());
  kern::BufferCache cache(dev, 0);
  dev.enable_crash_tracking();

  std::vector<kern::BufferHead*> held;
  for (std::uint64_t b : {10ull, 20ull, 30ull}) {  // scattered: 3 commands
    auto bh = cache.getblk(b);
    ASSERT_TRUE(bh.ok());
    cache.mark_dirty(bh.value());
    held.push_back(bh.value());
  }
  EXPECT_EQ(cache.nr_dirty(), 3u);

  dev.kill_after(1);  // one more write command reaches media
  cache.wait(cache.sync_dirty_buffers_async(held));
  EXPECT_TRUE(dev.dead());

  // Sorted dispatch: block 10's command executed; 20 hit the kill point
  // and 30 was issued to a dead device. Only 10 was written back.
  EXPECT_FALSE(held[0]->dirty);
  EXPECT_TRUE(held[1]->dirty);
  EXPECT_TRUE(held[2]->dirty);
  EXPECT_EQ(cache.nr_dirty(), 2u);
  EXPECT_EQ(cache.stats().writebacks, 1u);
  for (auto* bh : held) cache.brelse(bh);
}

TEST_F(BioTest, ScalarSyncOnDeadDeviceKeepsBufferDirty) {
  BlockDevice dev(small_params());
  kern::BufferCache cache(dev, 0);
  dev.enable_crash_tracking();
  dev.kill_after(0);  // next write command dies

  auto bh = cache.getblk(77);
  ASSERT_TRUE(bh.ok());
  cache.mark_dirty(bh.value());
  cache.wait(cache.sync_dirty_buffers_async({&bh.value(), 1}));
  EXPECT_TRUE(dev.dead());
  EXPECT_TRUE(bh.value()->dirty) << "write never executed: must stay dirty";
  EXPECT_EQ(cache.stats().writebacks, 0u);
  cache.brelse(bh.value());
}

TEST_F(BioTest, AsyncWritebackKeepsSeveralBatchesInFlight) {
  auto p = small_params();
  BlockDevice dev(p);
  kern::BufferCache cache(dev, 0);

  // 64 scattered dirty buffers (stride 2 prevents merging into one run),
  // written back as four async batches before any is redeemed.
  std::vector<kern::BufferHead*> held;
  for (std::uint64_t i = 0; i < 64; ++i) {
    auto bh = cache.getblk(i * 2);
    ASSERT_TRUE(bh.ok());
    cache.mark_dirty(bh.value());
    held.push_back(bh.value());
  }
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < held.size(); i += 16) {
    tickets.push_back(cache.sync_dirty_buffers_async(
        std::span<kern::BufferHead* const>(held.data() + i, 16)));
  }
  // Dirty state retires at submission, when media effects land.
  EXPECT_EQ(cache.nr_dirty(), 0u);
  EXPECT_EQ(cache.stats().writebacks, 64u);
  EXPECT_EQ(dev.queue().inflight(), 4u);
  for (const Ticket& t : tickets) cache.wait(t);
  EXPECT_EQ(dev.queue().stats().async_batches, 4u);  // 64/16
  EXPECT_EQ(dev.queue().stats().max_inflight, 4u);   // QD>1 achieved
  EXPECT_EQ(dev.queue().inflight(), 0u);             // all redeemed
  for (auto* bh : held) {
    EXPECT_FALSE(bh->dirty);
    cache.brelse(bh);
  }
}

// ---- batched buffer-cache writeback ----

TEST_F(BioTest, BatchedWritebackMergesAndCleansBuffers) {
  auto p = small_params();
  BlockDevice dev(p);
  kern::BufferCache cache(dev, 0);

  // Dirty an adjacent run and a scattered block.
  std::vector<kern::BufferHead*> held;
  for (std::uint64_t b : {200ull, 201ull, 202ull, 700ull}) {
    auto bh = cache.getblk(b);
    ASSERT_TRUE(bh.ok());
    auto data = pattern(static_cast<std::uint8_t>(b));
    std::copy(data.begin(), data.end(), bh.value()->bytes().begin());
    cache.mark_dirty(bh.value());
    held.push_back(bh.value());
  }

  const auto before = dev.stats();
  const Ticket t = cache.sync_dirty_buffers_async(held);
  cache.wait(t);
  ASSERT_FALSE(t.failed);
  const auto& after = dev.stats();

  EXPECT_EQ(after.writes - before.writes, 4u);
  // 200-202 merged into one request; 700 its own: two write commands.
  EXPECT_EQ(after.write_requests - before.write_requests, 2u);
  EXPECT_EQ(cache.stats().writebacks, 4u);
  for (kern::BufferHead* bh : held) {
    EXPECT_FALSE(bh->dirty);
    cache.brelse(bh);
  }

  // Durable after flush; contents correct on re-read.
  dev.flush();
  for (std::uint64_t b : {200ull, 201ull, 202ull, 700ull}) {
    std::array<std::byte, kBlockSize> r{};
    dev.read_untimed(b, r);
    EXPECT_EQ(r, pattern(static_cast<std::uint8_t>(b))) << "block " << b;
  }
}

TEST_F(BioTest, BreadBatchFetchesMissesInOneSubmission) {
  auto p = small_params();
  BlockDevice dev(p);
  for (std::uint64_t b = 300; b < 304; ++b) {
    dev.write_untimed(b, pattern(static_cast<std::uint8_t>(b)));
  }
  kern::BufferCache cache(dev, 0);

  // Warm one block; the other three arrive via a single merged... two
  // requests (301 is cached, splitting the run at the device).
  auto warm = cache.bread(301);
  ASSERT_TRUE(warm.ok());
  cache.brelse(warm.value());
  const auto before = dev.stats();

  const std::uint64_t want[] = {300, 301, 302, 303};
  auto batch = cache.bread_batch(want);
  ASSERT_TRUE(batch.ok());
  const auto& after = dev.stats();
  EXPECT_EQ(after.reads - before.reads, 3u);          // 301 was a hit
  EXPECT_EQ(after.read_requests - before.read_requests, 2u);  // 300 | 302-303
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(batch.value()[i]->blockno, want[i]);
    EXPECT_EQ(batch.value()[i]->bytes()[0],
              pattern(static_cast<std::uint8_t>(want[i]))[0]);
    cache.brelse(batch.value()[i]);
  }
}

}  // namespace
}  // namespace bsim::blk
