// Unit tests for multi-device striped volumes (blockdev/striped.h):
// chunk routing, stripe-boundary bio splitting, per-member merging,
// ticket wait-order determinism across members, per-child and global
// (logical-bio) crash injection, and stats aggregation.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "blockdev/striped.h"
#include "sim/rng.h"
#include "sim/thread.h"

namespace bsim::blk {
namespace {

using sim::Nanos;

class StripedDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override { sim::set_current(&thread_); }
  void TearDown() override { sim::set_current(nullptr); }

  /// 4-way RAID0, 4-block chunks, 64 blocks per member (256 logical).
  static StripedDevice make4() {
    StripeParams sp;
    sp.ndevices = 4;
    sp.chunk_blocks = 4;
    DeviceParams child;
    child.nblocks = 64;
    return StripedDevice(sp, child);
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

// ---- geometry ----

TEST_F(StripedDeviceTest, Raid0ChunkRouting) {
  StripedDevice sd = make4();
  EXPECT_EQ(sd.members(), 4u);
  EXPECT_EQ(sd.nblocks(), 256u);

  // chunk c (4 blocks) lives on member c % 4 at member-chunk c / 4.
  EXPECT_EQ(sd.child_of(0), 0u);
  EXPECT_EQ(sd.child_of(3), 0u);
  EXPECT_EQ(sd.child_of(4), 1u);   // chunk 1
  EXPECT_EQ(sd.child_of(15), 3u);  // chunk 3
  EXPECT_EQ(sd.child_of(16), 0u);  // chunk 4 wraps to member 0
  EXPECT_EQ(sd.child_block_of(16), 4u);  // member 0's second chunk
  EXPECT_EQ(sd.child_block_of(5), 1u);   // chunk 1, offset 1 -> member 1
  EXPECT_EQ(sd.child_block_of(255), 63u);  // last block, last member

  // The mapping is a bijection: every member block is hit exactly once.
  std::vector<int> hits(4 * 64, 0);
  for (std::uint64_t b = 0; b < sd.nblocks(); ++b) {
    hits[sd.child_of(b) * 64 + sd.child_block_of(b)] += 1;
  }
  for (const int h : hits) EXPECT_EQ(h, 1);
}

// ---- splitting + data integrity ----

TEST_F(StripedDeviceTest, BioSplitsAtStripeBoundaries) {
  StripedDevice sd = make4();
  // One 12-block write starting at block 2: covers chunk 0 (blocks 2-3),
  // chunk 1 (4-7), chunk 2 (8-11), chunk 3 (12-13) -> 4 fragments, one
  // per member.
  std::vector<std::array<std::byte, kBlockSize>> payloads;
  for (std::uint8_t i = 0; i < 12; ++i) payloads.push_back(pattern(i));
  Bio bio(BioOp::Write);
  for (std::uint64_t i = 0; i < 12; ++i) bio.add_write(2 + i, payloads[i]);
  sd.submit(bio);

  EXPECT_TRUE(bio.applied);
  EXPECT_GT(bio.done_at, 0);
  EXPECT_EQ(sd.volume_stats().fragments, 4u);
  EXPECT_EQ(sd.volume_stats().boundary_splits, 1u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(sd.member(c).stats().write_requests, 1u) << c;
  }
  // Every block readable back through the logical address.
  for (std::uint64_t i = 0; i < 12; ++i) {
    std::array<std::byte, kBlockSize> got{};
    sd.read_untimed(2 + i, got);
    EXPECT_EQ(got, payloads[i]) << "block " << 2 + i;
  }
  // ... and physically resident on the member the mapping names.
  std::array<std::byte, kBlockSize> raw{};
  sd.member(sd.child_of(5)).read_untimed(sd.child_block_of(5), raw);
  EXPECT_EQ(raw, payloads[3]);
}

TEST_F(StripedDeviceTest, SequentialRunMergesPerMember) {
  StripedDevice sd = make4();
  // 32 single-block sequential writes = 8 chunks = 2 chunks per member;
  // member chunks are consecutive, so each member merges its 8 blocks
  // into ONE request.
  auto data = pattern(9);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 32; ++b) {
    bios.push_back(Bio::single_write(b, data));
  }
  sd.submit(bios);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(sd.member(c).stats().write_requests, 1u) << c;
    EXPECT_EQ(sd.member(c).stats().writes, 8u) << c;
  }
  EXPECT_EQ(sd.stats().writes, 32u);  // aggregate
}

TEST_F(StripedDeviceTest, StripingOverlapsMembersInVirtualTime) {
  // A batch touching all 4 members completes ~4x faster than the same
  // bytes on one member: each member transfers its fragments concurrently.
  auto one_member_time = [] {
    sim::SimThread t(1);
    sim::ScopedThread in(t);
    StripeParams sp;
    sp.ndevices = 1;
    sp.chunk_blocks = 4;
    DeviceParams child;
    child.nblocks = 256;
    StripedDevice sd(sp, child);
    auto data = std::array<std::byte, kBlockSize>{};
    std::vector<Bio> bios;
    for (std::uint64_t b = 0; b < 64; ++b) {
      bios.push_back(Bio::single_write(b, data));
    }
    const Nanos t0 = sim::now();
    sd.submit(bios);
    return sim::now() - t0;
  };
  auto four_member_time = [] {
    sim::SimThread t(2);
    sim::ScopedThread in(t);
    StripedDevice sd = make4();
    auto data = std::array<std::byte, kBlockSize>{};
    std::vector<Bio> bios;
    for (std::uint64_t b = 0; b < 64; ++b) {
      bios.push_back(Bio::single_write(b, data));
    }
    const Nanos t0 = sim::now();
    sd.submit(bios);
    return sim::now() - t0;
  };
  const Nanos t1 = one_member_time();
  const Nanos t4 = four_member_time();
  EXPECT_EQ(t4 * 4, t1);  // exact: 64 blocks -> 16 per member, no overhead
}

// ---- async tickets ----

TEST_F(StripedDeviceTest, TicketWaitOrderIsIrrelevantAcrossMembers) {
  auto run = [](bool reverse) {
    sim::SimThread t(reverse ? 3 : 4);
    sim::ScopedThread in(t);
    StripedDevice sd = make4();
    auto data = std::array<std::byte, kBlockSize>{};

    std::vector<Bio> batch_a, batch_b;
    for (std::uint64_t b = 0; b < 16; ++b) {
      batch_a.push_back(Bio::single_write(b, data));          // all members
      batch_b.push_back(Bio::single_write(128 + b, data));    // all members
    }
    Ticket ta = sd.submit_async(batch_a);
    Ticket tb = sd.submit_async(batch_b);
    EXPECT_EQ(sd.inflight(), 2u);
    if (reverse) {
      sd.wait(tb);
      sd.wait(ta);
    } else {
      sd.wait(ta);
      sd.wait(tb);
    }
    EXPECT_EQ(sd.inflight(), 0u);
    // Member queues drained too (child tickets redeemed either way).
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(sd.member(c).queue().inflight(), 0u);
    }
    return sim::now();
  };
  const Nanos fwd = run(false);
  const Nanos rev = run(true);
  EXPECT_EQ(fwd, rev);  // redemption order never changes the final clock
  EXPECT_GT(fwd, 0);
}

TEST_F(StripedDeviceTest, AsyncHoldsQueueDepthAcrossMembers) {
  // Single-channel members so successive batches visibly queue behind
  // each other on every member.
  StripeParams sp;
  sp.ndevices = 4;
  sp.chunk_blocks = 4;
  DeviceParams child;
  child.nblocks = 64;
  child.channels = 1;
  StripedDevice sd(sp, child);
  auto data = std::array<std::byte, kBlockSize>{};
  std::vector<std::vector<Bio>> batches;
  std::vector<Ticket> tickets;
  for (int k = 0; k < 3; ++k) {
    std::vector<Bio> bios;
    for (std::uint64_t b = 0; b < 16; ++b) {
      bios.push_back(Bio::single_write(64ull * k + b, data));
    }
    batches.push_back(std::move(bios));
    tickets.push_back(sd.submit_async(batches.back()));
  }
  EXPECT_EQ(sd.aggregate_stats().async_batches, 3u);
  EXPECT_EQ(sd.aggregate_stats().max_inflight, 3u);
  // Later batches queue behind earlier ones on each member's channels.
  EXPECT_GT(tickets[2].done, tickets[0].done);
  for (const Ticket& t : tickets) sd.wait(t);
  EXPECT_EQ(sd.inflight(), 0u);
}

// ---- crash injection ----

TEST_F(StripedDeviceTest, PerChildKillCutsPowerToOneShardMidBatch) {
  StripedDevice sd = make4();
  sd.enable_crash_tracking();
  // Member 1 dies after 1 more of ITS write commands; the other members
  // keep persisting.
  sd.kill_after_child(1, 1);

  auto data = pattern(3);
  // Two separate writes to member 1 (logical chunks 1 and 5 -> member 1),
  // plus one to member 0 and one to member 2.
  std::vector<Bio> bios;
  bios.push_back(Bio::single_write(4, data));    // member 1, chunk 1
  bios.push_back(Bio::single_write(20, data));   // member 1, chunk 5
  bios.push_back(Bio::single_write(0, data));    // member 0
  bios.push_back(Bio::single_write(8, data));    // member 2
  sd.submit(bios);

  // Member 1's queue dispatches its two fragments in block order: child
  // block 0 (logical 4) survives, child block 4 (logical 20) dies.
  EXPECT_TRUE(bios[0].applied);
  EXPECT_FALSE(bios[1].applied);
  EXPECT_TRUE(bios[2].applied);
  EXPECT_TRUE(bios[3].applied);
  EXPECT_TRUE(sd.member(1).dead());
  EXPECT_FALSE(sd.member(0).dead());
  EXPECT_TRUE(sd.dead());  // a volume with a dead member is dead

  std::array<std::byte, kBlockSize> got{};
  sd.read_untimed(4, got);
  EXPECT_EQ(got, data);
  sd.read_untimed(20, got);
  EXPECT_NE(got, data);  // never reached media
}

TEST_F(StripedDeviceTest, GlobalKillCountsLogicalBiosLikeOneDevice) {
  // kill_after(n) on the volume must select the same n logical bios as
  // the single-device queue would for an identical submission sequence —
  // the property the striped crash sweep's differential check relies on.
  auto survivors_on = [](auto& dev) {
    sim::SimThread t(5);
    sim::ScopedThread in(t);
    dev.enable_crash_tracking();
    dev.kill_after(3);
    std::array<std::byte, kBlockSize> data{};
    data.fill(std::byte{0xAB});
    // Unsorted submission order; counting happens in first-block order.
    std::vector<Bio> bios;
    for (const std::uint64_t b : {40ULL, 8ULL, 33ULL, 2ULL, 17ULL}) {
      bios.push_back(Bio::single_write(b, data));
    }
    dev.submit(bios);
    std::vector<std::uint64_t> applied;
    for (const Bio& b : bios) {
      if (b.applied) applied.push_back(b.first_block());
    }
    EXPECT_TRUE(dev.dead());
    return applied;
  };

  DeviceParams p;
  p.nblocks = 256;
  BlockDevice single(p);
  StripedDevice striped = make4();
  const auto a = survivors_on(single);
  const auto b = survivors_on(striped);
  EXPECT_EQ(a, b);
  // Sorted order 2,8,17,33,40 with 3 survivors -> {2,8,17} applied.
  EXPECT_EQ(a, (std::vector<std::uint64_t>{8, 2, 17}));
}

TEST_F(StripedDeviceTest, CrashRevertsNonDurableWritesOnEveryMember) {
  StripedDevice sd = make4();
  sd.enable_crash_tracking();
  auto data = pattern(1);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 32; ++b) {
    bios.push_back(Bio::single_write(b, data));
  }
  sd.submit(bios);
  EXPECT_EQ(sd.dirty_blocks(), 32u);

  sim::Rng rng(11);
  sd.crash(/*survive_p=*/0.0, rng);
  EXPECT_EQ(sd.dirty_blocks(), 0u);
  std::array<std::byte, kBlockSize> got{};
  for (std::uint64_t b = 0; b < 32; ++b) {
    sd.read_untimed(b, got);
    EXPECT_EQ(got[0], std::byte{0}) << b;  // pre-image restored
  }

  // Durable (flushed) writes survive a later crash.
  std::vector<Bio> again;
  for (std::uint64_t b = 0; b < 8; ++b) {
    again.push_back(Bio::single_write(b, data));
  }
  sd.submit(again);
  sd.flush();
  sd.crash(0.0, rng);
  sd.read_untimed(3, got);
  EXPECT_EQ(got, data);
}

// ---- stats aggregation ----

TEST_F(StripedDeviceTest, StatsAggregateAcrossMembers) {
  StripedDevice sd = make4();
  auto data = pattern(2);
  std::vector<Bio> writes;
  for (std::uint64_t b = 0; b < 16; ++b) {
    writes.push_back(Bio::single_write(b, data));
  }
  sd.submit(writes);
  std::array<std::byte, kBlockSize> buf{};
  std::vector<Bio> reads;
  for (std::uint64_t b = 0; b < 16; ++b) {
    reads.push_back(Bio::single_read(b, buf));
  }
  sd.submit(reads);
  sd.flush();

  const DeviceStats& agg = sd.stats();
  std::uint64_t writes_sum = 0, reads_sum = 0, flushes_sum = 0;
  sim::Nanos busy_sum = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    writes_sum += sd.member(c).stats().writes;
    reads_sum += sd.member(c).stats().reads;
    flushes_sum += sd.member(c).stats().flushes;
    busy_sum += sd.member(c).stats().busy;
  }
  EXPECT_EQ(agg.writes, 16u);
  EXPECT_EQ(agg.writes, writes_sum);
  EXPECT_EQ(agg.reads, 16u);
  EXPECT_EQ(agg.reads, reads_sum);
  EXPECT_EQ(agg.flushes, 4u);  // one FLUSH per member
  EXPECT_EQ(agg.flushes, flushes_sum);
  EXPECT_EQ(agg.busy, busy_sum);
  EXPECT_EQ(sd.aggregate_stats().batches, 2u);
  EXPECT_EQ(sd.aggregate_stats().bios, 32u);
}

// ---- scalar wrappers ----

TEST_F(StripedDeviceTest, ScalarReadWriteRouteThroughTheVolume) {
  StripedDevice sd = make4();
  auto data = pattern(7);
  sd.write(100, data);  // chunk 25 -> member 1
  std::array<std::byte, kBlockSize> got{};
  sd.read(100, got);
  EXPECT_EQ(got, data);
  EXPECT_EQ(sd.member(sd.child_of(100)).stats().writes, 1u);
  EXPECT_GT(sim::now(), 0);
}

}  // namespace
}  // namespace bsim::blk
