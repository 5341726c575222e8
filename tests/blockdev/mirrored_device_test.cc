// Unit tests for RAID1 mirrored volumes (blockdev/mirrored.h): write
// replication, read balancing (round-robin, sequential affinity), the
// member-failure fault model (fail-stop + injected read errors), degraded
// service, the online rebuild (resync cursor, write interception,
// backpressure), RAID10 stacking, and crash-model parity with one device.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "blockdev/mirrored.h"
#include "blockdev/striped.h"
#include "sim/rng.h"
#include "sim/thread.h"

namespace bsim::blk {
namespace {

using sim::Nanos;

class MirroredDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override { sim::set_current(&thread_); }
  void TearDown() override { sim::set_current(nullptr); }

  /// 2-way mirror, 64 blocks.
  static MirroredDevice make2() {
    MirrorParams mp;
    mp.nmirrors = 2;
    DeviceParams member;
    member.nblocks = 64;
    return MirroredDevice(mp, member);
  }

  static std::array<std::byte, kBlockSize> pattern(std::uint8_t seed) {
    std::array<std::byte, kBlockSize> b{};
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::byte>(seed + i);
    }
    return b;
  }

  static bool members_identical(MirroredDevice& md, std::size_t a,
                                std::size_t b) {
    std::array<std::byte, kBlockSize> ba{}, bb{};
    for (std::uint64_t blk = 0; blk < md.nblocks(); ++blk) {
      md.member(a).read_untimed(blk, ba);
      md.member(b).read_untimed(blk, bb);
      if (ba != bb) return false;
    }
    return true;
  }

  sim::SimThread thread_{0};
};

// ---- geometry ----

TEST_F(MirroredDeviceTest, VolumeGeometryIsOneMember) {
  MirroredDevice md = make2();
  EXPECT_EQ(md.members(), 2u);
  EXPECT_EQ(md.nblocks(), 64u);  // NOT 128: replicas, not capacity
  EXPECT_FALSE(md.degraded());
  EXPECT_EQ(md.healthy_members(), 2u);
}

// ---- write replication ----

TEST_F(MirroredDeviceTest, WritesReplicateToEveryMember) {
  MirroredDevice md = make2();
  std::vector<std::array<std::byte, kBlockSize>> payloads;
  for (std::uint8_t i = 0; i < 16; ++i) payloads.push_back(pattern(i));
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 16; ++b) {
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  md.submit(bios);
  for (const Bio& b : bios) EXPECT_TRUE(b.applied);

  EXPECT_EQ(md.member(0).stats().writes, 16u);
  EXPECT_EQ(md.member(1).stats().writes, 16u);
  EXPECT_EQ(md.volume_stats().replicated_writes, 32u);
  EXPECT_TRUE(members_identical(md, 0, 1));
  std::array<std::byte, kBlockSize> got{};
  md.read_untimed(5, got);
  EXPECT_EQ(got, pattern(5));
}

TEST_F(MirroredDeviceTest, ReplicationCostsOneDeviceNotTwo) {
  // Replica batches go out via submit_async per member, so both members
  // transfer concurrently: the mirrored write takes single-device time.
  auto timed_write = [](std::size_t nmirrors) {
    sim::SimThread t(static_cast<int>(10 + nmirrors));
    sim::ScopedThread in(t);
    MirrorParams mp;
    mp.nmirrors = nmirrors;
    DeviceParams member;
    member.nblocks = 64;
    MirroredDevice md(mp, member);
    auto data = std::array<std::byte, kBlockSize>{};
    std::vector<Bio> bios;
    for (std::uint64_t b = 0; b < 32; ++b) {
      bios.push_back(Bio::single_write(b, data));
    }
    const Nanos t0 = sim::now();
    md.submit(bios);
    return sim::now() - t0;
  };
  EXPECT_EQ(timed_write(1), timed_write(2));
  EXPECT_EQ(timed_write(1), timed_write(4));
}

// ---- read balancing ----

TEST_F(MirroredDeviceTest, RoundRobinAlternatesHealthyMembers) {
  MirroredDevice md = make2();
  auto data = pattern(1);
  for (std::uint64_t b = 0; b < 32; ++b) md.write(b, data);

  // Stride-3 reads (never stream-contiguous) alternate members strictly.
  std::array<std::byte, kBlockSize> buf{};
  for (int r = 0; r < 8; ++r) md.read(static_cast<std::uint64_t>(r * 3), buf);
  EXPECT_EQ(md.member(0).stats().reads, 4u);
  EXPECT_EQ(md.member(1).stats().reads, 4u);
  EXPECT_EQ(md.volume_stats().balanced_reads, 8u);
  EXPECT_EQ(md.volume_stats().redirected_reads, 0u);
  EXPECT_EQ(md.volume_stats().sequential_affinity_reads, 0u);
}

TEST_F(MirroredDeviceTest, SequentialStreamSticksToOneMember) {
  // A sequential read stream stays on the member already serving it (the
  // md read_balance closest-head rule), keeping sequential pricing; a
  // second concurrent stream lands on the other member.
  MirroredDevice md = make2();
  auto data = pattern(1);
  for (std::uint64_t b = 0; b < 64; ++b) md.write(b, data);
  md.flush();

  std::array<std::byte, kBlockSize> buf{};
  md.read(0, buf);   // stream A opens on member 0 (rr)
  md.read(32, buf);  // stream B opens on member 1 (rr)
  for (std::uint64_t i = 1; i < 16; ++i) {
    md.read(i, buf);       // stream A continues on member 0
    md.read(32 + i, buf);  // stream B continues on member 1
  }
  EXPECT_EQ(md.volume_stats().sequential_affinity_reads, 30u);
  EXPECT_EQ(md.member(0).stats().reads, 16u);
  EXPECT_EQ(md.member(1).stats().reads, 16u);
  // The streams were priced sequentially (first read of each is random).
  EXPECT_GE(md.member(0).stats().seq_read_blocks, 15u);
  EXPECT_GE(md.member(1).stats().seq_read_blocks, 15u);
}

TEST_F(MirroredDeviceTest, MirroredRandomReadsScaleWithMembers) {
  // The acceptance gate's microcosm: a random-read burst at QD>1 on a
  // 2-way mirror completes in about half the single-device time.
  auto timed_reads = [](std::size_t nmirrors) {
    sim::SimThread t(static_cast<int>(20 + nmirrors));
    sim::ScopedThread in(t);
    MirrorParams mp;
    mp.nmirrors = nmirrors;
    DeviceParams member;
    // A sparse address space keeps adjacent-block merge luck from
    // dominating the comparison (reads of unwritten blocks return zeros).
    member.nblocks = 8192;
    MirroredDevice md(mp, member);
    sim::Rng rng(3);

    std::vector<std::array<std::byte, kBlockSize>> bufs(64);
    const Nanos t0 = sim::now();
    std::vector<Ticket> inflight;
    std::vector<std::vector<Bio>> live;
    for (int batch = 0; batch < 8; ++batch) {
      std::vector<Bio> bios;
      for (std::size_t i = 0; i < 64; ++i) {
        bios.push_back(Bio::single_read(rng.below(8192), bufs[i]));
      }
      live.push_back(std::move(bios));
      inflight.push_back(md.submit_async(live.back()));
    }
    for (const Ticket& t2 : inflight) md.wait(t2);
    return sim::now() - t0;
  };
  const Nanos one = timed_reads(1);
  const Nanos two = timed_reads(2);
  EXPECT_LT(two * 18, one * 10);  // >= 1.8x
}

// ---- member failure: fail-stop ----

TEST_F(MirroredDeviceTest, FailMemberEntersDegradedModeAndKeepsServing) {
  MirroredDevice md = make2();
  auto before = pattern(1);
  for (std::uint64_t b = 0; b < 8; ++b) md.write(b, before);

  md.fail_member(1);
  EXPECT_TRUE(md.degraded());
  EXPECT_EQ(md.healthy_members(), 1u);
  EXPECT_FALSE(md.dead());  // degraded, not dead: still serving

  // Writes keep landing on the survivor; the failed member freezes.
  auto after = pattern(9);
  for (std::uint64_t b = 0; b < 8; ++b) md.write(b, after);
  std::array<std::byte, kBlockSize> got{};
  md.read_untimed(3, got);
  EXPECT_EQ(got, after);
  md.member(1).read_untimed(3, got);
  EXPECT_EQ(got, before);  // frozen at failure time

  // Reads all route to the survivor and are counted as degraded. Stride-5
  // reads defeat sequential affinity, so every pick goes through the
  // round-robin policy — whose turns onto the dead member redirect.
  const auto reads_before = md.member(0).stats().reads;
  std::array<std::byte, kBlockSize> buf{};
  for (int r = 0; r < 6; ++r) md.read(static_cast<std::uint64_t>(r * 5), buf);
  EXPECT_EQ(md.member(0).stats().reads, reads_before + 6);
  EXPECT_GE(md.volume_stats().degraded_reads, 6u);
  EXPECT_GT(md.volume_stats().degraded_writes, 0u);
  EXPECT_GT(md.volume_stats().redirected_reads, 0u);  // rr picks redirected
}

TEST_F(MirroredDeviceTest, FailMemberMidAsyncBatchFanInStillCompletes) {
  MirroredDevice md = make2();
  auto data = pattern(4);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 16; ++b) {
    bios.push_back(Bio::single_write(b, data));
  }
  const Ticket t = md.submit_async(bios);
  EXPECT_EQ(md.inflight(), 1u);
  // The member dies while the volume ticket is still in flight: fan-in
  // must redeem the dead member's ticket without wedging or double-free.
  md.fail_member(1);
  md.wait(t);
  EXPECT_EQ(md.inflight(), 0u);
  for (const Bio& b : bios) EXPECT_TRUE(b.applied);

  // The next batch replicates only to the survivor.
  std::vector<Bio> more;
  for (std::uint64_t b = 16; b < 20; ++b) {
    more.push_back(Bio::single_write(b, data));
  }
  const auto w1 = md.member(1).stats().writes;
  md.submit(more);
  EXPECT_EQ(md.member(1).stats().writes, w1);  // nothing new on the dead one
}

TEST_F(MirroredDeviceTest, AllMembersFailedReadsReportIoError) {
  MirroredDevice md = make2();
  auto data = pattern(2);
  md.write(0, data);
  md.fail_member(0);
  md.fail_member(1);
  std::array<std::byte, kBlockSize> buf{};
  Bio bio = Bio::single_read(0, buf);
  md.submit(bio);
  EXPECT_TRUE(bio.io_error);
  EXPECT_FALSE(bio.applied);
}

// ---- member failure: injected read errors ----

TEST_F(MirroredDeviceTest, ReadErrorFailsOverToTheMirror) {
  MirroredDevice md = make2();
  auto data = pattern(7);
  for (std::uint64_t b = 0; b < 4; ++b) md.write(b, data);

  // Block 2 is unreadable on BOTH members' first pick: inject on both and
  // check the whole-volume error; then repair one and check failover.
  md.member(0).inject_read_error(2);
  md.member(1).inject_read_error(2);
  std::array<std::byte, kBlockSize> buf{};
  Bio bad = Bio::single_read(2, buf);
  md.submit(bad);
  EXPECT_TRUE(bad.io_error);  // no replica could serve it
  EXPECT_GE(md.volume_stats().read_error_failovers, 1u);

  // A write repairs the sector on every serving member.
  md.write(2, data);
  Bio good = Bio::single_read(2, buf);
  md.submit(good);
  EXPECT_FALSE(good.io_error);
  EXPECT_TRUE(good.applied);

  // Single-member medium error: the volume serves the read from the
  // mirror and counts a failover; the caller never sees the error.
  md.member(0).inject_read_error(3);
  const auto failovers = md.volume_stats().read_error_failovers;
  buf.fill(std::byte{0});
  for (int r = 0; r < 2; ++r) {  // rr hits member 0 at least once
    Bio bio = Bio::single_read(3, buf);
    md.submit(bio);
    EXPECT_FALSE(bio.io_error);
    EXPECT_EQ(buf, data);
  }
  EXPECT_GT(md.volume_stats().read_error_failovers, failovers);
  EXPECT_GE(md.member(0).stats().read_errors, 1u);
}

// ---- scrub ----

TEST_F(MirroredDeviceTest, ScrubRepairsADivergentReplica) {
  // md's "repair" sync_action: a pass compares every replica with the
  // first healthy one and rewrites each block that differs.
  MirroredDevice md = make2();
  for (std::uint64_t b = 0; b < 64; ++b) {
    md.write(b, pattern(static_cast<std::uint8_t>(b)));
  }
  ASSERT_TRUE(members_identical(md, 0, 1));
  // Diverge two blocks of member 1 behind the volume's back.
  auto junk = pattern(0xBD);
  md.member(1).write_untimed(3, junk);
  md.member(1).write_untimed(40, junk);
  ASSERT_FALSE(members_identical(md, 0, 1));

  md.start_scrub();
  EXPECT_TRUE(md.scrub_active());
  md.finish_scrub();
  EXPECT_FALSE(md.scrub_active());
  const AggregateVolumeStats& vs = md.aggregate_stats();
  EXPECT_EQ(vs.scrub_mismatches, 2u);
  EXPECT_EQ(vs.scrub_repairs, 2u);
  EXPECT_GT(vs.scrub_steps, 0u);
  EXPECT_TRUE(members_identical(md, 0, 1));
  std::array<std::byte, kBlockSize> got{};
  md.member(1).read_untimed(40, got);
  EXPECT_EQ(got, pattern(40));

  // A second pass finds the replicas in agreement.
  md.start_scrub();
  md.finish_scrub();
  EXPECT_EQ(md.aggregate_stats().scrub_mismatches, 2u);
  EXPECT_EQ(md.aggregate_stats().scrub_repairs, 2u);
}

// ---- online rebuild ----

TEST_F(MirroredDeviceTest, RebuildLeavesMembersBitIdentical) {
  MirroredDevice md = make2();
  auto data = pattern(1);
  for (std::uint64_t b = 0; b < 64; ++b) {
    md.write(b, pattern(static_cast<std::uint8_t>(b)));
  }
  (void)data;
  md.fail_member(1);
  // Divergence while degraded: the survivor moves on.
  for (std::uint64_t b = 0; b < 32; ++b) {
    md.write(b, pattern(static_cast<std::uint8_t>(0x80 + b)));
  }
  EXPECT_FALSE(members_identical(md, 0, 1));

  md.start_rebuild(1);
  EXPECT_TRUE(md.rebuild_active());
  md.finish_rebuild();
  EXPECT_FALSE(md.rebuild_active());
  EXPECT_FALSE(md.degraded());
  EXPECT_TRUE(members_identical(md, 0, 1));
  EXPECT_EQ(md.aggregate_stats().rebuild_copied, md.nblocks());
  EXPECT_EQ(md.aggregate_stats().rebuilds_completed, 1u);
}

TEST_F(MirroredDeviceTest, RebuildInterceptsForegroundWrites) {
  MirrorParams mp;
  mp.nmirrors = 2;
  mp.rebuild_batch = 8;
  // A tiny lead window: each foreground poke advances the resync only a
  // little, so writes land both behind and ahead of the cursor.
  mp.rebuild_lead = sim::usec(20);
  DeviceParams member;
  member.nblocks = 64;
  MirroredDevice md(mp, member);

  for (std::uint64_t b = 0; b < 64; ++b) md.write(b, pattern(1));
  md.fail_member(1);
  md.start_rebuild(1);

  // Foreground writes during the resync: every one must reach the target
  // too (write interception), regardless of the cursor position.
  for (std::uint64_t b = 0; b < 64; b += 4) {
    md.write(b, pattern(static_cast<std::uint8_t>(0x40 + b)));
  }
  EXPECT_GT(md.volume_stats().rebuild_write_intercepts, 0u);
  EXPECT_GT(md.aggregate_stats().rebuild_throttle_yields, 0u);  // backpressure
  md.finish_rebuild();
  EXPECT_TRUE(members_identical(md, 0, 1));
}

TEST_F(MirroredDeviceTest, RebuildBackpressureBoundsTheResyncClock) {
  MirrorParams mp;
  mp.nmirrors = 2;
  mp.rebuild_batch = 4;
  mp.rebuild_lead = sim::usec(50);
  DeviceParams member;
  member.nblocks = 256;
  MirroredDevice md(mp, member);
  for (std::uint64_t b = 0; b < 256; ++b) md.write(b, pattern(2));
  md.fail_member(1);
  md.start_rebuild(1);

  // One poke (a single foreground write) advances the resync by at most
  // the lead window, not to completion: foreground I/O is never starved
  // behind a full-device copy.
  md.write(0, pattern(3));
  EXPECT_TRUE(md.rebuild_active());
  EXPECT_GT(md.rebuild_cursor(), 0u);
  EXPECT_LT(md.rebuild_cursor(), md.nblocks());
  md.finish_rebuild();
  EXPECT_TRUE(members_identical(md, 0, 1));
}

TEST_F(MirroredDeviceTest, FailTargetDuringRebuildAborts) {
  MirroredDevice md = make2();
  for (std::uint64_t b = 0; b < 64; ++b) md.write(b, pattern(1));
  md.fail_member(1);
  md.start_rebuild(1);
  md.fail_member(1);  // the replacement dies mid-resync
  EXPECT_FALSE(md.rebuild_active());
  EXPECT_EQ(md.aggregate_stats().rebuilds_aborted, 1u);
  EXPECT_TRUE(md.degraded());
  // The volume still serves from the survivor.
  std::array<std::byte, kBlockSize> buf{};
  Bio bio = Bio::single_read(0, buf);
  md.submit(bio);
  EXPECT_FALSE(bio.io_error);
}

TEST_F(MirroredDeviceTest, FailSourceDuringRebuildFallsOverOrAborts) {
  // 3-way mirror: member 2 rebuilds; the first source (member 0) dies
  // mid-resync and the copy falls over to member 1.
  MirrorParams mp;
  mp.nmirrors = 3;
  mp.rebuild_batch = 8;
  mp.rebuild_lead = sim::usec(20);
  DeviceParams member;
  member.nblocks = 64;
  MirroredDevice md(mp, member);
  for (std::uint64_t b = 0; b < 64; ++b) {
    md.write(b, pattern(static_cast<std::uint8_t>(b)));
  }
  md.fail_member(2);
  md.start_rebuild(2);
  md.write(0, pattern(0));  // poke: partial progress from member 0
  EXPECT_TRUE(md.rebuild_active());
  md.fail_member(0);
  EXPECT_TRUE(md.rebuild_active());  // member 1 can still feed the resync
  md.finish_rebuild();
  EXPECT_TRUE(members_identical(md, 1, 2));

  // 2-way mirror: losing the only source aborts the resync.
  MirroredDevice md2 = make2();
  for (std::uint64_t b = 0; b < 64; ++b) md2.write(b, pattern(1));
  md2.fail_member(1);
  md2.start_rebuild(1);
  md2.fail_member(0);
  EXPECT_FALSE(md2.rebuild_active());
  EXPECT_EQ(md2.aggregate_stats().rebuilds_aborted, 1u);
}

TEST_F(MirroredDeviceTest, RebuildSourcePrefersTheFastReplicaByEwma) {
  // Resync-source selection uses the members' read-latency EWMA: with
  // one replica an order of magnitude slower, the copy must come off a
  // fast member, not blindly off the first healthy index.
  MirrorParams mp;
  mp.nmirrors = 3;
  mp.rebuild_batch = 8;
  mp.rebuild_lead = sim::usec(20);
  std::vector<DeviceParams> members(3);
  for (auto& m : members) {
    m.nblocks = 64;
    m.channels = 1;
  }
  members[0].read_lat_rand = members[1].read_lat_rand * 10;
  members[0].read_lat_seq = members[1].read_lat_seq * 10;
  MirroredDevice md(mp, members);
  for (std::uint64_t b = 0; b < 64; ++b) {
    md.write(b, pattern(static_cast<std::uint8_t>(b)));
  }
  // Seed the EWMAs: scattered single-bio reads observe every member's
  // latency (round-robin visits each in turn).
  std::array<std::byte, kBlockSize> buf{};
  for (std::uint64_t i = 0; i < 16; ++i) {
    Bio rd = Bio::single_read((i * 3) % 64, buf);
    md.wait(md.submit_async(std::span<Bio>(&rd, 1)));
    sim::current().wait_until(sim::now() + sim::kMillisecond);
  }
  ASSERT_GT(md.member_latency_ewma(0), md.member_latency_ewma(1));

  md.fail_member(2);
  const auto slow0 = md.member(0).stats().reads;
  const auto fast1 = md.member(1).stats().reads;
  md.start_rebuild(2);
  md.finish_rebuild();
  EXPECT_TRUE(members_identical(md, 1, 2));
  // The whole copy was fed by the fast replica.
  EXPECT_EQ(md.member(0).stats().reads, slow0);
  EXPECT_GT(md.member(1).stats().reads, fast1);
}

TEST_F(MirroredDeviceTest, HotSpareDeploysOnMemberFailure) {
  MirrorParams mp;
  mp.nmirrors = 2;
  mp.nspares = 1;
  DeviceParams member;
  member.nblocks = 64;
  MirroredDevice md(mp, member);
  EXPECT_EQ(md.spares_available(), 1u);
  for (std::uint64_t b = 0; b < 64; ++b) {
    md.write(b, pattern(static_cast<std::uint8_t>(b)));
  }
  md.fail_member(1);
  EXPECT_EQ(md.spares_available(), 0u);
  EXPECT_EQ(md.aggregate_stats().spares_deployed, 1u);
  EXPECT_TRUE(md.rebuild_active());
  md.finish_rebuild();
  EXPECT_FALSE(md.degraded());
  EXPECT_TRUE(members_identical(md, 0, 1));
}

// ---- crash model parity ----

TEST_F(MirroredDeviceTest, GlobalKillCountsLogicalBiosLikeOneDevice) {
  auto survivors_on = [](auto& dev) {
    sim::SimThread t(5);
    sim::ScopedThread in(t);
    dev.enable_crash_tracking();
    dev.kill_after(3);
    std::array<std::byte, kBlockSize> data{};
    data.fill(std::byte{0xAB});
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
  p.nblocks = 64;
  BlockDevice single(p);
  MirroredDevice mirrored = make2();
  const auto a = survivors_on(single);
  const auto b = survivors_on(mirrored);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, (std::vector<std::uint64_t>{8, 2, 17}));
  // Both replicas froze at the same logical instant: identical images.
  EXPECT_TRUE(members_identical(mirrored, 0, 1));
}

TEST_F(MirroredDeviceTest, CrashRevertsNonDurableWritesOnEveryMember) {
  MirroredDevice md = make2();
  md.enable_crash_tracking();
  auto data = pattern(1);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 16; ++b) {
    bios.push_back(Bio::single_write(b, data));
  }
  md.submit(bios);
  EXPECT_EQ(md.dirty_blocks(), 32u);  // 16 logical blocks x 2 replicas

  sim::Rng rng(11);
  md.crash(/*survive_p=*/0.0, rng);
  EXPECT_EQ(md.dirty_blocks(), 0u);
  std::array<std::byte, kBlockSize> got{};
  md.read_untimed(3, got);
  EXPECT_EQ(got[0], std::byte{0});
  EXPECT_TRUE(members_identical(md, 0, 1));
}

// ---- stats aggregation under degraded mode ----

TEST_F(MirroredDeviceTest, StatsAggregateAcrossMembersWhileDegraded) {
  MirroredDevice md = make2();
  auto data = pattern(2);
  for (std::uint64_t b = 0; b < 8; ++b) md.write(b, data);
  md.fail_member(1);
  for (std::uint64_t b = 8; b < 16; ++b) md.write(b, data);
  std::array<std::byte, kBlockSize> buf{};
  for (int r = 0; r < 4; ++r) md.read(static_cast<std::uint64_t>(r), buf);
  md.flush();

  const DeviceStats& agg = md.stats();
  // The failed member's history stays in the aggregate (its counters are
  // frozen, not erased) and per-member counters remain reachable.
  EXPECT_EQ(agg.writes,
            md.member(0).stats().writes + md.member(1).stats().writes);
  EXPECT_EQ(agg.reads,
            md.member(0).stats().reads + md.member(1).stats().reads);
  EXPECT_EQ(agg.flushes, 1u);  // only the survivor was flushed
  EXPECT_EQ(md.member(0).stats().writes, 16u);
  EXPECT_EQ(md.member(1).stats().writes, 8u);
}

// ---- RAID10 stacking ----

TEST_F(MirroredDeviceTest, Raid10StripesOverMirrors) {
  StripeParams sp;
  sp.ndevices = 2;
  sp.chunk_blocks = 4;
  MirrorParams mp;
  mp.nmirrors = 2;
  DeviceParams member;
  member.nblocks = 32;
  std::vector<std::unique_ptr<BlockDevice>> stripes;
  for (int i = 0; i < 2; ++i) {
    stripes.push_back(std::make_unique<MirroredDevice>(mp, member));
  }
  auto* m0 = static_cast<MirroredDevice*>(stripes[0].get());
  StripedDevice raid10(sp, std::move(stripes));

  EXPECT_EQ(raid10.nblocks(), 64u);  // 2 stripes x 32; mirroring is free
  EXPECT_EQ(raid10.members(), 2u);

  std::vector<std::array<std::byte, kBlockSize>> payloads;
  for (std::uint8_t i = 0; i < 32; ++i) payloads.push_back(pattern(i));
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 32; ++b) {
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  raid10.submit(bios);
  std::array<std::byte, kBlockSize> got{};
  for (std::uint64_t b = 0; b < 32; ++b) {
    raid10.read_untimed(b, got);
    EXPECT_EQ(got, pattern(static_cast<std::uint8_t>(b))) << b;
  }

  // One replica of stripe 0 dies: the RAID10 volume keeps serving every
  // block, and the mirror below reports degraded.
  m0->fail_member(0);
  EXPECT_TRUE(m0->degraded());
  std::array<std::byte, kBlockSize> buf{};
  for (std::uint64_t b = 0; b < 32; ++b) {
    Bio bio = Bio::single_read(b, buf);
    raid10.submit(bio);
    EXPECT_FALSE(bio.io_error) << b;
    EXPECT_EQ(buf, pattern(static_cast<std::uint8_t>(b))) << b;
  }

  // Volume-level error injection routes through the stripe to the owning
  // mirror (both replicas); the failure must survive the stripe fan-in
  // instead of being silently dropped.
  raid10.inject_read_error(1);  // chunk 0 -> stripe 0, child block 1
  Bio bad = Bio::single_read(1, buf);
  raid10.submit(bad);
  EXPECT_TRUE(bad.io_error);
  EXPECT_FALSE(bad.applied);
  // With member 0 already failed, a medium error on the surviving
  // replica leaves no copy to serve: the error surfaces through the
  // stripe. A rewrite repairs the sector and the read recovers.
  m0->member(1).inject_read_error(2);
  Bio served = Bio::single_read(2, buf);
  raid10.submit(served);
  EXPECT_TRUE(served.io_error);
  std::array<std::byte, kBlockSize> fix = pattern(2);
  raid10.write(2, fix);
  Bio again = Bio::single_read(2, buf);
  raid10.submit(again);
  EXPECT_FALSE(again.io_error);
  EXPECT_EQ(buf, fix);
}

}  // namespace
}  // namespace bsim::blk
