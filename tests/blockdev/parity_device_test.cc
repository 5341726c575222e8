// Unit tests for RAID5 parity volumes (blockdev/parity.h): left-symmetric
// geometry and routing, RMW vs full-stripe write-path selection, degraded
// reads and writes (XOR reconstruction), medium-error self-healing, scrub
// verify/repair, hot-spare auto-rebuild, the write-intent bitmap closing
// the write hole across crashes, the stripe cache (reads saved, drop
// rules, byte-identical media), RAID50 stacking, and crash-model parity
// with a single device.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "blockdev/parity.h"
#include "blockdev/striped.h"
#include "sim/rng.h"
#include "sim/thread.h"

namespace bsim::blk {
namespace {

using sim::Nanos;

class ParityDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override { sim::set_current(&thread_); }
  void TearDown() override { sim::set_current(nullptr); }

  /// 4+1 parity volume, chunk 4: 8 rows per member, 128 logical blocks.
  static ParityDevice make5(std::size_t nspares = 0) {
    ParityParams pp;
    pp.ndata = 4;
    pp.chunk_blocks = 4;
    pp.nspares = nspares;
    DeviceParams member;
    member.nblocks = 33;  // 1 bitmap block + 8 rows x 4 blocks
    return ParityDevice(pp, member);
  }

  static std::array<std::byte, kBlockSize> pattern(std::uint8_t seed) {
    std::array<std::byte, kBlockSize> b{};
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::byte>(seed + i);
    }
    return b;
  }

  /// Every parity line XORs to zero across the members.
  static bool lines_consistent(ParityDevice& pd) {
    const std::uint64_t usable = pd.nblocks() / pd.parity().ndata;
    BlockData x{}, tmp{};
    for (std::uint64_t mb = ParityDevice::kBitmapBlocks;
         mb < ParityDevice::kBitmapBlocks + usable; ++mb) {
      x.fill(std::byte{0});
      for (std::size_t m = 0; m < pd.members(); ++m) {
        pd.member(m).read_untimed(mb, tmp);
        for (std::size_t i = 0; i < kBlockSize; ++i) x[i] ^= tmp[i];
      }
      if (x != BlockData{}) return false;
    }
    return true;
  }

  static std::vector<std::array<std::byte, kBlockSize>> snapshot(
      BlockDevice& dev) {
    std::vector<std::array<std::byte, kBlockSize>> img(dev.nblocks());
    for (std::uint64_t b = 0; b < dev.nblocks(); ++b) {
      dev.read_untimed(b, img[b]);
    }
    return img;
  }

  sim::SimThread thread_{0};
};

// ---- geometry ----

TEST_F(ParityDeviceTest, GeometryRotatesParityLeftSymmetric) {
  ParityDevice pd = make5();
  EXPECT_EQ(pd.members(), 5u);
  EXPECT_EQ(pd.nblocks(), 128u);  // 4 data columns x 8 rows x 4 blocks
  EXPECT_EQ(pd.stripe_width_blocks(), 16u);  // ck x ndata

  // Row r parks parity on member (n-1) - (r % n); data columns follow.
  EXPECT_EQ(pd.parity_member_of(0), 4u);
  EXPECT_EQ(pd.parity_member_of(1), 3u);
  EXPECT_EQ(pd.parity_member_of(4), 0u);
  EXPECT_EQ(pd.parity_member_of(5), 4u);
  // Row 0: data columns 0..3 sit on members 0..3.
  EXPECT_EQ(pd.data_member_of(0), 0u);
  EXPECT_EQ(pd.data_member_of(4), 1u);
  EXPECT_EQ(pd.data_member_of(12), 3u);
  // Row 1 (logical 16..31): parity on 3, data on 4,0,1,2.
  EXPECT_EQ(pd.data_member_of(16), 4u);
  EXPECT_EQ(pd.data_member_of(20), 0u);
  // Member block: bitmap head + row offset.
  EXPECT_EQ(pd.child_block_of(0), 1u);
  EXPECT_EQ(pd.child_block_of(17), 6u);  // bitmap + row 1 * ck + off 1

  // No two chunks of one stripe row share a member (the rotation is a
  // permutation), so a full row fans across ALL data members.
  for (std::uint64_t row = 0; row < 8; ++row) {
    std::vector<bool> used(pd.members(), false);
    used[pd.parity_member_of(row)] = true;
    for (std::uint64_t c = 0; c < 4; ++c) {
      const std::size_t m = pd.data_member_of(row * 16 + c * 4);
      EXPECT_FALSE(used[m]) << "row " << row << " chunk " << c;
      used[m] = true;
    }
  }
}

// ---- write paths ----

TEST_F(ParityDeviceTest, WriteReadBackKeepsEveryLineConsistent) {
  ParityDevice pd = make5();
  // Payload spans must outlive submission: keep them in one arena.
  std::vector<std::array<std::byte, kBlockSize>> payloads(128);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 128; ++b) {
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  pd.submit(bios);
  for (const Bio& b : bios) EXPECT_TRUE(b.applied);

  std::array<std::byte, kBlockSize> got{};
  for (std::uint64_t b = 0; b < 128; ++b) {
    pd.read_untimed(b, got);
    EXPECT_EQ(got, pattern(static_cast<std::uint8_t>(b))) << b;
  }
  EXPECT_TRUE(lines_consistent(pd));
  EXPECT_GT(pd.dirty_regions(), 0u);  // intent bits are sticky until scrub
}

TEST_F(ParityDeviceTest, FullStripeWritesComputeParityWithoutReads) {
  ParityDevice pd = make5();
  std::vector<std::array<std::byte, kBlockSize>> payloads(16);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 16; ++b) {  // exactly one stripe row
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  pd.submit(bios);

  const ParityVolumeStats& vs = pd.volume_stats();
  EXPECT_EQ(vs.full_stripe_writes, 4u);  // ck lines per row, all covered
  EXPECT_EQ(vs.rmw_writes, 0u);
  EXPECT_EQ(vs.rmw_read_blocks, 0u);
  EXPECT_EQ(vs.parity_writes, 4u);
  // No member served a read: parity came from the new data alone.
  for (std::size_t m = 0; m < pd.members(); ++m) {
    EXPECT_EQ(pd.member(m).stats().read_requests, 0u) << m;
  }
  EXPECT_TRUE(lines_consistent(pd));
}

TEST_F(ParityDeviceTest, SmallWriteTakesReadModifyWrite) {
  ParityDevice pd = make5();
  // Untimed fill: the stripe cache holds none of row 0's lines.
  for (std::uint64_t b = 0; b < 16; ++b) {
    pd.write_untimed(b, pattern(static_cast<std::uint8_t>(b)));
  }

  // One block of a full line: old data + old parity read, delta XORed in.
  auto v = pattern(0xC3);
  pd.write(5, v);
  const ParityVolumeStats& vs = pd.volume_stats();
  EXPECT_EQ(vs.rmw_writes, 1u);
  EXPECT_EQ(vs.rmw_read_blocks, 2u);  // the written column + the parity
  EXPECT_EQ(vs.stripe_cache_hits, 0u);
  EXPECT_EQ(vs.parity_writes, 1u);
  EXPECT_TRUE(lines_consistent(pd));
  std::array<std::byte, kBlockSize> got{};
  pd.read_untimed(5, got);
  EXPECT_EQ(got, v);
}

// ---- stripe cache ----

TEST_F(ParityDeviceTest, RmwOfAWarmLineReadsNothing) {
  ParityDevice pd = make5();
  std::vector<std::array<std::byte, kBlockSize>> payloads(16);
  std::vector<Bio> fill;
  for (std::uint64_t b = 0; b < 16; ++b) {
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    fill.push_back(Bio::single_write(b, payloads[b]));
  }
  pd.submit(fill);  // full-stripe: every column of row 0's lines resident
  EXPECT_EQ(pd.stripe_cache_lines(), 4u);

  auto v = pattern(0xC3);
  pd.write(5, v);
  const ParityVolumeStats& vs = pd.volume_stats();
  EXPECT_EQ(vs.rmw_writes, 1u);
  EXPECT_EQ(vs.rmw_read_blocks, 0u);
  EXPECT_EQ(vs.stripe_cache_hits, 2u);  // old data + old parity
  for (std::size_t m = 0; m < pd.members(); ++m) {
    EXPECT_EQ(pd.member(m).stats().read_requests, 0u) << m;
  }
  EXPECT_TRUE(lines_consistent(pd));
  std::array<std::byte, kBlockSize> got{};
  pd.read_untimed(5, got);
  EXPECT_EQ(got, v);
}

TEST_F(ParityDeviceTest, DropRulesMakeTheNextRmwReadAgain) {
  enum class Event { Crash, FailMember, Resync, WriteError, WriteUntimed };
  for (const Event ev : {Event::Crash, Event::FailMember, Event::Resync,
                         Event::WriteError, Event::WriteUntimed}) {
    SCOPED_TRACE(static_cast<int>(ev));
    ParityDevice pd = make5();
    pd.enable_crash_tracking();
    std::vector<std::array<std::byte, kBlockSize>> payloads(16);
    std::vector<Bio> fill;
    for (std::uint64_t b = 0; b < 16; ++b) {
      payloads[b] = pattern(static_cast<std::uint8_t>(b));
      fill.push_back(Bio::single_write(b, payloads[b]));
    }
    pd.submit(fill);
    pd.flush();
    ASSERT_EQ(pd.stripe_cache_lines(), 4u);

    auto junk = pattern(0x5A);
    switch (ev) {
      case Event::Crash: {
        sim::Rng rng(3);
        pd.crash(/*survive_p=*/1.0, rng);
        break;
      }
      case Event::FailMember:
        // Row 0 keeps its parity (member 4) and block 5's column
        // (member 1), so the next write still takes RMW.
        pd.fail_member(2);
        break;
      case Event::Resync:
        pd.resync();
        break;
      case Event::WriteError: {
        pd.inject_write_error(20);  // row 1: a line the cache never held
        Bio w = Bio::single_write(20, junk);
        pd.submit(w);
        EXPECT_TRUE(w.io_error);
        break;
      }
      case Event::WriteUntimed:
        pd.write_untimed(40, junk);
        break;
    }
    EXPECT_EQ(pd.stripe_cache_lines(), 0u);

    const ParityVolumeStats before = pd.volume_stats();
    auto v = pattern(0xC3);
    pd.write(5, v);
    const ParityVolumeStats& after = pd.volume_stats();
    EXPECT_EQ(after.rmw_writes - before.rmw_writes, 1u);
    EXPECT_EQ(after.rmw_read_blocks - before.rmw_read_blocks, 2u);
    EXPECT_EQ(after.stripe_cache_hits, 0u);
  }
}

TEST_F(ParityDeviceTest, WarmLinePicksThePlanWithFewerReads) {
  ParityDevice pd = make5();
  // Line 1 holds logical blocks 0, 4, 8, 12 (data columns 0..3).
  auto a = pattern(0x10);
  std::vector<Bio> three;
  for (const std::uint64_t b : {0ULL, 4ULL, 8ULL}) {
    three.push_back(Bio::single_write(b, a));
  }
  pd.submit(three);  // cold: reconstruct-write reads only column 3
  const ParityVolumeStats& vs = pd.volume_stats();
  EXPECT_EQ(vs.rmw_read_blocks, 1u);
  EXPECT_EQ(vs.stripe_cache_hits, 0u);

  // Columns 0..2 and the parity are now resident. Rewriting column 1:
  // RMW needs column 1 and the parity, both cached (0 reads), where
  // reconstruct-write would read column 3.
  auto b = pattern(0x20);
  pd.write(4, b);
  EXPECT_EQ(vs.rmw_read_blocks, 1u);
  EXPECT_EQ(vs.stripe_cache_hits, 2u);

  // Writing column 3: RMW would read column 3 (cached parity aside), but
  // reconstruct-write needs only columns 0..2, all cached: 0 reads.
  auto c = pattern(0x30);
  pd.write(12, c);
  EXPECT_EQ(vs.rmw_read_blocks, 1u);
  EXPECT_EQ(vs.stripe_cache_hits, 5u);

  EXPECT_EQ(vs.rmw_writes, 3u);
  EXPECT_TRUE(lines_consistent(pd));
  std::array<std::byte, kBlockSize> got{};
  for (const auto& [blk, want] :
       {std::pair{0ULL, a}, {4ULL, b}, {8ULL, a}, {12ULL, c}}) {
    pd.read_untimed(blk, got);
    EXPECT_EQ(got, want) << blk;
  }
}

TEST_F(ParityDeviceTest, StripeCacheKeepsTheMostRecentLines) {
  ParityParams pp;
  pp.ndata = 4;
  pp.chunk_blocks = 4;
  DeviceParams member;
  member.nblocks = 1 + 80 * 4;  // 320 lines: more than the cache holds
  ParityDevice pd(pp, member);
  std::vector<std::array<std::byte, kBlockSize>> payloads(pd.nblocks());
  for (std::uint64_t row = 0; row < 80; ++row) {
    std::vector<Bio> bios;
    for (std::uint64_t i = 0; i < 16; ++i) {
      const std::uint64_t b = row * 16 + i;
      payloads[b] = pattern(static_cast<std::uint8_t>(b));
      bios.push_back(Bio::single_write(b, payloads[b]));
    }
    pd.submit(bios);
  }
  EXPECT_EQ(pd.stripe_cache_lines(), ParityDevice::kStripeCacheLines);

  const ParityVolumeStats& vs = pd.volume_stats();
  auto v = pattern(0x77);
  pd.write(pd.nblocks() - 1, v);  // last row: resident
  EXPECT_EQ(vs.rmw_read_blocks, 0u);
  pd.write(0, v);  // first row: evicted long ago
  EXPECT_EQ(vs.rmw_read_blocks, 2u);
  EXPECT_TRUE(lines_consistent(pd));
}

TEST_F(ParityDeviceTest, StripeCacheLeavesMemberImagesByteIdentical) {
  // The cache changes time, never bytes: the same seeded batches, on one
  // volume with the cache warm and on another with it dropped before every
  // batch, must leave every member block identical.
  auto run = [](bool cold) {
    sim::SimThread t(cold ? 41 : 42);
    sim::ScopedThread in(t);
    ParityDevice pd = make5();
    sim::Rng rng(2024);
    for (int batch = 0; batch < 200; ++batch) {
      if (cold) pd.drop_stripe_cache();
      const std::uint64_t nbios = rng.range(1, 6);
      std::vector<std::array<std::byte, kBlockSize>> payloads(nbios);
      std::vector<Bio> bios;
      for (std::uint64_t i = 0; i < nbios; ++i) {
        payloads[i] = pattern(static_cast<std::uint8_t>(rng.next()));
        bios.push_back(Bio::single_write(rng.below(pd.nblocks()),
                                         payloads[i]));
      }
      pd.submit(bios);
    }
    EXPECT_TRUE(lines_consistent(pd));
    std::vector<std::vector<std::array<std::byte, kBlockSize>>> img;
    for (std::size_t m = 0; m < pd.members(); ++m) {
      img.push_back(snapshot(pd.member(m)));
    }
    return std::pair{img, pd.volume_stats()};
  };
  const auto [warm_img, warm] = run(false);
  const auto [cold_img, cold] = run(true);
  EXPECT_EQ(warm_img, cold_img);
  EXPECT_EQ(cold.stripe_cache_hits, 0u);
  EXPECT_GT(warm.stripe_cache_hits, 0u);
  EXPECT_LT(warm.rmw_read_blocks, cold.rmw_read_blocks);
  EXPECT_EQ(warm.parity_writes, cold.parity_writes);
}

TEST_F(ParityDeviceTest, FullStripeSequentialWriteBeatsRmwThroughput) {
  // The reconstruct-write fast path is what makes RAID5 sequential writes
  // scale: one row written whole costs no reads, while the same blocks
  // written one-at-a-time pay 2 reads + 2 writes per block.
  auto timed = [](bool whole_row) {
    sim::SimThread t(whole_row ? 31 : 32);
    sim::ScopedThread in(t);
    ParityParams pp;
    pp.ndata = 4;
    pp.chunk_blocks = 4;
    DeviceParams member;
    member.nblocks = 129;  // 32 rows
    ParityDevice pd(pp, member);
    std::vector<std::array<std::byte, kBlockSize>> payloads(256);
    const Nanos t0 = sim::now();
    for (std::uint64_t row = 0; row < 16; ++row) {
      std::vector<Bio> bios;
      for (std::uint64_t i = 0; i < 16; ++i) {
        const std::uint64_t b = row * 16 + i;
        payloads[b] = {};
        if (whole_row) {
          bios.push_back(Bio::single_write(b, payloads[b]));
        } else {
          Bio one = Bio::single_write(b, payloads[b]);
          pd.submit(one);
        }
      }
      if (whole_row) pd.submit(bios);
    }
    return sim::now() - t0;
  };
  EXPECT_LT(timed(true) * 2, timed(false));
}

// ---- degraded service ----

TEST_F(ParityDeviceTest, DegradedReadsReconstructFromParity) {
  ParityDevice pd = make5();
  std::vector<std::array<std::byte, kBlockSize>> payloads(128);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 128; ++b) {
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  pd.submit(bios);

  pd.fail_member(2);
  EXPECT_TRUE(pd.degraded());
  EXPECT_FALSE(pd.dead());

  // Timed reads: blocks on the lost member XOR-reconstruct from the
  // other four; everything still reads back correctly.
  std::array<std::byte, kBlockSize> buf{};
  for (std::uint64_t b = 0; b < 128; ++b) {
    Bio bio = Bio::single_read(b, buf);
    pd.submit(bio);
    EXPECT_FALSE(bio.io_error) << b;
    EXPECT_EQ(buf, pattern(static_cast<std::uint8_t>(b))) << b;
  }
  EXPECT_GT(pd.volume_stats().degraded_reads, 0u);
  EXPECT_GT(pd.volume_stats().reconstructed_blocks, 0u);
  // The lost member held 1/5 of the lines' blocks (data or parity);
  // reads of ITS data blocks reconstructed, the rest went direct.
  EXPECT_EQ(pd.volume_stats().degraded_reads,
            pd.volume_stats().reconstructed_blocks);
}

TEST_F(ParityDeviceTest, DegradedWritesSurviveThroughParity) {
  ParityDevice pd = make5();
  std::vector<std::array<std::byte, kBlockSize>> payloads(128);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 128; ++b) {
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  pd.submit(bios);
  pd.fail_member(0);

  // Overwrite blocks whose data member is the failed one (member 0 holds
  // column 0 of row 0: logical 0..3). The content must survive via the
  // parity update and reconstruct correctly on read.
  auto v = pattern(0xE1);
  for (std::uint64_t b = 0; b < 4; ++b) {
    Bio w = Bio::single_write(b, v);
    pd.submit(w);
    EXPECT_TRUE(w.applied) << b;
  }
  EXPECT_GT(pd.volume_stats().degraded_writes, 0u);
  std::array<std::byte, kBlockSize> got{};
  for (std::uint64_t b = 0; b < 4; ++b) {
    pd.read_untimed(b, got);
    EXPECT_EQ(got, v) << b;
  }

  // A failed parity member degrades protection, not service: writes to
  // rows whose parity lived there proceed unprotected.
  Bio w = Bio::single_write(16, v);  // row 1: parity on member 3
  pd.submit(w);
  EXPECT_TRUE(w.applied);
}

TEST_F(ParityDeviceTest, ReadErrorHealsByReconstructionAndRewrite) {
  ParityDevice pd = make5();
  std::vector<std::array<std::byte, kBlockSize>> payloads(16);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 16; ++b) {
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  pd.submit(bios);

  // Medium error on logical block 6 (member 1, block 3): the volume
  // serves the read by XOR of the peers, rewrites the sector, and the
  // caller never sees the error.
  pd.inject_read_error(6);
  EXPECT_EQ(pd.member(1).injected_read_errors(), 1u);
  std::array<std::byte, kBlockSize> buf{};
  Bio rd = Bio::single_read(6, buf);
  pd.submit(rd);
  EXPECT_FALSE(rd.io_error);
  EXPECT_EQ(buf, pattern(6));
  EXPECT_GE(pd.volume_stats().read_error_failovers, 1u);
  EXPECT_GE(pd.member(1).stats().read_errors, 1u);
  EXPECT_EQ(pd.member(1).injected_read_errors(), 0u);  // healed in place
}

// ---- rebuild + hot spares ----

TEST_F(ParityDeviceTest, RebuildRegeneratesTheLostMemberByXor) {
  ParityDevice pd = make5();
  std::vector<std::array<std::byte, kBlockSize>> payloads(128);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 128; ++b) {
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  pd.submit(bios);
  pd.fail_member(3);
  // Divergence while degraded: some lines move on without member 3.
  auto v = pattern(0x55);
  for (std::uint64_t b = 0; b < 32; ++b) {
    Bio w = Bio::single_write(b, v);
    pd.submit(w);
  }

  pd.start_rebuild(3);
  pd.finish_rebuild();
  EXPECT_FALSE(pd.degraded());
  EXPECT_EQ(pd.aggregate_stats().rebuilds_completed, 1u);
  EXPECT_EQ(pd.aggregate_stats().rebuild_copied, pd.member(3).nblocks());
  EXPECT_TRUE(lines_consistent(pd));
  std::array<std::byte, kBlockSize> got{};
  for (std::uint64_t b = 0; b < 128; ++b) {
    pd.read_untimed(b, got);
    EXPECT_EQ(got, b < 32 ? v : pattern(static_cast<std::uint8_t>(b))) << b;
  }
}

TEST_F(ParityDeviceTest, HotSpareDeploysAndRebuildsAutomatically) {
  ParityDevice pd = make5(/*nspares=*/1);
  EXPECT_EQ(pd.spares_available(), 1u);
  std::vector<std::array<std::byte, kBlockSize>> payloads(128);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 128; ++b) {
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  pd.submit(bios);

  pd.fail_member(2);
  EXPECT_EQ(pd.spares_available(), 0u);
  EXPECT_EQ(pd.aggregate_stats().spares_deployed, 1u);
  EXPECT_TRUE(pd.rebuild_active());
  pd.finish_rebuild();
  EXPECT_FALSE(pd.degraded());
  EXPECT_TRUE(lines_consistent(pd));
  std::array<std::byte, kBlockSize> got{};
  for (std::uint64_t b = 0; b < 128; ++b) {
    pd.read_untimed(b, got);
    EXPECT_EQ(got, pattern(static_cast<std::uint8_t>(b))) << b;
  }
  // A second failure finds no spare: the volume stays degraded.
  pd.fail_member(0);
  EXPECT_TRUE(pd.degraded());
  EXPECT_FALSE(pd.rebuild_active());
}

// ---- scrub ----

TEST_F(ParityDeviceTest, ScrubDetectsAndRepairsStaleParity) {
  ParityDevice pd = make5();
  std::vector<std::array<std::byte, kBlockSize>> payloads(128);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 128; ++b) {
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  pd.submit(bios);
  ASSERT_TRUE(lines_consistent(pd));
  EXPECT_GT(pd.dirty_regions(), 0u);

  // Corrupt two parity blocks behind the volume's back (rows 0 and 1:
  // parity on members 4 and 3) — the write-hole shape.
  auto junk = pattern(0xBD);
  pd.member(4).write_untimed(1, junk);
  pd.member(3).write_untimed(5, junk);
  ASSERT_FALSE(lines_consistent(pd));

  pd.start_scrub();
  EXPECT_TRUE(pd.scrub_active());
  pd.finish_scrub();
  EXPECT_FALSE(pd.scrub_active());
  const AggregateVolumeStats& vs = pd.aggregate_stats();
  EXPECT_EQ(vs.scrub_mismatches, 2u);
  EXPECT_EQ(vs.scrub_repairs, 2u);
  EXPECT_GT(vs.scrub_steps, 0u);
  EXPECT_TRUE(lines_consistent(pd));
  // A clean pass retires the write-hole exposure: intent bits cleared.
  EXPECT_EQ(pd.dirty_regions(), 0u);
  // Data was never the repair source of truth: it reads back unchanged.
  std::array<std::byte, kBlockSize> got{};
  for (std::uint64_t b = 0; b < 128; ++b) {
    pd.read_untimed(b, got);
    EXPECT_EQ(got, pattern(static_cast<std::uint8_t>(b))) << b;
  }
}

TEST_F(ParityDeviceTest, ScrubDuringDownWindowNeverRepairsGoodData) {
  // Strict-mode audit (ISSUE 10): a scrub pass that overlaps a scheduled
  // fault window reads garbage-on-error, and a naive pass would "repair"
  // perfectly good parity from a failed read's buffer. The pass must
  // instead skip unverified lines, repair nothing, and KEEP the sticky
  // intent bits — the exposure was not verified away.
  ParityDevice pd = make5();
  std::vector<Bio> bios;
  std::vector<std::array<std::byte, kBlockSize>> payloads(128);
  for (std::uint64_t b = 0; b < 128; ++b) {
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  pd.submit(bios);
  ASSERT_TRUE(lines_consistent(pd));
  const std::uint64_t dirty_before = pd.dirty_regions();
  ASSERT_GT(dirty_before, 0u);
  const auto before = snapshot(pd);

  // Permanent down window: every member bio fails while armed.
  FaultSchedule fs;
  fs.up_interval = 0;
  fs.down_interval = sim::msec(1);
  fs.fail_p = 1.0;
  pd.set_fault_schedule(fs);
  pd.start_scrub();
  pd.finish_scrub();
  pd.clear_fault_schedule();

  const AggregateVolumeStats& vs = pd.aggregate_stats();
  EXPECT_EQ(vs.scrub_repairs, 0u) << "repaired from a failed read's buffer";
  EXPECT_EQ(vs.scrub_mismatches, 0u);
  // Intent bits kept: nothing was verified, so the write-hole exposure
  // the bits record must survive for the next (healthy) pass.
  EXPECT_EQ(pd.dirty_regions(), dirty_before);
  // Media untouched: data and parity bit-identical to before the pass.
  EXPECT_EQ(snapshot(pd), before);
  ASSERT_TRUE(lines_consistent(pd));

  // The next pass on a healthy volume verifies everything and retires
  // the exposure as usual.
  pd.start_scrub();
  pd.finish_scrub();
  EXPECT_EQ(pd.aggregate_stats().scrub_repairs, 0u);
  EXPECT_EQ(pd.dirty_regions(), 0u);
}

// ---- crash model ----

TEST_F(ParityDeviceTest, GlobalKillCountsLogicalBiosLikeOneDevice) {
  // Volume-internal traffic (intent-bitmap FUAs, RMW prefetch reads,
  // parity writes) must NOT perturb the crash countdown: kill_after(n)
  // selects the same n logical bios as on a single device.
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
  p.nblocks = 128;
  BlockDevice single(p);
  ParityDevice pd = make5();
  const auto a = survivors_on(single);
  const auto b = survivors_on(pd);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, (std::vector<std::uint64_t>{8, 2, 17}));
}

TEST_F(ParityDeviceTest, WriteHoleClosedByIntentBitmapResync) {
  // The RAID5 write hole: power dies between a line's data write and its
  // parity write, some blocks survive the volatile cache and some do
  // not. After resync() (driven by the FUA'd intent bitmap), parity must
  // be consistent with whatever data survived — so a LATER member loss
  // still reconstructs exactly the surviving image.
  for (std::uint64_t kill = 1; kill < 12; kill += 2) {
    ParityDevice pd = make5();
    std::vector<std::array<std::byte, kBlockSize>> payloads(128);
    std::vector<Bio> fill;
    for (std::uint64_t b = 0; b < 128; ++b) {
      payloads[b] = pattern(static_cast<std::uint8_t>(b));
      fill.push_back(Bio::single_write(b, payloads[b]));
    }
    pd.submit(fill);
    pd.flush();
    pd.enable_crash_tracking();
    pd.kill_after(kill);

    // Torn overwrite: partial lines (RMW path) across two rows.
    auto v = pattern(0x99);
    for (std::uint64_t b = 0; b < 24; b += 2) {
      Bio w = Bio::single_write(b, v);
      pd.submit(w);
    }
    EXPECT_TRUE(pd.dead());
    sim::Rng rng(kill);
    pd.crash(/*survive_p=*/0.5, rng);
    EXPECT_GT(pd.dirty_regions(), 0u);  // FUA'd intent survived the crash

    pd.resync();
    EXPECT_EQ(pd.dirty_regions(), 0u);
    EXPECT_TRUE(lines_consistent(pd)) << "kill=" << kill;

    // Degraded equivalence: for EVERY member, the image reconstructed
    // without it matches the healthy post-crash image bit for bit.
    const auto healthy = snapshot(pd);
    for (std::size_t f = 0; f < pd.members(); ++f) {
      BlockData rec{}, tmp{};
      for (std::uint64_t b = 0; b < pd.nblocks(); ++b) {
        if (pd.data_member_of(b) != f) continue;
        rec.fill(std::byte{0});
        for (std::size_t m = 0; m < pd.members(); ++m) {
          if (m == f) continue;
          pd.member(m).read_untimed(pd.child_block_of(b), tmp);
          for (std::size_t i = 0; i < kBlockSize; ++i) rec[i] ^= tmp[i];
        }
        ASSERT_EQ(rec, healthy[b]) << "kill=" << kill << " member=" << f
                                   << " block=" << b;
      }
    }
  }
}

TEST_F(ParityDeviceTest, KillSweepImageMatchesSingleDeviceOracle) {
  // With survive_p=0 both sides revert to the last flush: the parity
  // volume's logical image must equal a single device fed the same
  // sequence, at every kill point.
  for (std::uint64_t kill = 0; kill < 10; ++kill) {
    DeviceParams p;
    p.nblocks = 128;
    BlockDevice oracle(p);
    ParityDevice pd = make5();
    auto run = [&](BlockDevice& dev) {
      std::vector<std::array<std::byte, kBlockSize>> payloads(32);
      std::vector<Bio> fill;
      for (std::uint64_t b = 0; b < 32; ++b) {
        payloads[b] = pattern(static_cast<std::uint8_t>(b));
        fill.push_back(Bio::single_write(b, payloads[b]));
      }
      dev.submit(fill);
      dev.flush();
      dev.enable_crash_tracking();
      dev.kill_after(kill);
      auto v = pattern(0x42);
      for (std::uint64_t b = 0; b < 16; ++b) {
        Bio w = Bio::single_write(b * 3, v);
        dev.submit(w);
      }
      sim::Rng rng(7);
      dev.crash(/*survive_p=*/0.0, rng);
    };
    run(oracle);
    run(pd);
    pd.resync();
    std::array<std::byte, kBlockSize> a{}, b{};
    for (std::uint64_t blk = 0; blk < 128; ++blk) {
      oracle.read_untimed(blk, a);
      pd.read_untimed(blk, b);
      ASSERT_EQ(a, b) << "kill=" << kill << " block=" << blk;
    }
    EXPECT_TRUE(lines_consistent(pd)) << "kill=" << kill;
  }
}

// ---- RAID50 stacking ----

TEST_F(ParityDeviceTest, Raid50StripesOverParityVolumes) {
  StripeParams sp;
  sp.ndevices = 2;
  sp.chunk_blocks = 4;
  ParityParams pp;
  pp.ndata = 2;
  pp.chunk_blocks = 4;
  DeviceParams member;
  member.nblocks = 17;  // 1 bitmap + 4 rows x 4 -> 32 logical per leg
  std::vector<std::unique_ptr<BlockDevice>> legs;
  for (int i = 0; i < 2; ++i) {
    legs.push_back(std::make_unique<ParityDevice>(pp, member));
  }
  auto* leg0 = static_cast<ParityDevice*>(legs[0].get());
  StripedDevice raid50(sp, std::move(legs));
  EXPECT_EQ(raid50.nblocks(), 64u);
  EXPECT_EQ(raid50.members(), 2u);

  std::vector<std::array<std::byte, kBlockSize>> payloads(64);
  std::vector<Bio> bios;
  for (std::uint64_t b = 0; b < 64; ++b) {
    payloads[b] = pattern(static_cast<std::uint8_t>(b));
    bios.push_back(Bio::single_write(b, payloads[b]));
  }
  raid50.submit(bios);

  // One member of leg 0 dies: the stack keeps serving every block.
  leg0->fail_member(1);
  std::array<std::byte, kBlockSize> buf{};
  for (std::uint64_t b = 0; b < 64; ++b) {
    Bio rd = Bio::single_read(b, buf);
    raid50.submit(rd);
    EXPECT_FALSE(rd.io_error) << b;
    EXPECT_EQ(buf, pattern(static_cast<std::uint8_t>(b))) << b;
  }
  EXPECT_GT(leg0->volume_stats().degraded_reads, 0u);
}

}  // namespace
}  // namespace bsim::blk
