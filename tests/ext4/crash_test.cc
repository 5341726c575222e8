// Crash differential for the ext4 comparator's journal: pipelined commits
// against the unpipelined oracle ("-o nopipeline").
//
// Pipelining only moves ticket redemption: every write is still SUBMITTED
// in the same program order, and media effects land at submission. So
// for any kill point the surviving image — and the image after journal
// recovery — must be bit-identical to the oracle's, on a plain device and
// on a striped volume alike. Each fsync interval writes more than the
// 2048-block commit threshold, so threshold commits go out pipelined
// between the fsyncs. The burst cases never fsync, so the pipeline fills
// to its depth and the kill points land while it is full.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "../testutil.h"

namespace bsim::test {
namespace {

using kern::Err;

constexpr std::uint64_t kBlocks = 65536;  // 256 MiB images

/// Write nine 3-5 MB files on "ssd0" (laid out by `volume`), fsyncing
/// every third (with `burst`, twenty files and no fsync), with the device
/// set to die after `kill_point` write commands; return the surviving
/// logical image. `obs` (optional) lets the sweep prove that commits
/// overlapped.
std::unique_ptr<blk::BlockDevice> run_trace(std::string_view volume,
                                            std::uint64_t kill_point,
                                            std::string_view opts,
                                            PipelineObs* obs, bool burst) {
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = kBlocks;
  auto& dev = kernel.add_volume("ssd0", volume, params);
  ext4::mkfs(dev, /*inodes_per_group=*/4096);
  wl::register_deployments(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount("ext4j", "ssd0", "/mnt", opts));
  dev.enable_crash_tracking();
  dev.kill_after(kill_point);

  const auto* mnt = kernel.sb_at("/mnt")->fs<ext4::Ext4Mount>();
  std::size_t peak = 0;
  auto sample = [&] { peak = std::max(peak, mnt->inflight_commits()); };

  auto& p = kernel.proc();
  sim::Rng rng(31);
  for (int i = 0; i < (burst ? 20 : 9); ++i) {
    auto fd = kernel.open(p, "/mnt/f" + std::to_string(i),
                          kern::kOCreat | kern::kORdWr);
    if (!fd.ok()) break;
    const std::string data(rng.range(3u << 20, 5u << 20),
                           static_cast<char>('a' + i));
    (void)kernel.write(p, fd.value(), as_bytes(data));
    sample();
    if (!burst && i % 3 == 2) (void)kernel.fsync(p, fd.value());
    (void)kernel.close(p, fd.value());
    sample();
  }
  if (obs != nullptr) {
    obs->pipelined_commits = mnt->journal_stats().pipelined_commits;
    obs->peak_inflight = peak;
  }
  sim::Rng crash_rng(77);
  dev.crash(/*survive_p=*/0.0, crash_rng);
  return copy_device(dev);
}

/// Mount a copy of `survivor` (journal recovery runs), unmount, and
/// return the recovered image.
std::unique_ptr<blk::BlockDevice> recover_image(blk::BlockDevice& survivor) {
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = survivor.nblocks();
  auto& dev = kernel.add_device("ssd0", params);
  std::array<std::byte, blk::kBlockSize> buf{};
  for (std::uint64_t b = 0; b < survivor.nblocks(); ++b) {
    survivor.read_untimed(b, buf);
    dev.write_untimed(b, buf);
  }
  wl::register_deployments(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount("ext4j", "ssd0", "/mnt"));
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
  return copy_device(dev);
}

struct Ext4CrashCase {
  const char* name;
  const char* volume;
  std::uint64_t kill_after;
  bool burst = false;
};

class Ext4PipelinedTornDifferential
    : public ::testing::TestWithParam<Ext4CrashCase> {};

TEST_P(Ext4PipelinedTornDifferential, RecoveryBitIdenticalToUnpipelinedOracle) {
  const auto [name, volume, kill_point, burst] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);

  // "-o noflusher" keeps writeback a pure function of the op trace, so
  // the two runs' different virtual times cannot move timer-driven wakes.
  PipelineObs obs;
  auto piped = run_trace(volume, kill_point, "noflusher", &obs, burst);
  auto oracle =
      run_trace(volume, kill_point, "noflusher,nopipeline", nullptr, burst);
  EXPECT_GT(obs.pipelined_commits, 0u) << "trace never overlapped commits";
  if (burst) {
    // ext4j runs the same engine as xv6, so the same depth.
    EXPECT_EQ(obs.peak_inflight, blk::Journal<xv6::LogIo>::kPipelineDepth)
        << "burst never filled the commit pipeline";
  }
  EXPECT_TRUE(images_equal(*piped, *oracle))
      << "surviving images diverged at kill_after=" << kill_point;
  auto rec_piped = recover_image(*piped);
  auto rec_oracle = recover_image(*oracle);
  EXPECT_TRUE(images_equal(*rec_piped, *rec_oracle))
      << "recovered images diverged at kill_after=" << kill_point;
}

INSTANTIATE_TEST_SUITE_P(
    CrashPointSweep, Ext4PipelinedTornDifferential,
    ::testing::Values(Ext4CrashCase{"plain", "", 47},
                      Ext4CrashCase{"plain", "", 900},
                      Ext4CrashCase{"plain", "", 5000},
                      Ext4CrashCase{"striped4", "stripe=4,chunk=16", 47},
                      Ext4CrashCase{"striped4", "stripe=4,chunk=16", 900},
                      Ext4CrashCase{"striped4", "stripe=4,chunk=16", 5000},
                      // The burst fills the pipeline at its sixteenth
                      // file, near write command 32,800, and keeps it full
                      // until it ends near write command 41,000.
                      Ext4CrashCase{"plain", "", 33000, true},
                      Ext4CrashCase{"plain", "", 38000, true},
                      Ext4CrashCase{"striped4", "stripe=4,chunk=16", 33000,
                                    true},
                      Ext4CrashCase{"striped4", "stripe=4,chunk=16", 38000,
                                    true}),
    [](const auto& info) {
      return std::string(info.param.name) + "_k" +
             std::to_string(info.param.kill_after) +
             (info.param.burst ? "_burst" : "");
    });

}  // namespace
}  // namespace bsim::test
