// Crash-consistency property tests for the xv6 journal (Strict durability
// mode: FLUSH barriers at the commit points).
//
// Method: run a workload against a crash-tracked device, simulate power
// loss with each unflushed write independently surviving with probability
// p, copy the surviving image to a fresh device, mount it (journal
// recovery runs), unmount, and fsck. For every (p, seed) the recovered
// image must be structurally consistent and every fsync'd file intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "../testutil.h"
#include "blockdev/mirrored.h"
#include "xv6fs/fsck.h"

namespace bsim::test {
namespace {

using kern::Err;

constexpr std::uint64_t kBlocks = 8192;  // 32 MiB images

/// The volume layouts the sweeps run against. Every layout has the same
/// LOGICAL size, so images compare bit-for-bit across layouts.
enum class DevKind { Plain, Striped4, Mirror2, Parity4 };

/// Register an 8192-block volume under "ssd0": one plain device, a 4-way
/// RAID0 volume, a 2-way RAID1 mirror, or a 4+1 RAID5 parity volume.
blk::BlockDevice& add_test_device(kern::Kernel& kernel, DevKind kind) {
  static constexpr const char* kLayout[] = {
      "", "stripe=4,chunk=16", "mirror=2", "parity=4,chunk=16"};
  blk::DeviceParams params;
  params.nblocks = kBlocks;
  return kernel.add_volume("ssd0", kLayout[static_cast<int>(kind)], params);
}

bool mirror_members_identical(blk::MirroredDevice& md) {
  std::array<std::byte, blk::kBlockSize> a{}, b{};
  for (std::uint64_t blk = 0; blk < md.nblocks(); ++blk) {
    md.member(0).read_untimed(blk, a);
    md.member(1).read_untimed(blk, b);
    if (a != b) return false;
  }
  return true;
}

void register_strict(kern::Kernel& kernel) {
  bento::register_bento_fs(kernel, "xv6_strict", [] {
    xv6::Xv6FileSystem::Options opts;
    opts.durability = xv6::Durability::Strict;
    return std::make_unique<xv6::Xv6FileSystem>(opts);
  });
}

// ---- shared crash-sweep phases ----
//
// Every sweep (single-device or striped, consistency or differential)
// runs the SAME traces through these helpers, so the differential tests
// compare exactly the workload the consistency sweeps validate.

/// Survival-sweep phase 1 on a plain or 4-way striped "ssd0": run a
/// metadata+data workload, fsync a subset (recorded in `synced`), crash
/// with per-block survival probability `survive_p`, and return the
/// surviving logical image.
std::unique_ptr<blk::BlockDevice> run_survival_trace(
    DevKind kind, double survive_p, std::uint64_t seed, std::string_view opts,
    std::map<std::string, std::string>& synced) {
  kern::Kernel kernel;
  auto& dev = add_test_device(kernel, kind);
  xv6::mkfs(dev, /*ninodes=*/512);
  register_strict(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount("xv6_strict", "ssd0", "/mnt", opts));
  dev.enable_crash_tracking();

  auto& p = kernel.proc();
  sim::Rng rng(seed);
  EXPECT_EQ(Err::Ok, kernel.mkdir(p, "/mnt/d0"));
  EXPECT_EQ(Err::Ok, kernel.mkdir(p, "/mnt/d1"));
  for (int i = 0; i < 40; ++i) {
    const std::string path =
        "/mnt/d" + std::to_string(i % 2) + "/f" + std::to_string(i);
    auto fd = kernel.open(p, path, kern::kOCreat | kern::kORdWr);
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) break;  // already failed; report instead of asserting
    std::string data(rng.range(1, 20000), static_cast<char>('a' + i % 26));
    EXPECT_TRUE(kernel.write(p, fd.value(), as_bytes(data)).ok());
    if (rng.chance(0.5)) {
      EXPECT_EQ(Err::Ok, kernel.fsync(p, fd.value()));
      synced[path] = data;
    }
    EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
    // Mix in deletes and renames of earlier files.
    if (i > 4 && rng.chance(0.3)) {
      const std::string victim = "/mnt/d" + std::to_string((i - 3) % 2) +
                                 "/f" + std::to_string(i - 3);
      if (kernel.stat(p, victim).ok()) {
        (void)kernel.unlink(p, victim);
        synced.erase(victim);
      }
    }
  }
  // Power loss: unflushed device-cache writes partially survive. The
  // kernel object is then abandoned conceptually; its destructor writes
  // to the original device, which we no longer look at.
  sim::Rng crash_rng(seed * 7 + 1);
  dev.crash(survive_p, crash_rng);
  return copy_device(dev);
}

/// Torn-commit phase 1: run the fsync-heavy workload with the device set
/// to die after `kill_point` write commands, lose the volatile cache
/// entirely, and return the surviving logical image.
std::unique_ptr<blk::BlockDevice> run_torn_trace(DevKind kind,
                                                 std::uint64_t kill_point,
                                                 std::uint64_t seed,
                                                 std::string_view opts) {
  kern::Kernel kernel;
  auto& dev = add_test_device(kernel, kind);
  xv6::mkfs(dev, /*ninodes=*/512);
  register_strict(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount("xv6_strict", "ssd0", "/mnt", opts));
  dev.enable_crash_tracking();
  dev.kill_after(kill_point);

  auto& p = kernel.proc();
  sim::Rng rng(seed);
  (void)kernel.mkdir(p, "/mnt/dir");
  for (int i = 0; i < 12; ++i) {
    const std::string path = "/mnt/dir/f" + std::to_string(i);
    auto fd = kernel.open(p, path, kern::kOCreat | kern::kORdWr);
    if (!fd.ok()) break;
    std::string data(rng.range(100, 30000), 'z');
    (void)kernel.write(p, fd.value(), as_bytes(data));
    (void)kernel.fsync(p, fd.value());
    (void)kernel.close(p, fd.value());
    if (i >= 2 && rng.chance(0.5)) {
      (void)kernel.unlink(p, "/mnt/dir/f" + std::to_string(i - 2));
    }
  }
  // Unflushed cache contents are lost entirely (worst case).
  sim::Rng crash_rng(seed + 99);
  dev.crash(/*survive_p=*/0.0, crash_rng);
  return copy_device(dev);
}

/// Phase 2: mount the surviving image on a fresh plain device (journal
/// recovery runs), verify every fsync'd file is intact, unmount, fsck,
/// and return the recovered image.
std::unique_ptr<blk::BlockDevice> recover_image(
    blk::BlockDevice& survivor,
    const std::map<std::string, std::string>& synced = {}) {
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = survivor.nblocks();
  auto& dev = kernel.add_device("ssd0", params);
  std::array<std::byte, blk::kBlockSize> buf{};
  for (std::uint64_t b = 0; b < survivor.nblocks(); ++b) {
    survivor.read_untimed(b, buf);
    dev.write_untimed(b, buf);
  }
  register_strict(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount("xv6_strict", "ssd0", "/mnt"));
  auto& p = kernel.proc();
  for (const auto& [path, expect] : synced) {
    auto fd = kernel.open(p, path, kern::kORdOnly);
    EXPECT_TRUE(fd.ok()) << path << " lost after crash despite fsync";
    if (!fd.ok()) continue;
    std::vector<std::byte> buf2(expect.size() + 16);
    auto r = kernel.read(p, fd.value(), buf2);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r.value(), expect.size()) << path;
      EXPECT_EQ(to_string({buf2.data(), r.value()}), expect) << path;
    }
    EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  }
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
  auto report = xv6::fsck(dev);
  EXPECT_TRUE(report.ok) << report.summary();
  return copy_device(dev);
}

struct CrashCase {
  double survive_p;
  std::uint64_t seed;
};

class CrashConsistency : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashConsistency, RecoversToConsistentImage) {
  const auto [survive_p, seed] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  std::map<std::string, std::string> synced;  // path -> expected contents
  auto survivor = run_survival_trace(DevKind::Plain, survive_p, seed, "",
                                     synced);
  (void)recover_image(*survivor, synced);  // asserts recovery + fsck
}

std::vector<CrashCase> crash_cases() {
  std::vector<CrashCase> cases;
  for (const double p : {0.0, 0.35, 0.7, 1.0}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
      cases.push_back({p, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SurvivalSweep, CrashConsistency,
                         ::testing::ValuesIn(crash_cases()),
                         [](const auto& info) {
                           return "p" +
                                  std::to_string(static_cast<int>(
                                      info.param.survive_p * 100)) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

TEST(Fsck, CleanImagePasses) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  blk::DeviceParams params;
  params.nblocks = kBlocks;
  blk::BlockDevice dev(params);
  xv6::mkfs(dev, 512);
  auto report = xv6::fsck(dev);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.dirs, 1u);  // just the root
}

TEST(Fsck, DetectsCorruption) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  blk::DeviceParams params;
  params.nblocks = kBlocks;
  blk::BlockDevice dev(params);
  const auto sb = xv6::mkfs(dev, 512);

  // Corrupt the root dinode: point its first block outside the data area.
  std::array<std::byte, blk::kBlockSize> buf{};
  dev.read_untimed(sb.inode_block(xv6::kRootInum), buf);
  auto* di = reinterpret_cast<xv6::Dinode*>(buf.data());
  di[xv6::kRootInum % xv6::kInodesPerBlock].addrs[0] = 2;  // log area
  dev.write_untimed(sb.inode_block(xv6::kRootInum), buf);

  auto report = xv6::fsck(dev);
  EXPECT_FALSE(report.ok);
}

TEST(Fsck, ChecksTheInitialisedInodeBlockCount) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  kern::Kernel kernel;
  auto& dev = add_test_device(kernel, DevKind::Plain);
  xv6::mkfs(dev, /*ninodes=*/512);  // 8 inode blocks
  wl::register_deployments(kernel);
  ASSERT_EQ(Err::Ok, kernel.mount("xv6_bento", "ssd0", "/mnt"));
  auto& p = kernel.proc();
  for (int i = 0; i < static_cast<int>(xv6::kInodesPerBlock); ++i) {
    auto fd = kernel.open(p, "/mnt/f" + std::to_string(i),
                          kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok()) << i;
    ASSERT_EQ(Err::Ok, kernel.close(p, fd.value()));
  }
  ASSERT_EQ(Err::Ok, kernel.umount("/mnt"));
  xv6::DiskSuperblock sb = xv6::read_superblock(dev);
  ASSERT_EQ(2u, sb.ninitblocks);  // "f63" is inode 65, in block 1
  EXPECT_TRUE(xv6::fsck(dev).ok) << xv6::fsck(dev).summary();

  const auto write_super = [&](std::uint32_t ninitblocks) {
    sb.ninitblocks = ninitblocks;
    std::array<std::byte, blk::kBlockSize> buf{};
    std::memcpy(buf.data(), &sb, sizeof(sb));
    dev.write_untimed(1, buf);
  };
  // A count that fell behind an allocation: two directory entries name
  // inodes past it.
  write_super(1);
  auto report = xv6::fsck(dev);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("past the initialised inode blocks"),
            std::string::npos)
      << report.summary();
  // A count beyond the inode table, and a zero count.
  for (const std::uint32_t bad : {9u, 0u}) {
    write_super(bad);
    report = xv6::fsck(dev);
    EXPECT_FALSE(report.ok) << bad;
    EXPECT_NE(report.summary().find("ninitblocks"), std::string::npos)
        << report.summary();
  }
  // Mount refuses the same superblock.
  EXPECT_EQ(Err::Inval, kernel.mount("xv6_bento", "ssd0", "/mnt"));
  EXPECT_EQ(Err::Inval, kernel.mount("xv6_vfs", "ssd0", "/mnt"));
}

TEST(LogRecovery, ReplaysCommittedTransaction) {
  // Simulate a crash after the commit record but before install: write a
  // valid log (header + payload) by hand, then mount — recovery must
  // install the payload to its home location.
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = kBlocks;
  auto& dev = kernel.add_device("ssd0", params);
  const auto sb = xv6::mkfs(dev, 512);

  const std::uint32_t victim = sb.datastart + 5;
  std::array<std::byte, blk::kBlockSize> payload{};
  payload.fill(std::byte{0xCD});
  dev.write_untimed(sb.logstart + 1, payload);
  xv6::LogHeader header;
  header.n = 1;
  header.blocks[0] = victim;
  std::array<std::byte, blk::kBlockSize> hbuf{};
  std::memcpy(hbuf.data(), &header, sizeof(header));
  dev.write_untimed(sb.logstart, hbuf);

  register_strict(kernel);
  ASSERT_EQ(Err::Ok, kernel.mount("xv6_strict", "ssd0", "/mnt"));
  ASSERT_EQ(Err::Ok, kernel.umount("/mnt"));

  std::array<std::byte, blk::kBlockSize> got{};
  dev.read_untimed(victim, got);
  EXPECT_EQ(got, payload);  // replayed
  dev.read_untimed(sb.logstart, hbuf);
  xv6::LogHeader cleared;
  std::memcpy(&cleared, hbuf.data(), sizeof(cleared));
  EXPECT_EQ(cleared.n, 0u);  // header cleared after recovery
}

// ---- Torn-commit sweep: kill the device mid-transaction ----
//
// The device stops persisting writes after a chosen write count, so the
// durable image freezes at an arbitrary point inside a journal commit.
// With Strict durability, recovery must still produce a consistent image
// for every crash point: either the transaction replays completely or it
// never happened.

struct TornCase {
  std::uint64_t kill_after;
  std::uint64_t seed;
};

class TornCommit : public ::testing::TestWithParam<TornCase> {};

TEST_P(TornCommit, EveryCrashPointRecoversConsistently) {
  const auto [kill_point, seed] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  auto survivor = run_torn_trace(DevKind::Plain, kill_point, seed, "");
  (void)recover_image(*survivor);  // asserts recovery + fsck
}

std::vector<TornCase> torn_cases() {
  std::vector<TornCase> cases;
  // Crash points spread across the workload's ~2000 device writes.
  for (std::uint64_t k : {5ULL, 17ULL, 40ULL, 73ULL, 120ULL, 200ULL, 333ULL,
                          500ULL, 800ULL, 1200ULL}) {
    for (std::uint64_t seed : {11ULL, 12ULL}) cases.push_back({k, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CrashPointSweep, TornCommit,
                         ::testing::ValuesIn(torn_cases()),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.kill_after) +
                                  "_s" + std::to_string(info.param.seed);
                         });

TEST(StrictCommit, DeadDeviceLeavesNoTicketUnredeemed) {
  // Every Strict commit redeems what it submitted, even after the device
  // stopped persisting: no writeback ticket outlives its fsync.
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  kern::Kernel kernel;
  auto& dev = add_test_device(kernel, DevKind::Plain);
  xv6::mkfs(dev, /*ninodes=*/512);
  register_strict(kernel);
  ASSERT_EQ(Err::Ok, kernel.mount("xv6_strict", "ssd0", "/mnt"));
  dev.enable_crash_tracking();
  dev.kill_after(5);

  auto& p = kernel.proc();
  for (int i = 0; i < 10; ++i) {
    auto fd = kernel.open(p, "/mnt/f" + std::to_string(i),
                          kern::kOCreat | kern::kORdWr);
    ASSERT_TRUE(fd.ok()) << i;
    const std::string data(3000, static_cast<char>('a' + i));
    (void)kernel.write(p, fd.value(), as_bytes(data));
    (void)kernel.fsync(p, fd.value());
    (void)kernel.close(p, fd.value());
  }
  EXPECT_EQ(dev.queue().inflight(), 0u);
}

// ---- Striped volumes: the same sweeps on a 4-way RAID0 volume ----
//
// The volume's kill_after counts LOGICAL write bios in the same order the
// single-device queue does (see blockdev/striped.h), so running the same
// op trace against one device and against a striped volume with the same
// kill point must freeze the same logical image — recovery is required to
// be bit-identical (the differential check). "-o noflusher" keeps the
// trace free of timer-driven writeback, whose wake points depend on
// virtual time and hence on device speed.

class StripedTornCommit : public ::testing::TestWithParam<TornCase> {};

TEST_P(StripedTornCommit, EveryCrashPointRecoversConsistently) {
  // Default mount (flusher attached): every kill point must
  // still recover to a structurally consistent image.
  const auto [kill_point, seed] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  auto survivor = run_torn_trace(DevKind::Striped4, kill_point, seed, "");
  (void)recover_image(*survivor);  // asserts mount + fsck internally
}

INSTANTIATE_TEST_SUITE_P(CrashPointSweep, StripedTornCommit,
                         ::testing::ValuesIn(torn_cases()),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.kill_after) +
                                  "_s" + std::to_string(info.param.seed);
                         });

class TornDifferential : public ::testing::TestWithParam<TornCase> {};

TEST_P(TornDifferential, StripedRecoveryBitIdenticalToSingleDevice) {
  const auto [kill_point, seed] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);

  auto single = run_torn_trace(DevKind::Plain, kill_point, seed,
                               "noflusher");
  auto striped = run_torn_trace(DevKind::Striped4, kill_point, seed,
                                "noflusher");
  // The frozen images agree before recovery (same logical bios applied)…
  EXPECT_TRUE(images_equal(*single, *striped))
      << "surviving images diverged at kill_after=" << kill_point;
  // …and recovery lands both on the same consistent image.
  auto rec_single = recover_image(*single);
  auto rec_striped = recover_image(*striped);
  EXPECT_TRUE(images_equal(*rec_single, *rec_striped))
      << "recovered images diverged at kill_after=" << kill_point;
}

std::vector<TornCase> differential_cases() {
  std::vector<TornCase> cases;
  for (std::uint64_t k : {17ULL, 73ULL, 200ULL, 500ULL, 1200ULL}) {
    for (std::uint64_t seed : {11ULL, 12ULL}) cases.push_back({k, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CrashPointSweep, TornDifferential,
                         ::testing::ValuesIn(differential_cases()),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.kill_after) +
                                  "_s" + std::to_string(info.param.seed);
                         });

class StripedCrashConsistency : public ::testing::TestWithParam<CrashCase> {};

TEST_P(StripedCrashConsistency, RecoversToConsistentImage) {
  const auto [survive_p, seed] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  std::map<std::string, std::string> synced;
  auto survivor = run_survival_trace(DevKind::Striped4, survive_p, seed, "",
                                     synced);
  (void)recover_image(*survivor, synced);  // asserts recovery + fsck
}

INSTANTIATE_TEST_SUITE_P(SurvivalSweep, StripedCrashConsistency,
                         ::testing::ValuesIn(crash_cases()),
                         [](const auto& info) {
                           return "p" +
                                  std::to_string(static_cast<int>(
                                      info.param.survive_p * 100)) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

class SurvivalDifferential : public ::testing::TestWithParam<CrashCase> {};

TEST_P(SurvivalDifferential, StripedRecoveryBitIdenticalToSingleDevice) {
  // Only the layout-independent survival probabilities (lose-all /
  // keep-all) admit a bit-exact differential; fractional survival draws
  // per-block randomness in layout-dependent order.
  const auto [survive_p, seed] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);

  std::map<std::string, std::string> synced_a, synced_b;
  auto single = run_survival_trace(DevKind::Plain, survive_p, seed,
                                   "noflusher", synced_a);
  auto striped = run_survival_trace(DevKind::Striped4, survive_p, seed,
                                    "noflusher", synced_b);
  EXPECT_EQ(synced_a, synced_b);
  EXPECT_TRUE(images_equal(*single, *striped)) << "p=" << survive_p;
  auto rec_single = recover_image(*single);
  auto rec_striped = recover_image(*striped);
  EXPECT_TRUE(images_equal(*rec_single, *rec_striped)) << "p=" << survive_p;
}

std::vector<CrashCase> survival_differential_cases() {
  std::vector<CrashCase> cases;
  for (const double p : {0.0, 1.0}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
      cases.push_back({p, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SurvivalSweep, SurvivalDifferential,
                         ::testing::ValuesIn(survival_differential_cases()),
                         [](const auto& info) {
                           return "p" +
                                  std::to_string(static_cast<int>(
                                      info.param.survive_p * 100)) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

// ---- Pipelined commits (ISSUE 5): kill points landing BETWEEN
// overlapped transactions ----
//
// The pipelined-trace workload fsyncs only every third file, so group
// commit pools several operations per transaction and commits return
// with their transfers still in flight (commit N's record/checkpoint
// tickets outstanding while N+1 fills). Pipelining is a pure
// timing/overlap change: every write is still SUBMITTED in the same
// program order (media effects land at submission), so for any kill
// point the surviving image — and therefore recovery — must be
// bit-identical to the unpipelined oracle ("-o nopipeline"), on plain,
// striped, and mirrored mounts alike, and on both xv6 commit paths: the
// Bento port (xv6_strict) and the C baseline (xv6_vfs), which stage
// their commits through the same journal engine.

/// The mounted xv6 journal's pipeline: commits so far that returned
/// with their transfers in flight, and commits in flight now.
struct PipelineState {
  std::uint64_t pipelined_commits = 0;
  std::size_t inflight = 0;
};

PipelineState pipeline_state(kern::SuperBlock& sb) {
  if (sb.fs_name == "xv6_vfs") {
    const auto* mnt = sb.fs<xv6c::Xv6cMount>();
    return {mnt->log_stats().pipelined_commits, mnt->inflight_commits()};
  }
  const auto& fs = static_cast<const xv6::Xv6FileSystem&>(
      bento::BentoModule::from(sb)->fs());
  return {fs.log_stats().pipelined_commits, fs.log().inflight_commits()};
}

/// Run the mixed fsync-density trace (or, with `burst`, a burst of
/// namespace ops and no fsync) on an `fs` mount with the device set to
/// die after `kill_point` write commands; return the surviving logical
/// image. The mixed trace's crash keeps no unflushed write; the burst
/// has no fsync, so its crash keeps every write issued before the kill,
/// and the image then shows exactly what the commits wrote and in what
/// order. `obs` (optional) lets the sweep prove that commits overlapped.
std::unique_ptr<blk::BlockDevice> run_pipelined_trace(
    const char* fs, DevKind kind, std::uint64_t kill_point,
    std::uint64_t seed, std::string_view opts, PipelineObs* obs = nullptr,
    bool burst = false) {
  kern::Kernel kernel;
  auto& dev = add_test_device(kernel, kind);
  xv6::mkfs(dev, /*ninodes=*/512);
  wl::register_deployments(kernel);
  register_strict(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount(fs, "ssd0", "/mnt", opts));
  dev.enable_crash_tracking();
  dev.kill_after(kill_point);
  kern::SuperBlock& sb = *kernel.sb_at("/mnt");
  std::size_t peak = 0;
  auto sample = [&] {
    peak = std::max(peak, pipeline_state(sb).inflight);
  };

  auto& p = kernel.proc();
  sim::Rng rng(seed);
  (void)kernel.mkdir(p, "/mnt/dir");
  if (burst) {
    // A burst of creates and unlinks with no fsync: every 8 operations
    // (the mounts ask for max_log_batch=8) close a group commit, and
    // nothing drains the pipeline, so it fills to its depth and stays
    // full until the crash.
    for (int i = 0; i < 96; ++i) {
      auto fd = kernel.open(p, "/mnt/dir/b" + std::to_string(i),
                            kern::kOCreat | kern::kORdWr);
      if (!fd.ok()) break;
      (void)kernel.close(p, fd.value());
      if (i >= 4 && rng.chance(0.3)) {
        (void)kernel.unlink(p, "/mnt/dir/b" + std::to_string(i - 4));
      }
      sample();
    }
  } else {
    for (int i = 0; i < 15; ++i) {
      const std::string path = "/mnt/dir/f" + std::to_string(i);
      auto fd = kernel.open(p, path, kern::kOCreat | kern::kORdWr);
      if (!fd.ok()) break;
      sample();
      std::string data(rng.range(100, 30000), 'y');
      (void)kernel.write(p, fd.value(), as_bytes(data));
      sample();
      // Only every third file forces a commit: in between, ops pool into
      // the running transaction and threshold commits go out pipelined.
      if (i % 3 == 2) (void)kernel.fsync(p, fd.value());
      (void)kernel.close(p, fd.value());
      sample();
      if (i >= 2 && rng.chance(0.4)) {
        (void)kernel.unlink(p, "/mnt/dir/f" + std::to_string(i - 2));
        sample();
      }
    }
  }
  if (obs != nullptr) {
    obs->pipelined_commits = pipeline_state(sb).pipelined_commits;
    obs->peak_inflight = peak;
  }
  sim::Rng crash_rng(seed + 77);
  dev.crash(/*survive_p=*/burst ? 1.0 : 0.0, crash_rng);
  return copy_device(dev);
}

struct PipelinedCase {
  const char* fs;
  DevKind kind;
  std::uint64_t kill_after;
  std::uint64_t seed;
  bool burst = false;
};

class PipelinedTornDifferential
    : public ::testing::TestWithParam<PipelinedCase> {};

TEST_P(PipelinedTornDifferential, RecoveryBitIdenticalToUnpipelinedOracle) {
  const auto [fs, kind, kill_point, seed, burst] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);

  // "-o noflusher" keeps writeback a pure function of the op trace (the
  // pipelined run and the oracle have different virtual-time behaviour,
  // which must not be allowed to move timer-driven wakes).
  // Both traces commit on an explicit 8-op cadence. A transaction sized
  // by log space alone would hold the whole burst, and on xv6_vfs the
  // mixed trace would commit only at its fsyncs, each of which drains
  // the pipeline, so no commit would overlap the next.
  PipelineObs obs;
  const std::string opts = "noflusher,max_log_batch=8";
  auto piped =
      run_pipelined_trace(fs, kind, kill_point, seed, opts, &obs, burst);
  auto oracle = run_pipelined_trace(fs, kind, kill_point, seed,
                                    opts + ",nopipeline", nullptr, burst);
  EXPECT_GT(obs.pipelined_commits, 0u) << "trace never overlapped commits";
  if (burst) {
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

std::vector<PipelinedCase> pipelined_cases() {
  std::vector<PipelinedCase> cases;
  // Kill points spread so several land inside the overlap window of one
  // commit while the next transaction is filling (the trace issues
  // ~1500+ write commands; commits happen every ~3 files).
  for (const char* fs : {"xv6_strict", "xv6_vfs"}) {
    for (const DevKind kind :
         {DevKind::Plain, DevKind::Striped4, DevKind::Mirror2}) {
      for (std::uint64_t k : {9ULL, 47ULL, 150ULL, 430ULL, 900ULL}) {
        cases.push_back({fs, kind, k, 21ULL});
      }
      cases.push_back({fs, kind, 260ULL, 22ULL});
      // The burst trace first fills the pipeline at write command 52 and
      // keeps it full until it ends at write command 124 (98 on xv6_vfs,
      // whose burst commits fewer times): k50 lands as the last commit
      // that fills it goes out, the others while it is full.
      const bool vfs = std::string_view(fs) == "xv6_vfs";
      for (std::uint64_t k : {50ULL, 60ULL, 72ULL, 86ULL, vfs ? 96ULL : 120ULL}) {
        cases.push_back({fs, kind, k, 23ULL, /*burst=*/true});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CrashPointSweep, PipelinedTornDifferential,
                         ::testing::ValuesIn(pipelined_cases()),
                         [](const auto& info) {
                           const char* kind =
                               info.param.kind == DevKind::Plain ? "plain"
                               : info.param.kind == DevKind::Striped4
                                   ? "striped4"
                                   : "mirror2";
                           return std::string(info.param.fs) + "_" + kind +
                                  "_k" +
                                  std::to_string(info.param.kill_after) +
                                  "_s" + std::to_string(info.param.seed) +
                                  (info.param.burst ? "_burst" : "");
                         });

TEST(PipelinedTornConsistency, DefaultMountRecoversAtEveryKillPoint) {
  // Default mounts (flushers attached, pipelining + group commit on):
  // every kill point must still recover to an fsck-clean image.
  for (const std::uint64_t k : {23ULL, 88ULL, 260ULL, 700ULL}) {
    sim::SimThread thread(0);
    sim::ScopedThread in(thread);
    auto survivor =
        run_pipelined_trace("xv6_strict", DevKind::Striped4, k, 21, "");
    (void)recover_image(*survivor);  // asserts mount + fsck internally
  }
}

// ---- Journal abort, then power loss (ISSUE 10) ----
//
// A sticky write error in the journal area makes the doomed file's commit
// fail at stage 1 — before the commit record is issued — so the journal
// aborts and the mount flips read-only. Nothing of the aborted
// transaction (or of the failed post-abort operations) may reach durable
// media: crashing AFTER the abort and recovering must land bit-identical
// to an oracle run of the same trace truncated just before the doomed
// file. Swept across plain, 4-way striped, and 4+1 parity volumes.

/// Run `abort_at` healthy fsync'd files; then, unless `oracle`, poison
/// the journal and attempt three more files (they must fail), crash with
/// total cache loss, and return the surviving logical image.
std::unique_ptr<blk::BlockDevice> run_abort_trace(DevKind kind, int abort_at,
                                                  bool oracle,
                                                  std::uint64_t seed) {
  kern::Kernel kernel;
  auto& dev = add_test_device(kernel, kind);
  const auto dsb = xv6::mkfs(dev, /*ninodes=*/512);
  register_strict(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount("xv6_strict", "ssd0", "/mnt", "noflusher"));
  dev.enable_crash_tracking();

  auto& p = kernel.proc();
  sim::Rng rng(seed);
  (void)kernel.mkdir(p, "/mnt/dir");
  int failed_ops = 0;
  for (int i = 0; i < abort_at + 3; ++i) {
    if (i == abort_at) {
      if (oracle) break;
      // Journal poisoned: the NEXT commit's log-run write fails.
      dev.inject_write_error(dsb.logstart + 1);
    }
    const std::string path = "/mnt/dir/f" + std::to_string(i);
    auto fd = kernel.open(p, path, kern::kOCreat | kern::kORdWr);
    if (!fd.ok()) {
      failed_ops += 1;  // post-abort: EROFS
      continue;
    }
    std::string data(rng.range(100, 30000), 'q');
    (void)kernel.write(p, fd.value(), as_bytes(data));
    if (kernel.fsync(p, fd.value()) != Err::Ok) failed_ops += 1;
    (void)kernel.close(p, fd.value());
  }
  if (!oracle) {
    EXPECT_GE(failed_ops, 3) << "journal poison never bit";
    kern::SuperBlock* sb = kernel.sb_at("/mnt");
    EXPECT_TRUE(sb->read_only());
    auto* module = bento::BentoModule::from(*sb);
    EXPECT_EQ(static_cast<const xv6::Xv6FileSystem&>(module->fs())
                  .log_stats()
                  .log_aborted,
              1u);
  }
  sim::Rng crash_rng(seed + 55);
  dev.crash(/*survive_p=*/0.0, crash_rng);
  return copy_device(dev);
}

struct AbortCase {
  DevKind kind;
  int abort_at;
  std::uint64_t seed;
};

class AbortThenCrashDifferential
    : public ::testing::TestWithParam<AbortCase> {};

TEST_P(AbortThenCrashDifferential, RecoversToThePreAbortImage) {
  const auto [kind, abort_at, seed] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);

  auto aborted = run_abort_trace(kind, abort_at, /*oracle=*/false, seed);
  auto oracle = run_abort_trace(kind, abort_at, /*oracle=*/true, seed);
  // The aborted transaction never committed, so the surviving images
  // agree before recovery…
  EXPECT_TRUE(images_equal(*aborted, *oracle))
      << "aborted run leaked uncommitted state (abort_at=" << abort_at
      << ")";
  // …and recovery (which must find an empty header: the commit record
  // was never issued) lands both on the same consistent image.
  auto rec_aborted = recover_image(*aborted);
  auto rec_oracle = recover_image(*oracle);
  EXPECT_TRUE(images_equal(*rec_aborted, *rec_oracle))
      << "recovered images diverged (abort_at=" << abort_at << ")";
}

std::vector<AbortCase> abort_cases() {
  std::vector<AbortCase> cases;
  for (const DevKind kind :
       {DevKind::Plain, DevKind::Striped4, DevKind::Parity4}) {
    for (const int at : {1, 4, 8}) cases.push_back({kind, at, 31ULL});
    cases.push_back({kind, 4, 32ULL});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AbortSweep, AbortThenCrashDifferential,
                         ::testing::ValuesIn(abort_cases()),
                         [](const auto& info) {
                           const char* kind =
                               info.param.kind == DevKind::Plain ? "plain"
                               : info.param.kind == DevKind::Striped4
                                   ? "striped4"
                                   : "parity4";
                           return std::string(kind) + "_a" +
                                  std::to_string(info.param.abort_at) + "_s" +
                                  std::to_string(info.param.seed);
                         });

// ---- Mirrored volumes: the same sweeps on a 2-way RAID1 mirror ----
//
// The mirror's kill_after counts LOGICAL write bios exactly like the
// single-device queue and the striped volume (blockdev/mirrored.h), so
// the torn-commit sweep and its differential carry over unchanged.

class MirroredTornCommit : public ::testing::TestWithParam<TornCase> {};

TEST_P(MirroredTornCommit, EveryCrashPointRecoversConsistently) {
  // Default mount (flusher attached): every kill point must recover.
  const auto [kill_point, seed] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  auto survivor = run_torn_trace(DevKind::Mirror2, kill_point, seed, "");
  (void)recover_image(*survivor);  // asserts mount + fsck internally
}

INSTANTIATE_TEST_SUITE_P(CrashPointSweep, MirroredTornCommit,
                         ::testing::ValuesIn(torn_cases()),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.kill_after) +
                                  "_s" + std::to_string(info.param.seed);
                         });

class MirroredTornDifferential : public ::testing::TestWithParam<TornCase> {};

TEST_P(MirroredTornDifferential, RecoveryBitIdenticalToSingleDevice) {
  const auto [kill_point, seed] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);

  auto single = run_torn_trace(DevKind::Plain, kill_point, seed, "noflusher");
  auto mirrored =
      run_torn_trace(DevKind::Mirror2, kill_point, seed, "noflusher");
  EXPECT_TRUE(images_equal(*single, *mirrored))
      << "surviving images diverged at kill_after=" << kill_point;
  auto rec_single = recover_image(*single);
  auto rec_mirrored = recover_image(*mirrored);
  EXPECT_TRUE(images_equal(*rec_single, *rec_mirrored))
      << "recovered images diverged at kill_after=" << kill_point;
}

INSTANTIATE_TEST_SUITE_P(CrashPointSweep, MirroredTornDifferential,
                         ::testing::ValuesIn(differential_cases()),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.kill_after) +
                                  "_s" + std::to_string(info.param.seed);
                         });

// ---- Member loss mid-sweep: the failure mode only redundant volumes
// survive. A 2-way mirror fail-stops member 1 after `fail_at` files of
// the torn-trace workload and keeps serving; the surviving logical image
// must be bit-identical to a single-device run of the same op trace, and
// an online rebuild afterwards must leave the members bit-identical. ----

struct LossCase {
  int fail_at;         // file index at which member 1 fail-stops
  bool rebuild;        // resync the member after the trace
  std::uint64_t seed;
};

/// Run the torn-trace op sequence (no crash) with an optional mid-sweep
/// member failure + post-trace rebuild; return the final logical image.
std::unique_ptr<blk::BlockDevice> run_loss_trace(DevKind kind, int fail_at,
                                                 bool rebuild,
                                                 std::uint64_t seed,
                                                 std::string_view opts) {
  kern::Kernel kernel;
  auto& dev = add_test_device(kernel, kind);
  auto* mirror = kind == DevKind::Mirror2
                     ? static_cast<blk::MirroredDevice*>(&dev)
                     : nullptr;
  xv6::mkfs(dev, /*ninodes=*/512);
  register_strict(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount("xv6_strict", "ssd0", "/mnt", opts));

  auto& p = kernel.proc();
  sim::Rng rng(seed);
  (void)kernel.mkdir(p, "/mnt/dir");
  for (int i = 0; i < 12; ++i) {
    if (mirror != nullptr && i == fail_at) mirror->fail_member(1);
    const std::string path = "/mnt/dir/f" + std::to_string(i);
    auto fd = kernel.open(p, path, kern::kOCreat | kern::kORdWr);
    if (!fd.ok()) break;
    std::string data(rng.range(100, 30000), 'z');
    (void)kernel.write(p, fd.value(), as_bytes(data));
    (void)kernel.fsync(p, fd.value());
    (void)kernel.close(p, fd.value());
    if (i >= 2 && rng.chance(0.5)) {
      (void)kernel.unlink(p, "/mnt/dir/f" + std::to_string(i - 2));
    }
  }
  EXPECT_EQ(Err::Ok, kernel.sync(p));
  if (mirror != nullptr && fail_at >= 0) {
    EXPECT_TRUE(mirror->degraded());
    EXPECT_GT(mirror->volume_stats().degraded_reads +
                  mirror->volume_stats().degraded_writes,
              0u);
    if (rebuild) {
      mirror->start_rebuild(1);
      mirror->finish_rebuild();
      EXPECT_FALSE(mirror->degraded());
      EXPECT_TRUE(mirror_members_identical(*mirror))
          << "rebuild left replicas diverged (seed " << seed << ")";
    }
  }
  return copy_device(dev);
}

class MirrorMemberLoss : public ::testing::TestWithParam<LossCase> {};

TEST_P(MirrorMemberLoss, DegradedServiceBitIdenticalToSingleDevice) {
  const auto [fail_at, rebuild, seed] = GetParam();
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);

  // "-o noflusher" keeps writeback order a pure function of the op trace
  // (the member loss changes virtual-time behaviour, not the ops).
  auto single =
      run_loss_trace(DevKind::Plain, /*fail_at=*/-1, false, seed, "noflusher");
  auto degraded =
      run_loss_trace(DevKind::Mirror2, fail_at, rebuild, seed, "noflusher");
  EXPECT_TRUE(images_equal(*single, *degraded))
      << "degraded image diverged (fail_at=" << fail_at << ")";
  // Both recover to the same consistent image (fsck asserted inside).
  auto rec_single = recover_image(*single);
  auto rec_degraded = recover_image(*degraded);
  EXPECT_TRUE(images_equal(*rec_single, *rec_degraded));
}

std::vector<LossCase> loss_cases() {
  std::vector<LossCase> cases;
  for (const int fail_at : {0, 3, 7, 11}) {
    for (std::uint64_t seed : {11ULL, 12ULL}) {
      cases.push_back({fail_at, /*rebuild=*/false, seed});
      cases.push_back({fail_at, /*rebuild=*/true, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(MemberLossSweep, MirrorMemberLoss,
                         ::testing::ValuesIn(loss_cases()),
                         [](const auto& info) {
                           return "f" + std::to_string(info.param.fail_at) +
                                  (info.param.rebuild ? "_rebuild" : "") +
                                  "_s" + std::to_string(info.param.seed);
                         });

// Degraded-mode + crash composition: the mirror loses a member mid-sweep
// AND the power dies later (default mount, flushers on) — recovery must
// still produce a consistent image from the surviving replica.

TEST(MirrorMemberLossThenCrash, RecoversFromTheSurvivor) {
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    for (const std::uint64_t kill_point : {40ULL, 200ULL, 800ULL}) {
      sim::SimThread thread(0);
      sim::ScopedThread in(thread);
      kern::Kernel kernel;
      auto& dev = add_test_device(kernel, DevKind::Mirror2);
      auto& mirror = static_cast<blk::MirroredDevice&>(dev);
      xv6::mkfs(dev, /*ninodes=*/512);
      register_strict(kernel);
      ASSERT_EQ(Err::Ok, kernel.mount("xv6_strict", "ssd0", "/mnt", ""));
      dev.enable_crash_tracking();
      dev.kill_after(kill_point);

      auto& p = kernel.proc();
      sim::Rng rng(seed);
      (void)kernel.mkdir(p, "/mnt/dir");
      for (int i = 0; i < 12; ++i) {
        if (i == 5) mirror.fail_member(1);
        const std::string path = "/mnt/dir/f" + std::to_string(i);
        auto fd = kernel.open(p, path, kern::kOCreat | kern::kORdWr);
        if (!fd.ok()) break;
        std::string data(rng.range(100, 30000), 'z');
        (void)kernel.write(p, fd.value(), as_bytes(data));
        (void)kernel.fsync(p, fd.value());
        (void)kernel.close(p, fd.value());
      }
      sim::Rng crash_rng(seed + 99);
      dev.crash(/*survive_p=*/0.0, crash_rng);
      auto survivor = copy_device(dev);
      (void)recover_image(*survivor);  // asserts mount + fsck
    }
  }
}

// ---- Inode-block initialisation under a torn commit ----
//
// A 512-inode image has 8 inode blocks, and mkfs initialises only the
// root's. With block 0 full (inodes 2..63 taken), the next create
// zero-fills block 1 and raises the superblock's count in one transaction.
// The device dies at each write of that transaction's commit, every
// earlier write surviving. Recovery must then leave an image on which more
// creates stay fsck-clean. A mount that kept the superblock it read before
// replay would take block 1 for uninitialised and zero a block that holds
// a live inode. The Bento port runs in both of its modes: Strict
// (xv6_strict, as in the sweeps above) and Relaxed (xv6_bento), whose
// header clear is its own batch after the install, so a device that dies
// partway through the install keeps the header.

constexpr int kBlock0Files = xv6::kInodesPerBlock - 2;  // inodes 2..63

/// Fill inode block 0 on a fresh `fs` mount and sync; then, with the
/// device dying after `kill_point` more writes, create and fsync
/// "/mnt/fresh". Returns the image the writes before the kill left.
std::unique_ptr<blk::BlockDevice> run_init_trace(const char* fs,
                                                 std::uint64_t kill_point) {
  kern::Kernel kernel;
  auto& dev = add_test_device(kernel, DevKind::Plain);
  xv6::mkfs(dev, /*ninodes=*/512);
  wl::register_deployments(kernel);
  register_strict(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount(fs, "ssd0", "/mnt"));
  auto& p = kernel.proc();
  for (int i = 0; i < kBlock0Files; ++i) {
    auto fd = kernel.open(p, "/mnt/f" + std::to_string(i),
                          kern::kOCreat | kern::kOWrOnly);
    EXPECT_TRUE(fd.ok()) << i;
    if (fd.ok()) EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  }
  EXPECT_EQ(Err::Ok, kernel.sync(p));
  EXPECT_EQ(1u, xv6::read_superblock(dev).ninitblocks);

  dev.enable_crash_tracking();
  dev.kill_after(kill_point);
  auto fd = kernel.open(p, "/mnt/fresh", kern::kOCreat | kern::kOWrOnly);
  EXPECT_TRUE(fd.ok());
  if (fd.ok()) {
    (void)kernel.fsync(p, fd.value());
    (void)kernel.close(p, fd.value());
  }
  sim::Rng crash_rng(kill_point + 7);
  dev.crash(/*survive_p=*/1.0, crash_rng);
  return copy_device(dev);
}

/// Mount the survivor with `fs` (recovery runs), check block 0's files,
/// create 70 more (into inode blocks 1 and 2), unmount and fsck. Returns
/// whether "/mnt/fresh" survived the crash.
bool recover_and_grow(const char* fs, blk::BlockDevice& survivor) {
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
  register_strict(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount(fs, "ssd0", "/mnt"));
  auto& p = kernel.proc();
  for (int i = 0; i < kBlock0Files; ++i) {
    EXPECT_TRUE(kernel.stat(p, "/mnt/f" + std::to_string(i)).ok()) << i;
  }
  const bool fresh = kernel.stat(p, "/mnt/fresh").ok();
  for (int i = 0; i < 70; ++i) {
    auto fd = kernel.open(p, "/mnt/g" + std::to_string(i),
                          kern::kOCreat | kern::kOWrOnly);
    EXPECT_TRUE(fd.ok()) << i;
    if (fd.ok()) EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  }
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
  const auto report = xv6::fsck(dev);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.files, kBlock0Files + 70u + (fresh ? 1 : 0));
  EXPECT_EQ(3u, xv6::read_superblock(dev).ninitblocks);
  return fresh;
}

class InodeBlockInitCrash : public ::testing::TestWithParam<const char*> {};

TEST_P(InodeBlockInitCrash, EveryKillPointRecoversAndGrowsClean) {
  // Kill points from before the commit's first write to past its last:
  // the sweep must see the create both lost and kept.
  int kept = 0;
  int lost = 0;
  for (std::uint64_t k = 0; k <= 24; ++k) {
    sim::SimThread thread(0);
    sim::ScopedThread in(thread);
    auto survivor = run_init_trace(GetParam(), k);
    (recover_and_grow(GetParam(), *survivor) ? kept : lost) += 1;
    if (HasFailure()) {
      ADD_FAILURE() << "kill_after=" << k;
      return;
    }
  }
  EXPECT_GT(kept, 0);
  EXPECT_GT(lost, 0);
}

INSTANTIATE_TEST_SUITE_P(KernelXv6, InodeBlockInitCrash,
                         ::testing::Values("xv6_strict", "xv6_bento",
                                           "xv6_vfs"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace bsim::test
