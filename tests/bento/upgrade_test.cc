// Tests for the online-upgrade component (§4.8): state transfer between
// file-system versions without unmounting, fallback to cold init, and
// failure containment (a failed upgrade leaves the old version running).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../testutil.h"
#include "bento/provenance.h"
#include "xv6fs/fsck.h"

namespace bsim::test {
namespace {

using kern::Err;

class UpgradeTest : public BentoXv6Fixture {};

TEST_F(UpgradeTest, StateTransfersAndOperationsContinue) {
  // Build some state under v1.
  for (int i = 0; i < 20; ++i) {
    auto fd = kernel_.open(proc(), "/mnt/u" + std::to_string(i),
                           kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("version one")).ok());
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }
  auto before = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(before.ok());

  auto* sb = kernel_.sb_at("/mnt");
  ASSERT_NE(sb, nullptr);
  auto* module = bento::BentoModule::from(*sb);
  ASSERT_NE(module, nullptr);
  EXPECT_EQ(module->fs().version(), "xv6fs-v1");

  // Upgrade to v2 of the same file system.
  xv6::Xv6FileSystem::Options v2;
  v2.version = "xv6fs-v2";
  ASSERT_EQ(Err::Ok,
            module->upgrade(std::make_unique<xv6::Xv6FileSystem>(v2)));
  EXPECT_EQ(module->fs().version(), "xv6fs-v2");
  EXPECT_EQ(module->stats().upgrades, 1u);

  // The new instance took over via restore_state, not a cold mount.
  auto& fs2 = static_cast<xv6::Xv6FileSystem&>(module->fs());
  EXPECT_TRUE(fs2.restored_from_transfer());

  // Free-space accounting survived the transfer exactly.
  auto after = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().free_blocks, before.value().free_blocks);
  EXPECT_EQ(after.value().free_inodes, before.value().free_inodes);

  // Old files are readable, new operations work.
  auto fd = kernel_.open(proc(), "/mnt/u7", kern::kORdOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(32);
  auto r = kernel_.read(proc(), fd.value(), buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "version one");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  fd = kernel_.open(proc(), "/mnt/post-upgrade",
                    kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("v2 data")).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(UpgradeTest, OpenFilesSurviveUpgrade) {
  auto fd = kernel_.open(proc(), "/mnt/live",
                         kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("before ")).ok());

  auto* module = bento::BentoModule::from(*kernel_.sb_at("/mnt"));
  xv6::Xv6FileSystem::Options v2;
  v2.version = "xv6fs-v2";
  ASSERT_EQ(Err::Ok,
            module->upgrade(std::make_unique<xv6::Xv6FileSystem>(v2)));

  // The fd opened against v1 keeps working against v2 ("transparently to
  // applications, except for a small delay").
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("after")).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  std::vector<std::byte> buf(32);
  auto r = kernel_.pread(proc(), fd.value(), buf, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "before after");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(UpgradeTest, SuccessorAllocatesTheInodeFreedBeforeTheUpgrade) {
  // ialloc's cursor moves with the state: the successor hands out the
  // lowest free inode, which v1 freed, and then resumes past the others.
  auto create = [&](const std::string& path) -> kern::Ino {
    auto fd = kernel_.open(proc(), path, kern::kOCreat | kern::kOWrOnly);
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) return 0;
    EXPECT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
    auto st = kernel_.stat(proc(), path);
    EXPECT_TRUE(st.ok());
    return st.ok() ? st.value().ino : 0;
  };
  std::vector<kern::Ino> inos;
  for (int i = 0; i < 10; ++i) {
    inos.push_back(create("/mnt/f" + std::to_string(i)));
  }
  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/f2"));

  auto* module = bento::BentoModule::from(*kernel_.sb_at("/mnt"));
  xv6::Xv6FileSystem::Options v2;
  v2.version = "xv6fs-v2";
  ASSERT_EQ(Err::Ok,
            module->upgrade(std::make_unique<xv6::Xv6FileSystem>(v2)));
  ASSERT_TRUE(
      static_cast<xv6::Xv6FileSystem&>(module->fs()).restored_from_transfer());

  EXPECT_EQ(create("/mnt/after"), inos[2]);
  EXPECT_EQ(create("/mnt/after2"), inos.back() + 1);

  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  auto report = xv6::fsck(*kernel_.device("ssd0"));
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST_F(UpgradeTest, SuccessorAllocatesWhatARunWithoutTheUpgradeAllocates) {
  // balloc's per-bitmap-block cursors and ialloc's cursor move with the
  // state. Frees before the swap open holes below both; the successor must
  // fill them as v1 would have, so the image after the same script equals
  // that of a run that never upgraded.
  const std::vector<std::byte> page(blk::kBlockSize, std::byte{0x6B});
  auto script = [&](kern::Kernel& k, bool upgrade) {
    auto write_file = [&](const std::string& path, int blocks) {
      auto fd = k.open(k.proc(), path, kern::kOCreat | kern::kOWrOnly);
      ASSERT_TRUE(fd.ok()) << path;
      for (int b = 0; b < blocks; ++b) {
        ASSERT_TRUE(k.write(k.proc(), fd.value(), page).ok()) << path;
      }
      ASSERT_EQ(Err::Ok, k.close(k.proc(), fd.value()));
    };
    for (int i = 0; i < 12; ++i) write_file("/mnt/f" + std::to_string(i), i % 5 + 1);
    for (int i : {2, 5, 7}) {
      ASSERT_EQ(Err::Ok, k.unlink(k.proc(), "/mnt/f" + std::to_string(i)));
    }
    ASSERT_EQ(Err::Ok, k.sync(k.proc()));
    if (upgrade) {
      auto* module = bento::BentoModule::from(*k.sb_at("/mnt"));
      xv6::Xv6FileSystem::Options v2;
      v2.version = "xv6fs-v2";
      ASSERT_EQ(Err::Ok,
                module->upgrade(std::make_unique<xv6::Xv6FileSystem>(v2)));
      ASSERT_TRUE(static_cast<xv6::Xv6FileSystem&>(module->fs())
                      .restored_from_transfer());
    }
    for (int i = 0; i < 6; ++i) write_file("/mnt/g" + std::to_string(i), 4 - i % 4);
    ASSERT_EQ(Err::Ok, k.umount("/mnt"));
  };

  script(kernel_, /*upgrade=*/true);
  ASSERT_FALSE(HasFatalFailure());
  kern::Kernel plain;
  blk::DeviceParams params;
  params.nblocks = kernel_.device("ssd0")->nblocks();
  xv6::mkfs(plain.add_device("ssd0", params), /*ninodes=*/4096);
  wl::register_deployments(plain);
  ASSERT_EQ(Err::Ok, plain.mount("xv6_bento", "ssd0", "/mnt"));
  script(plain, /*upgrade=*/false);
  ASSERT_FALSE(HasFatalFailure());

  EXPECT_TRUE(images_equal(*kernel_.device("ssd0"), *plain.device("ssd0")));
  auto report = xv6::fsck(*kernel_.device("ssd0"));
  EXPECT_TRUE(report.ok) << report.summary();
}

/// A file system with no transfer support: upgrade falls back to init().
class NoTransferFs final : public xv6::Xv6FileSystem {
 public:
  kern::Err restore_state(const bento::Request&, bento::SbRef,
                          bento::TransferableState) override {
    return kern::Err::NoSys;
  }
};

TEST_F(UpgradeTest, FallsBackToColdInit) {
  auto fd = kernel_.open(proc(), "/mnt/cold", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("x")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  auto* module = bento::BentoModule::from(*kernel_.sb_at("/mnt"));
  ASSERT_EQ(Err::Ok, module->upgrade(std::make_unique<NoTransferFs>()));
  // Cold-attached: state rebuilt from disk, data still visible.
  auto st = kernel_.stat(proc(), "/mnt/cold");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 1u);
}

TEST_F(UpgradeTest, InitialisedInodeBlockCountSurvivesWarmAndColdUpgrades) {
  // Inode 63 is the last of inode block 0, the one mkfs initialised. A
  // warm transfer between its create and inode 64's leaves the successor
  // to initialise block 1; a second one right after must keep the raised
  // count, or its next create would zero block 1 under inode 64. A cold
  // attach then reads the count back from the superblock.
  auto* module = bento::BentoModule::from(*kernel_.sb_at("/mnt"));
  auto create = [&](const std::string& path) -> kern::Ino {
    auto fd = kernel_.open(proc(), path, kern::kOCreat | kern::kOWrOnly);
    EXPECT_TRUE(fd.ok()) << path;
    if (!fd.ok()) return 0;
    EXPECT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
    auto st = kernel_.stat(proc(), path);
    EXPECT_TRUE(st.ok()) << path;
    return st.ok() ? st.value().ino : 0;
  };
  auto warm_upgrade = [&] {
    ASSERT_EQ(Err::Ok,
              module->upgrade(std::make_unique<xv6::Xv6FileSystem>()));
    ASSERT_TRUE(static_cast<xv6::Xv6FileSystem&>(module->fs())
                    .restored_from_transfer());
  };
  auto ninitblocks = [&] {
    EXPECT_EQ(Err::Ok, kernel_.sync(proc()));
    return xv6::read_superblock(*kernel_.device("ssd0")).ninitblocks;
  };
  for (int i = 2; i < 63; ++i) create("/mnt/f" + std::to_string(i));
  EXPECT_EQ(create("/mnt/last0"), 63u);
  EXPECT_EQ(ninitblocks(), 1u);

  warm_upgrade();
  EXPECT_EQ(create("/mnt/first1"), 64u);
  EXPECT_EQ(ninitblocks(), 2u);
  const auto free_before = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(free_before.ok());

  warm_upgrade();
  auto free_after = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(free_after.ok());
  EXPECT_EQ(free_after.value().free_inodes, free_before.value().free_inodes);
  EXPECT_EQ(create("/mnt/second1"), 65u);
  EXPECT_TRUE(kernel_.stat(proc(), "/mnt/first1").ok());

  ASSERT_EQ(Err::Ok, module->upgrade(std::make_unique<NoTransferFs>()));
  ASSERT_FALSE(static_cast<xv6::Xv6FileSystem&>(module->fs())
                   .restored_from_transfer());
  free_after = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(free_after.ok());
  EXPECT_EQ(free_after.value().free_inodes,
            free_before.value().free_inodes - 1);
  EXPECT_EQ(create("/mnt/cold1"), 66u);
  EXPECT_EQ(ninitblocks(), 2u);
  for (int i = 67; i < 129; ++i) create("/mnt/g" + std::to_string(i));
  EXPECT_EQ(ninitblocks(), 3u);  // inode 128 opened block 2

  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  auto report = xv6::fsck(*kernel_.device("ssd0"));
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.files, 127u);  // inodes 2..128
}

TEST_F(UpgradeTest, ColdInitSuccessorKeepsTheMountOptions) {
  // The module delivers the mount's options to every instance it runs:
  // a successor that cold-attaches still commits once per op on a
  // "nogroup" mount, instead of falling back to the default (no op cap).
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount("xv6_bento", "ssd0", "/mnt", "nogroup"));
  auto* module = bento::BentoModule::from(*kernel_.sb_at("/mnt"));
  auto commits = [&] {
    return static_cast<xv6::Xv6FileSystem&>(module->fs()).log().stats().commits;
  };
  auto create = [&](const std::string& path) {
    auto fd = kernel_.open(proc(), path, kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  };

  std::uint64_t before = commits();
  create("/mnt/pre");
  EXPECT_EQ(commits(), before + 1);

  ASSERT_EQ(Err::Ok, module->upgrade(std::make_unique<NoTransferFs>()));
  before = commits();
  create("/mnt/post");
  EXPECT_EQ(commits(), before + 1);
}

/// A successor whose restore fails outright.
class BrokenFs final : public bento::FileSystem {
 public:
  kern::Err init(const bento::Request&, bento::SbRef) override {
    return kern::Err::Io;
  }
  kern::Err restore_state(const bento::Request&, bento::SbRef,
                          bento::TransferableState) override {
    return kern::Err::Io;
  }
};

TEST_F(UpgradeTest, FailedUpgradeKeepsOldVersionRunning) {
  auto* module = bento::BentoModule::from(*kernel_.sb_at("/mnt"));
  EXPECT_EQ(module->upgrade(std::make_unique<BrokenFs>()), Err::Io);
  EXPECT_EQ(module->fs().version(), "xv6fs-v1");
  EXPECT_EQ(module->stats().upgrades, 0u);

  // Still fully operational.
  auto fd = kernel_.open(proc(), "/mnt/still-alive",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(UpgradeTest, RepeatedUpgradesChainState) {
  for (int gen = 2; gen <= 5; ++gen) {
    auto fd = kernel_.open(proc(), "/mnt/gen" + std::to_string(gen),
                           kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

    auto* module = bento::BentoModule::from(*kernel_.sb_at("/mnt"));
    xv6::Xv6FileSystem::Options v;
    v.version = "xv6fs-v" + std::to_string(gen);
    ASSERT_EQ(Err::Ok,
              module->upgrade(std::make_unique<xv6::Xv6FileSystem>(v)));
    EXPECT_EQ(module->fs().version(), "xv6fs-v" + std::to_string(gen));
  }
  for (int gen = 2; gen <= 5; ++gen) {
    EXPECT_TRUE(kernel_.stat(proc(), "/mnt/gen" + std::to_string(gen)).ok());
  }
  EXPECT_EQ(bento::BentoModule::from(*kernel_.sb_at("/mnt"))->stats().upgrades,
            4u);
}

TEST_F(UpgradeTest, StackedUpgradeKeepsWhatTheOldStackHadNotSynced) {
  // A stacked mount hands over its whole stack: the old NvmLogFs syncs
  // (digest, then xv6's pending group commit) before xv6's state moves to
  // the successor. Without it the create below never reaches the disk.
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok,
            kernel_.mount("xv6_nvmlog", "ssd0", "/mnt", "noflusher"));
  auto fd = kernel_.open(proc(), "/mnt/a", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      kernel_.write(proc(), fd.value(), as_bytes("twenty bytes of data")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  auto* module = bento::BentoModule::from(*kernel_.sb_at("/mnt"));
  ASSERT_EQ(Err::Ok, module->upgrade(std::make_unique<bento::NvmLogFs>(
                         std::make_unique<xv6::Xv6FileSystem>(),
                         std::make_shared<blk::NvmRegion>(blk::NvmParams{}))));
  EXPECT_TRUE(static_cast<xv6::Xv6FileSystem&>(
                  static_cast<bento::NvmLogFs&>(module->fs()).lower())
                  .restored_from_transfer());

  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount("xv6_nvmlog", "ssd0", "/mnt"));
  fd = kernel_.open(proc(), "/mnt/a", kern::kORdOnly);
  ASSERT_TRUE(fd.ok()) << kern::err_name(fd.error());
  std::vector<std::byte> buf(32);
  auto r = kernel_.read(proc(), fd.value(), buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "twenty bytes of data");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(UpgradeTest, RunningMountGainsProvenanceTrackingAndLosesIt) {
  // The paper's headline upgrade: provenance tracking added to a running
  // file system, over the same capability, with a file held open.
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount("xv6_bento", "ssd0", "/mnt", "nogroup"));
  auto* module = bento::BentoModule::from(*kernel_.sb_at("/mnt"));
  auto fd = kernel_.open(proc(), "/mnt/report", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("before ")).ok());

  auto prov = std::make_unique<bento::ProvenanceFs>(
      std::make_unique<xv6::Xv6FileSystem>());
  auto* pfs = prov.get();
  const sim::Nanos t0 = sim::now();
  ASSERT_EQ(Err::Ok, module->upgrade(std::move(prov)));
  std::printf("upgrade to provenance tracking: %.1f us virtual interruption\n",
              static_cast<double>(sim::now() - t0) / sim::kMicrosecond);
  EXPECT_EQ(module->fs().version(), "provenance-v1");
  auto& xv6 = static_cast<xv6::Xv6FileSystem&>(pfs->lower());
  EXPECT_TRUE(xv6.restored_from_transfer());

  // The fd opened before the upgrade keeps working, and what it writes
  // now is tracked.
  const auto tracked = pfs->store().tracked_files();
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("after")).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  EXPECT_GT(pfs->store().tracked_files(), tracked);
  std::vector<std::byte> buf(32);
  auto r = kernel_.pread(proc(), fd.value(), buf, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "before after");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  // The mount's options reached the stacked xv6: one create, one commit.
  const auto commits = xv6.log().stats().commits;
  auto made = kernel_.open(proc(), "/mnt/post", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(made.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), made.value()));
  EXPECT_EQ(xv6.log().stats().commits, commits + 1);

  // Back to plain xv6: the data stays.
  ASSERT_EQ(Err::Ok, module->upgrade(std::make_unique<xv6::Xv6FileSystem>()));
  EXPECT_EQ(module->fs().version(), "xv6fs-v1");
  fd = kernel_.open(proc(), "/mnt/report", kern::kORdOnly);
  ASSERT_TRUE(fd.ok());
  r = kernel_.read(proc(), fd.value(), buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "before after");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_TRUE(kernel_.stat(proc(), "/mnt/post").ok());
}

}  // namespace
}  // namespace bsim::test
