// Integration tests: the full stack — syscalls -> VFS -> interposition
// layer -> xv6 file system -> block backend -> device — behaving like
// POSIX. Parameterized over all three deployments of the same file system
// (paper §6.2): kernel Bento, the VFS C baseline, and FUSE userspace.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "../testutil.h"
#include "sim/rng.h"
#include "xv6fs/fsck.h"

namespace bsim::test {
namespace {

using kern::Err;
using kern::FileType;

class PosixFsTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 32768;  // 128 MiB
    auto& dev = kernel_.add_device("ssd0", params);
    if (std::string_view(GetParam()) == "ext4j") {
      ext4::mkfs(dev, /*inodes_per_group=*/4096);
    } else {
      xv6::mkfs(dev, /*ninodes=*/4096);
    }
    wl::register_deployments(kernel_);
    ASSERT_EQ(kern::Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
  }

  kern::Process& proc() { return kernel_.proc(); }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
};

INSTANTIATE_TEST_SUITE_P(AllDeployments, PosixFsTest,
                         ::testing::Values("xv6_bento", "xv6_vfs",
                                           "xv6_fuse", "ext4j",
                                           "xv6_nvmlog"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(PosixFsTest, CreateWriteReadBack) {
  auto fd = kernel_.open(proc(), "/mnt/hello.txt",
                         kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  auto w = kernel_.write(proc(), fd.value(), as_bytes("hello, bento"));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value(), 12u);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  fd = kernel_.open(proc(), "/mnt/hello.txt", kern::kORdOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(64);
  auto r = kernel_.read(proc(), fd.value(), buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "hello, bento");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_P(PosixFsTest, OpenMissingFileFails) {
  auto fd = kernel_.open(proc(), "/mnt/nope", kern::kORdOnly);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.error(), Err::NoEnt);
}

TEST_P(PosixFsTest, OExclFailsOnExisting) {
  auto fd = kernel_.open(proc(), "/mnt/f", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  auto fd2 = kernel_.open(proc(), "/mnt/f",
                          kern::kOCreat | kern::kOExcl | kern::kOWrOnly);
  ASSERT_FALSE(fd2.ok());
  EXPECT_EQ(fd2.error(), Err::Exist);
}

// open(O_CREAT) walks to the parent once, then looks up and creates the
// last component there. The cases below pin what that one walk returns.

TEST_P(PosixFsTest, OCreatMakesANewNameInANestedDirectory) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/a"));
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/a/b"));
  auto fd = kernel_.open(proc(), "/mnt/a/b/new",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("fresh")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  auto st = kernel_.stat(proc(), "/mnt/a/b/new");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().type, FileType::Regular);
  EXPECT_EQ(st.value().size, 5u);
  EXPECT_EQ(st.value().nlink, 1u);
}

// O_CREAT with O_EXCL on an existing file: OExclFailsOnExisting above.
TEST_P(PosixFsTest, OCreatOpensAnExistingFile) {
  auto fd = kernel_.open(proc(), "/mnt/f", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("kept")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  const kern::Ino ino = kernel_.stat(proc(), "/mnt/f").value().ino;

  // The existing file opens, neither recreated nor truncated.
  fd = kernel_.open(proc(), "/mnt/f", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(16);
  auto r = kernel_.read(proc(), fd.value(), buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "kept");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_EQ(kernel_.stat(proc(), "/mnt/f").value().ino, ino);
}

TEST_P(PosixFsTest, OCreatOnAnExistingDirectory) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/d"));
  auto wr = kernel_.open(proc(), "/mnt/d", kern::kOCreat | kern::kOWrOnly);
  ASSERT_FALSE(wr.ok());
  EXPECT_EQ(wr.error(), Err::IsDir);
  auto excl = kernel_.open(proc(), "/mnt/d",
                           kern::kOCreat | kern::kOExcl | kern::kORdOnly);
  ASSERT_FALSE(excl.ok());
  EXPECT_EQ(excl.error(), Err::Exist);
  auto rd = kernel_.open(proc(), "/mnt/d", kern::kOCreat | kern::kORdOnly);
  ASSERT_TRUE(rd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), rd.value()));
  EXPECT_EQ(kernel_.stat(proc(), "/mnt/d").value().type, FileType::Directory);
}

TEST_P(PosixFsTest, OCreatOnTheMountPointOpensItsRoot) {
  // The mount point has no parent to create under: it exists, so it opens
  // as any existing directory does.
  auto rd = kernel_.open(proc(), "/mnt", kern::kOCreat | kern::kORdOnly);
  ASSERT_TRUE(rd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), rd.value()));
  auto wr = kernel_.open(proc(), "/mnt", kern::kOCreat | kern::kOWrOnly);
  ASSERT_FALSE(wr.ok());
  EXPECT_EQ(wr.error(), Err::IsDir);
  auto excl = kernel_.open(proc(), "/mnt/",
                           kern::kOCreat | kern::kOExcl | kern::kORdOnly);
  ASSERT_FALSE(excl.ok());
  EXPECT_EQ(excl.error(), Err::Exist);
}

TEST_P(PosixFsTest, OCreatUnderAMissingParentFails) {
  auto fd = kernel_.open(proc(), "/mnt/nodir/f",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.error(), Err::NoEnt);
  EXPECT_EQ(kernel_.stat(proc(), "/mnt/nodir").error(), Err::NoEnt);
}

TEST_P(PosixFsTest, OCreatUnderARegularFileFails) {
  auto fd = kernel_.open(proc(), "/mnt/file", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  auto under = kernel_.open(proc(), "/mnt/file/x",
                            kern::kOCreat | kern::kOWrOnly);
  ASSERT_FALSE(under.ok());
  EXPECT_EQ(under.error(), Err::NotDir);
}

TEST_P(PosixFsTest, OCreatWithAnOverlongNameFails) {
  const std::string name(kern::kNameMax + 1, 'n');
  auto fd = kernel_.open(proc(), "/mnt/" + name,
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.error(), Err::NameTooLong);
  auto entries = kernel_.readdir(proc(), "/mnt");
  ASSERT_TRUE(entries.ok());
  for (const auto& e : entries.value()) EXPECT_NE(e.name, name);
}

TEST_P(PosixFsTest, StatReportsSizeAndType) {
  auto fd = kernel_.open(proc(), "/mnt/s", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> data(10000, std::byte{1});
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), data).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  auto st = kernel_.stat(proc(), "/mnt/s");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 10000u);
  EXPECT_EQ(st.value().type, FileType::Regular);
  EXPECT_EQ(st.value().nlink, 1u);
}

TEST_P(PosixFsTest, AppendFlag) {
  auto fd = kernel_.open(proc(), "/mnt/log", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("aaa")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  fd = kernel_.open(proc(), "/mnt/log", kern::kOWrOnly | kern::kOAppend);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("bbb")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  auto st = kernel_.stat(proc(), "/mnt/log");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 6u);
}

TEST_P(PosixFsTest, PreadPwriteAtOffsets) {
  auto fd = kernel_.open(proc(), "/mnt/p", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.pwrite(proc(), fd.value(), as_bytes("XY"), 8000).ok());
  std::vector<std::byte> buf(2);
  auto r = kernel_.pread(proc(), fd.value(), buf, 8000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), 2}), "XY");
  // The hole before offset 8000 reads as zeros.
  auto hole = kernel_.pread(proc(), fd.value(), buf, 100);
  ASSERT_TRUE(hole.ok());
  EXPECT_EQ(buf[0], std::byte{0});
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_P(PosixFsTest, LseekEnd) {
  auto fd = kernel_.open(proc(), "/mnt/seek", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("0123456789")).ok());
  auto pos = kernel_.lseek(proc(), fd.value(), -4, kern::Whence::End);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(pos.value(), 6u);
  std::vector<std::byte> buf(4);
  auto r = kernel_.read(proc(), fd.value(), buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), 4}), "6789");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_P(PosixFsTest, MkdirReaddirRmdir) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/d"));
  for (const char* name : {"a", "b", "c"}) {
    auto fd = kernel_.open(proc(), std::string("/mnt/d/") + name,
                           kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }
  auto entries = kernel_.readdir(proc(), "/mnt/d");
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> names;
  for (const auto& e : entries.value()) names.push_back(e.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{".", "..", "a", "b", "c"}));

  EXPECT_EQ(kernel_.rmdir(proc(), "/mnt/d"), Err::NotEmpty);
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), std::string("/mnt/d/") + name));
  }
  EXPECT_EQ(kernel_.rmdir(proc(), "/mnt/d"), Err::Ok);
  EXPECT_EQ(kernel_.stat(proc(), "/mnt/d").error(), Err::NoEnt);
}

TEST_P(PosixFsTest, NestedDirectories) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/a"));
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/a/b"));
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/a/b/c"));
  auto fd = kernel_.open(proc(), "/mnt/a/b/c/deep.txt",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  auto st = kernel_.stat(proc(), "/mnt/a/b/c/deep.txt");
  ASSERT_TRUE(st.ok());
}

TEST_P(PosixFsTest, UnlinkRemovesAndFreesSpace) {
  auto before = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(before.ok());

  auto fd = kernel_.open(proc(), "/mnt/big", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> mb(1 << 20, std::byte{7});
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), mb).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  auto during = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(during.ok());
  EXPECT_LT(during.value().free_blocks, before.value().free_blocks);

  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/big"));
  auto after = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().free_blocks, before.value().free_blocks);
  EXPECT_EQ(after.value().free_inodes, before.value().free_inodes);
}

TEST_P(PosixFsTest, RenameMovesFile) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/src"));
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/dst"));
  auto fd = kernel_.open(proc(), "/mnt/src/x", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("payload")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  ASSERT_EQ(Err::Ok, kernel_.rename(proc(), "/mnt/src/x", "/mnt/dst/y"));
  EXPECT_EQ(kernel_.stat(proc(), "/mnt/src/x").error(), Err::NoEnt);
  auto st = kernel_.stat(proc(), "/mnt/dst/y");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 7u);
}

TEST_P(PosixFsTest, RenameOverwritesTarget) {
  for (const char* n : {"/mnt/o1", "/mnt/o2"}) {
    auto fd = kernel_.open(proc(), n, kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes(n)).ok());
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }
  ASSERT_EQ(Err::Ok, kernel_.rename(proc(), "/mnt/o1", "/mnt/o2"));
  auto st = kernel_.stat(proc(), "/mnt/o2");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 7u);  // "/mnt/o1"
  EXPECT_EQ(kernel_.stat(proc(), "/mnt/o1").error(), Err::NoEnt);
}

TEST_P(PosixFsTest, TruncateShrinkAndGrow) {
  auto fd = kernel_.open(proc(), "/mnt/t", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> data(50000, std::byte{9});
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), data).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  ASSERT_EQ(Err::Ok, kernel_.truncate(proc(), "/mnt/t", 100));
  auto st = kernel_.stat(proc(), "/mnt/t");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 100u);

  // Bytes within the kept range survive; the tail rereads as zero after
  // growing again.
  ASSERT_EQ(Err::Ok, kernel_.truncate(proc(), "/mnt/t", 9000));
  fd = kernel_.open(proc(), "/mnt/t", kern::kORdOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(9000);
  auto r = kernel_.read(proc(), fd.value(), buf);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), 9000u);
  EXPECT_EQ(buf[99], std::byte{9});
  EXPECT_EQ(buf[100], std::byte{0});
  EXPECT_EQ(buf[8999], std::byte{0});
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_P(PosixFsTest, OTruncClearsContent) {
  auto fd = kernel_.open(proc(), "/mnt/tr", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("old")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  fd = kernel_.open(proc(), "/mnt/tr", kern::kOWrOnly | kern::kOTrunc);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  auto st = kernel_.stat(proc(), "/mnt/tr");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 0u);
}

TEST_P(PosixFsTest, LargeFileThroughIndirectBlocks) {
  // Cross the direct (10 blocks = 40 KiB) and into the indirect range.
  auto fd = kernel_.open(proc(), "/mnt/large", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> chunk(1 << 20);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<std::byte>(i * 31 / 4096);
  }
  for (int mb = 0; mb < 8; ++mb) {
    ASSERT_TRUE(kernel_.write(proc(), fd.value(), chunk).ok());
  }
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));

  // Read back scattered offsets and verify contents.
  std::vector<std::byte> buf(4096);
  for (std::uint64_t off :
       {0ULL, 39ULL * 4096, 41ULL * 4096, (4ULL << 20) + 4096}) {
    auto r = kernel_.pread(proc(), fd.value(), buf, off);
    ASSERT_TRUE(r.ok());
    const std::size_t within = (off % (1 << 20)) / 1;
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(buf[static_cast<std::size_t>(i)],
                chunk[within + static_cast<std::size_t>(i)])
          << "offset " << off << " byte " << i;
    }
  }
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_P(PosixFsTest, PersistsAcrossRemount) {
  auto fd = kernel_.open(proc(), "/mnt/persist", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("durable")).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));

  fd = kernel_.open(proc(), "/mnt/persist", kern::kORdOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(16);
  auto r = kernel_.read(proc(), fd.value(), buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "durable");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_P(PosixFsTest, PartialWriteToAReusedBlockReadsZerosBeforeIt) {
  // Free the blocks of a file full of 0xAB, so the next allocation reuses
  // one; then a 10-byte pwrite at offset 100 of a fresh file must read
  // back 100 zero bytes before it once it is on media.
  auto fd = kernel_.open(proc(), "/mnt/old", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  const std::vector<std::byte> old(4 * kern::kPageSize, std::byte{0xAB});
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), old).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/old"));
  ASSERT_EQ(Err::Ok, kernel_.sync(proc()));

  fd = kernel_.open(proc(), "/mnt/fresh", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      kernel_.pwrite(proc(), fd.value(), as_bytes("0123456789"), 100).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.sync(proc()));
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));

  fd = kernel_.open(proc(), "/mnt/fresh", kern::kORdOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(200, std::byte{0xFF});
  auto r = kernel_.pread(proc(), fd.value(), buf, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), 110u);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(buf[i], std::byte{0}) << "byte " << i;
  }
  EXPECT_EQ(to_string({buf.data() + 100, 10}), "0123456789");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_P(PosixFsTest, ManyFilesInOneDirectory) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/many"));
  for (int i = 0; i < 300; ++i) {
    auto fd = kernel_.open(proc(), "/mnt/many/f" + std::to_string(i),
                           kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok()) << i;
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }
  auto entries = kernel_.readdir(proc(), "/mnt/many");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 302u);  // ".", "..", 300 files
  auto st = kernel_.stat(proc(), "/mnt/many/f299");
  ASSERT_TRUE(st.ok());
}

TEST_P(PosixFsTest, FsyncAndSyncSucceed) {
  auto fd = kernel_.open(proc(), "/mnt/sy", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("x")).ok());
  EXPECT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  EXPECT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_EQ(Err::Ok, kernel_.sync(proc()));
}

TEST_P(PosixFsTest, StatfsGeometry) {
  auto st = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().block_size, 4096u);
  EXPECT_GT(st.value().total_blocks, 0u);
  EXPECT_GT(st.value().free_blocks, 0u);
  EXPECT_EQ(st.value().total_inodes, 4096u);
}

TEST_P(PosixFsTest, WriteReturnsBadFOnReadOnlyFd) {
  auto fd = kernel_.open(proc(), "/mnt/ro", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  fd = kernel_.open(proc(), "/mnt/ro", kern::kORdOnly);
  ASSERT_TRUE(fd.ok());
  auto w = kernel_.write(proc(), fd.value(), as_bytes("no"));
  EXPECT_EQ(w.error(), Err::BadF);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

/// Commits of the xv6 journal under a mount, for the deployments whose
/// writes go through one (null for ext4j, whose journal is jbd).
std::optional<std::uint64_t> xv6_commits(std::string_view fstype,
                                         kern::SuperBlock& sb) {
  if (fstype == "xv6_vfs") {
    return sb.fs<xv6c::Xv6cMount>()->log_stats().commits;
  }
  if (fstype == "ext4j") return std::nullopt;
  bento::FileSystem* fs = &bento::BentoModule::from(sb)->fs();
  if (fstype == "xv6_nvmlog") fs = &static_cast<bento::NvmLogFs*>(fs)->lower();
  return static_cast<xv6::Xv6FileSystem*>(fs)->log().stats().commits;
}

TEST_P(PosixFsTest, MountOptionsReachTheFileSystem) {
  const std::string_view fstype = GetParam();
  // The kernel deployments attach one flusher; ext4j and the FUSE daemon
  // attach none.
  const bool flushes = fstype == "xv6_bento" || fstype == "xv6_nvmlog" ||
                       fstype == "xv6_vfs";
  kern::SuperBlock* sb = kernel_.sb_at("/mnt");
  EXPECT_EQ(flusher_stats_objects(kernel_), flushes ? 1u : 0u);
  // A default mount pools creates into a group commit.
  const std::optional<std::uint64_t> pooled = xv6_commits(fstype, *sb);
  auto fd = kernel_.open(proc(), "/mnt/pooled", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_EQ(xv6_commits(fstype, *sb), pooled);

  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt", "noflusher"));
  EXPECT_EQ(kernel_.sb_at("/mnt")->flusher(), nullptr);
  EXPECT_EQ(flusher_stats_objects(kernel_), 0u);

  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt", "nogroup"));
  sb = kernel_.sb_at("/mnt");
  const std::optional<std::uint64_t> before = xv6_commits(fstype, *sb);
  fd = kernel_.open(proc(), "/mnt/alone", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  if (before) EXPECT_EQ(xv6_commits(fstype, *sb), *before + 1);
}

// ---- concurrent cold reads of one file ----

/// The deployments whose reads share generic_file_read: a page-cache miss
/// there must not hold the file's lock (or xv6's inode lock) exclusively
/// across the device read.
class ConcurrentColdReadTest : public PosixFsTest {
 protected:
  /// Past xv6's kNDirect (10), so the file's tail hangs off one indirect
  /// block.
  static constexpr std::uint64_t kPages = 24;

  /// Write kPages pages (page i filled with byte i+1), then remount and
  /// drop the clean buffers (a journal replay at mount may have cached
  /// the data blocks), so both the page cache and the buffer cache start
  /// cold. Returns an O_RDONLY fd on the file.
  int cold_file() {
    auto fd = kernel_.open(proc(), "/mnt/cold", kern::kOCreat | kern::kORdWr);
    EXPECT_TRUE(fd.ok());
    for (std::uint64_t pg = 0; pg < kPages; ++pg) {
      std::vector<std::byte> page(kern::kPageSize,
                                  static_cast<std::byte>(pg + 1));
      EXPECT_TRUE(kernel_.write(proc(), fd.value(), page).ok());
    }
    EXPECT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
    EXPECT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
    EXPECT_EQ(Err::Ok, kernel_.umount("/mnt"));
    EXPECT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
    fd = kernel_.open(proc(), "/mnt/cold", kern::kORdOnly);
    EXPECT_TRUE(fd.ok());
    kern::SuperBlock* sb = kernel_.sb_at("/mnt");
    EXPECT_EQ(Err::Ok, sb->sync_all());
    sb->bufcache().invalidate();
    return fd.ok() ? fd.value() : -1;
  }

  /// pread one page on `t`, returning its first byte.
  std::byte read_page_on(sim::SimThread& t, int fd, std::uint64_t pg) {
    sim::ScopedThread in(t);
    std::vector<std::byte> buf(kern::kPageSize);
    auto r = kernel_.pread(proc(), fd, buf, pg * kern::kPageSize);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value(), kern::kPageSize);
    EXPECT_EQ(std::count(buf.begin(), buf.end(), buf[0]),
              static_cast<std::ptrdiff_t>(buf.size()));
    return buf[0];
  }

  const sim::Nanos read_lat_ = blk::DeviceParams{}.read_lat_rand;
};

INSTANTIATE_TEST_SUITE_P(GenericFileRead, ConcurrentColdReadTest,
                         ::testing::Values("xv6_bento", "xv6_vfs",
                                           "xv6_fuse", "ext4j",
                                           "xv6_nvmlog"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(ConcurrentColdReadTest, DistinctPagesOverlapOnTheDevice) {
  const int fd = cold_file();
  ASSERT_GE(fd, 0);
  const sim::Nanos t0 = thread_.now();
  const std::uint64_t pages[] = {6, 0, 4, 2};  // never sequential
  const auto reads_before = kernel_.device("ssd0")->stats().reads;
  for (int i = 0; i < 4; ++i) {
    sim::SimThread t(i + 1);
    t.wait_until(t0);
    EXPECT_EQ(read_page_on(t, fd, pages[i]),
              static_cast<std::byte>(pages[i] + 1));
    // Serialized misses would put the fourth reader near 4x the latency.
    EXPECT_LT(t.now() - t0, 2 * read_lat_) << "reader " << i;
  }
  EXPECT_EQ(kernel_.device("ssd0")->stats().reads, reads_before + 4);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd));
}

TEST_P(ConcurrentColdReadTest, SecondMissOnOnePageWaitsForTheFirstFill) {
  const int fd = cold_file();
  ASSERT_GE(fd, 0);
  const sim::Nanos t0 = thread_.now();
  // a runs first in host order with the later clock; b's clock is earlier
  // but it must still not get the page before a's device read returned.
  sim::SimThread a(1);
  sim::SimThread b(2);
  a.wait_until(t0 + sim::usec(5));
  b.wait_until(t0);
  const auto reads_before = kernel_.device("ssd0")->stats().reads;
  EXPECT_EQ(read_page_on(a, fd, 3), std::byte{4});
  EXPECT_EQ(read_page_on(b, fd, 3), std::byte{4});
  EXPECT_EQ(kernel_.device("ssd0")->stats().reads, reads_before + 1);

  auto st = kernel_.stat(proc(), "/mnt/cold");
  ASSERT_TRUE(st.ok());
  kern::Inode* inode = kernel_.sb_at("/mnt")->iget_cached(st.value().ino);
  ASSERT_NE(inode, nullptr);
  const kern::Page* page = inode->mapping.find(3);
  ASSERT_NE(page, nullptr);
  EXPECT_GE(page->filled_at, t0 + sim::usec(5) + read_lat_);
  EXPECT_GE(b.now(), page->filled_at);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd));
}

/// xv6 maps every page from kNDirect on through one indirect block, so two
/// misses there also share a metadata read.
class Xv6IndirectColdReadTest : public ConcurrentColdReadTest {};

INSTANTIATE_TEST_SUITE_P(GenericFileRead, Xv6IndirectColdReadTest,
                         ::testing::Values("xv6_bento", "xv6_vfs",
                                           "xv6_fuse", "xv6_nvmlog"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(Xv6IndirectColdReadTest, MissBehindAnInFlightIndirectBlockWaitsForIt) {
  const int fd = cold_file();
  ASSERT_GE(fd, 0);
  const sim::Nanos t0 = thread_.now();
  // a runs first in host order with the later clock: it reads the indirect
  // block, then page 20's data block. b's clock is earlier, and the
  // indirect block it needs for page 14 is still in flight at that clock.
  // Pages 20 and 14 are far apart, so neither read triggers readahead.
  sim::SimThread a(1);
  sim::SimThread b(2);
  a.wait_until(t0 + sim::usec(5));
  b.wait_until(t0);
  EXPECT_EQ(read_page_on(a, fd, 20), std::byte{21});
  EXPECT_GE(a.now() - t0, sim::usec(5) + 2 * read_lat_);
  EXPECT_EQ(read_page_on(b, fd, 14), std::byte{15});
  // b reads its data block only once a's indirect block has arrived.
  EXPECT_GE(b.now() - t0, sim::usec(5) + 2 * read_lat_);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd));
}

/// ialloc on every xv6 deployment: the allocation cursor hands out the
/// inode a scan of the whole table from inode 1 would, and a create costs
/// the same however many files are live.
class Xv6InodeAllocTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 32768;  // 128 MiB
    dev_ = &kernel_.add_device("ssd0", params);
    xv6::mkfs(*dev_, /*ninodes=*/8192);
    wl::register_deployments(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
  }

  kern::Process& proc() { return kernel_.proc(); }

  /// The lowest free inode on the device after a sync: the reference scan
  /// of the whole inode table (untimed).
  std::uint32_t lowest_free_inode() {
    EXPECT_EQ(Err::Ok, kernel_.sync(proc()));
    const xv6::DiskSuperblock dsb = xv6::read_superblock(*dev_);
    alignas(xv6::Dinode) std::array<std::byte, blk::kBlockSize> buf{};
    for (std::uint32_t inum = 1; inum < dsb.ninodes; ++inum) {
      if (inum == 1 || inum % xv6::kInodesPerBlock == 0) {
        dev_->read_untimed(dsb.inode_block(inum), buf);
      }
      const auto* di = reinterpret_cast<const xv6::Dinode*>(buf.data());
      if (di[inum % xv6::kInodesPerBlock].type ==
          static_cast<std::uint16_t>(xv6::InodeKind::Free)) {
        return inum;
      }
    }
    return 0;
  }

  /// Create `path` (a directory if `dir`) and return its inode number.
  kern::Ino make(const std::string& path, bool dir) {
    if (dir) {
      EXPECT_EQ(Err::Ok, kernel_.mkdir(proc(), path)) << path;
    } else {
      auto fd = kernel_.open(proc(), path, kern::kOCreat | kern::kOWrOnly);
      EXPECT_TRUE(fd.ok()) << path;
      if (!fd.ok()) return 0;
      EXPECT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
    }
    auto st = kernel_.stat(proc(), path);
    EXPECT_TRUE(st.ok()) << path;
    return st.ok() ? st.value().ino : 0;
  }

  /// Virtual time of creating `path`, from a synced, idle file system.
  sim::Nanos timed_create(const std::string& path) {
    EXPECT_EQ(Err::Ok, kernel_.sync(proc()));
    const sim::Nanos t0 = thread_.now();
    auto fd = kernel_.open(proc(), path, kern::kOCreat | kern::kOWrOnly);
    const sim::Nanos took = thread_.now() - t0;
    EXPECT_TRUE(fd.ok()) << path;
    if (fd.ok()) {
      EXPECT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
    }
    return took;
  }

  void expect_fsck_clean() {
    ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
    auto report = xv6::fsck(*dev_);
    EXPECT_TRUE(report.ok) << report.summary();
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  blk::BlockDevice* dev_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(Xv6Deployments, Xv6InodeAllocTest,
                         ::testing::Values("xv6_bento", "xv6_fuse",
                                           "xv6_nvmlog", "xv6_vfs"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(Xv6InodeAllocTest, EveryNewInodeIsTheLowestFree) {
  // A seeded mix of creates, mkdirs, unlinks and rmdirs: frees open holes
  // below the cursor, which the next creates must fill lowest first.
  sim::Rng rng(22);
  std::vector<std::string> dirs{"/mnt"};
  std::vector<std::string> files;
  std::map<std::string, int> children{{"/mnt", 0}};
  auto parent_of = [](const std::string& path) {
    return path.substr(0, path.rfind('/'));
  };
  int next_name = 0;
  int creates = 0;
  int frees = 0;
  for (int op = 0; op < 2500; ++op) {
    const auto pick = rng.below(10);
    if (pick < 6) {  // create (4 in 10) or mkdir (2 in 10)
      const bool dir = pick >= 4;
      const std::string parent = dirs[rng.below(dirs.size())];
      const std::string path = parent + "/n" + std::to_string(next_name++);
      const std::uint32_t expect = lowest_free_inode();
      ASSERT_EQ(make(path, dir), expect) << "op " << op << ": " << path;
      children[parent] += 1;
      if (dir) {
        dirs.push_back(path);
        children[path] = 0;
      } else {
        files.push_back(path);
      }
      creates += 1;
    } else if (pick < 9 && !files.empty()) {  // unlink
      const std::size_t i = rng.below(files.size());
      ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), files[i])) << files[i];
      children[parent_of(files[i])] -= 1;
      files[i] = files.back();
      files.pop_back();
      frees += 1;
    } else if (pick == 9) {  // rmdir, if some directory is empty
      for (std::size_t i = 1; i < dirs.size(); ++i) {
        if (children[dirs[i]] != 0) continue;
        ASSERT_EQ(Err::Ok, kernel_.rmdir(proc(), dirs[i])) << dirs[i];
        children[parent_of(dirs[i])] -= 1;
        children.erase(dirs[i]);
        dirs[i] = dirs.back();
        dirs.pop_back();
        frees += 1;
        break;
      }
    }
  }
  EXPECT_GT(creates, 1000);
  EXPECT_GT(frees, 500);
  expect_fsck_clean();
}

TEST_P(Xv6InodeAllocTest, CreateCostDoesNotGrowWithLiveInodes) {
  // Two empty probe directories first, so that reaching either costs the
  // same however full the table gets. Then fill it with no frees.
  make("/mnt/p1", true);
  make("/mnt/p2", true);
  make("/mnt/fill", true);
  std::uint32_t live = 4;  // root, p1, p2, fill
  std::string dir;
  std::uint32_t in_dir = 64;
  auto fill_to = [&](std::uint32_t target) {
    for (; live < target; ++live) {
      if (in_dir == 64) {  // short directories keep their scans cheap
        dir = "/mnt/fill/d" + std::to_string(live);
        ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), dir));
        in_dir = 0;
        continue;
      }
      auto fd = kernel_.open(proc(), dir + "/f" + std::to_string(in_dir++),
                             kern::kOCreat | kern::kOWrOnly);
      ASSERT_TRUE(fd.ok());
      ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
    }
  };
  fill_to(63);
  ASSERT_TRUE(kernel_.stat(proc(), "/mnt/p1").ok());
  const sim::Nanos few = timed_create("/mnt/p1/x");  // the 64th live inode
  live += 1;
  fill_to(4095);
  ASSERT_TRUE(kernel_.stat(proc(), "/mnt/p2").ok());
  const sim::Nanos many = timed_create("/mnt/p2/x");  // the 4,096th
  EXPECT_LE(std::abs(many - few), sim::costs().buffer_lookup)
      << "64 live: " << few << " ns, 4096 live: " << many << " ns";
  expect_fsck_clean();
}

/// Mount cost on the xv6 deployments, on the bench's 262,144-inode table
/// (4,096 inode blocks): mount reads the superblock, the log header, the
/// initialised inode blocks and the bitmap, and none of the table past
/// them. Its counts match a brute-force scan of the whole table.
class Xv6MountCostTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 32768;  // 128 MiB
    dev_ = &kernel_.add_device("ssd0", params);
    xv6::mkfs(*dev_, /*ninodes=*/262'144);
    wl::register_deployments(kernel_);
  }

  kern::Process& proc() { return kernel_.proc(); }

  /// Mount, and check the device reads it took against the bound.
  void mount_and_count_reads() {
    const blk::DeviceStats before = dev_->stats();
    ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
    const blk::DeviceStats& after = dev_->stats();
    const xv6::DiskSuperblock dsb = xv6::read_superblock(*dev_);
    const std::uint64_t bound = 2 + dsb.ninitblocks + dsb.nbitmap;
    EXPECT_LE(after.read_requests - before.read_requests, bound);
    EXPECT_LE(after.reads - before.reads, bound);
  }

  /// The free inodes and the lowest of them, by reading every inode block
  /// (untimed).
  std::pair<std::uint64_t, std::uint32_t> brute_force_free_inodes() {
    const xv6::DiskSuperblock dsb = xv6::read_superblock(*dev_);
    alignas(xv6::Dinode) std::array<std::byte, blk::kBlockSize> buf{};
    std::uint64_t free = 0;
    std::uint32_t lowest = 0;
    for (std::uint32_t inum = 1; inum < dsb.ninodes; ++inum) {
      if (inum == 1 || inum % xv6::kInodesPerBlock == 0) {
        dev_->read_untimed(dsb.inode_block(inum), buf);
      }
      const auto* di = reinterpret_cast<const xv6::Dinode*>(buf.data());
      if (di[inum % xv6::kInodesPerBlock].type ==
          static_cast<std::uint16_t>(xv6::InodeKind::Free)) {
        free += 1;
        if (lowest == 0) lowest = inum;
      }
    }
    return {free, lowest};
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  blk::BlockDevice* dev_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(Xv6Deployments, Xv6MountCostTest,
                         ::testing::Values("xv6_bento", "xv6_vfs",
                                           "xv6_fuse"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(Xv6MountCostTest, FreshImageMountReadsNoUninitialisedInodeBlock) {
  mount_and_count_reads();
  EXPECT_EQ(1u, xv6::read_superblock(*dev_).ninitblocks);
  auto st = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().free_inodes, brute_force_free_inodes().first);
  EXPECT_EQ(st.value().free_inodes, 262'144u - 2);  // inode 0 and the root
}

TEST_P(Xv6MountCostTest, AgedImageRemountsToTheBruteForceCounts) {
  ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
  for (int i = 0; i < 200; ++i) {
    auto fd = kernel_.open(proc(), "/mnt/a" + std::to_string(i),
                           kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok()) << i;
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }
  // 50 holes scattered over inode blocks 0..3.
  for (int i = 3; i < 200; i += 4) {
    ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/a" + std::to_string(i)));
  }
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  EXPECT_EQ(4u, xv6::read_superblock(*dev_).ninitblocks);

  mount_and_count_reads();
  const auto [free, lowest] = brute_force_free_inodes();
  EXPECT_EQ(free, 262'144u - 2 - 150);
  auto st = kernel_.statfs(proc(), "/mnt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().free_inodes, free);
  auto fd = kernel_.open(proc(), "/mnt/next", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  auto next = kernel_.stat(proc(), "/mnt/next");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().ino, lowest);
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  auto report = xv6::fsck(*dev_);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.files, 151u);
}

/// xv6 on a full image: a create or mkdir that fails with ENOSPC after
/// its inode is allocated must give the inode (and any block) back.
class Xv6FullImageTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 4096;  // 16 MiB
    dev_ = &kernel_.add_device("ssd0", params);
    xv6::mkfs(*dev_, /*ninodes=*/1024);
    wl::register_deployments(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
  }

  kern::Process& proc() { return kernel_.proc(); }

  kern::StatFs statfs() {
    auto st = kernel_.statfs(proc(), "/mnt");
    EXPECT_TRUE(st.ok());
    return st.ok() ? st.value() : kern::StatFs{};
  }

  /// Write `nblocks` blocks to a new file `path` and fsync it.
  void write_file(const std::string& path, std::uint64_t nblocks) {
    auto fd = kernel_.open(proc(), path, kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok()) << path;
    const std::vector<std::byte> data(nblocks * xv6::kBlockSize,
                                      std::byte{0x6D});
    ASSERT_TRUE(kernel_.write(proc(), fd.value(), data).ok());
    ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }

  /// Data plus index blocks of an xv6 file of `n` data blocks.
  static std::uint64_t footprint(std::uint64_t n) {
    std::uint64_t blocks = n;
    if (n > xv6::kNDirect) blocks += 1;  // indirect
    const std::uint64_t dbl = xv6::kNDirect + xv6::kNIndirect;
    if (n > dbl) {
      blocks += 1 + (n - dbl + xv6::kNIndirect - 1) / xv6::kNIndirect;
    }
    return blocks;
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  blk::BlockDevice* dev_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(KernelXv6, Xv6FullImageTest,
                         ::testing::Values("xv6_bento", "xv6_vfs"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(Xv6FullImageTest, CreateAndMkdirFailingWithNoSpcLeakNothing) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/sub"));
  write_file("/mnt/sub/spare", 1);
  // Fill every remaining data block with one file.
  const std::uint64_t free = statfs().free_blocks;
  std::uint64_t n = free;
  while (footprint(n) > free) n -= 1;
  write_file("/mnt/big", n);

  // Creates in the root succeed until its directory needs a block.
  Err failed = Err::Ok;
  for (int i = 0; i < 1000 && failed == Err::Ok; ++i) {
    const kern::StatFs before = statfs();
    auto fd = kernel_.open(proc(), "/mnt/f" + std::to_string(i),
                           kern::kOCreat | kern::kOWrOnly);
    if (fd.ok()) {
      ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
      continue;
    }
    failed = fd.error();
    EXPECT_EQ(statfs().free_inodes, before.free_inodes);
  }
  ASSERT_EQ(failed, Err::NoSpc);

  // One free block: the new directory's "." and ".." take it, then the
  // root's entry finds no block.
  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/sub/spare"));
  const kern::StatFs before = statfs();
  ASSERT_EQ(before.free_blocks, 1u);
  EXPECT_EQ(kernel_.mkdir(proc(), "/mnt/d"), Err::NoSpc);
  const kern::StatFs after = statfs();
  EXPECT_EQ(after.free_inodes, before.free_inodes);
  EXPECT_EQ(after.free_blocks, before.free_blocks);

  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  auto report = xv6::fsck(*dev_);
  EXPECT_TRUE(report.ok) << report.summary();
}

/// xv6 and the C baseline create and mkdir with one pass over the parent
/// directory. The file system's own ->create and ->mkdir are called
/// directly, past the kernel's lookup, so the pass alone must find an
/// existing name, pick the slot and report a failed read.
class Xv6DirScanTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 32768;  // 128 MiB
    dev_ = &kernel_.add_device("ssd0", params);
    xv6::mkfs(*dev_, /*ninodes=*/4096);
    wl::register_deployments(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
  }

  kern::Process& proc() { return kernel_.proc(); }

  void touch(const std::string& path) {
    auto fd = kernel_.open(proc(), path, kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok()) << path;
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }

  std::vector<std::string> names(const std::string& dir) {
    std::vector<std::string> out;
    auto entries = kernel_.readdir(proc(), dir);
    EXPECT_TRUE(entries.ok());
    if (entries.ok()) {
      for (const auto& e : entries.value()) out.push_back(e.name);
    }
    return out;
  }

  /// ->create (or ->mkdir) of `name` in `dir`, under its rwsem as the
  /// kernel calls it; the new inode's reference is dropped.
  Err fs_create(kern::Inode& dir, std::string_view name, bool mkdir) {
    dir.rwsem.lock();
    auto r = mkdir ? dir.iop->mkdir(dir, name, 0755)
                   : dir.iop->create(dir, name, 0644);
    dir.rwsem.unlock();
    if (!r.ok()) return r.error();
    kernel_.sb_at("/mnt")->iput(r.value());
    return Err::Ok;
  }

  kern::StatFs statfs() {
    auto st = kernel_.statfs(proc(), "/mnt");
    EXPECT_TRUE(st.ok());
    return st.ok() ? st.value() : kern::StatFs{};
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  blk::BlockDevice* dev_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(KernelXv6, Xv6DirScanTest,
                         ::testing::Values("xv6_bento", "xv6_vfs"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(Xv6DirScanTest, AHoleBeforeTheNameDoesNotHideIt) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/d"));
  for (const char* name : {"a", "b", "c"}) touch(std::string("/mnt/d/") + name);
  // Slots: ".", "..", a, b, c. Unlinking a leaves a hole before b and c.
  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/d/a"));
  auto dir = kernel_.resolve("/mnt/d");
  ASSERT_TRUE(dir.ok());
  kern::SuperBlock& sb = *kernel_.sb_at("/mnt");
  const kern::StatFs before = statfs();
  EXPECT_EQ(fs_create(*dir.value(), "c", /*mkdir=*/false), Err::Exist);
  EXPECT_EQ(fs_create(*dir.value(), "b", /*mkdir=*/true), Err::Exist);
  EXPECT_EQ(statfs().free_inodes, before.free_inodes);
  EXPECT_EQ(names("/mnt/d"), (std::vector<std::string>{".", "..", "b", "c"}));

  // A name that matches nothing takes the first hole, a's old slot; the
  // next one goes at the end.
  EXPECT_EQ(fs_create(*dir.value(), "e", /*mkdir=*/false), Err::Ok);
  EXPECT_EQ(fs_create(*dir.value(), "f", /*mkdir=*/true), Err::Ok);
  sb.iput(dir.value());
  EXPECT_EQ(names("/mnt/d"),
            (std::vector<std::string>{".", "..", "e", "b", "c", "f"}));
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  auto report = xv6::fsck(*dev_);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST_P(Xv6DirScanTest, AFailedDirectoryReadAllocatesNothing) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/d"));
  touch("/mnt/d/a");
  ASSERT_EQ(Err::Ok, kernel_.sync(proc()));
  const kern::Ino ino = kernel_.stat(proc(), "/mnt/d").value().ino;
  // Remount so the directory's block is read from the device again.
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
  const xv6::DiskSuperblock dsb = xv6::read_superblock(*dev_);
  alignas(xv6::Dinode) std::array<std::byte, blk::kBlockSize> buf{};
  const auto inum = static_cast<std::uint32_t>(ino);
  dev_->read_untimed(dsb.inode_block(inum), buf);
  const auto* di = reinterpret_cast<const xv6::Dinode*>(buf.data());
  const std::uint32_t block = di[inum % xv6::kInodesPerBlock].addrs[0];
  ASSERT_NE(block, 0u);

  auto dir = kernel_.resolve("/mnt/d");
  ASSERT_TRUE(dir.ok());
  ASSERT_EQ(Err::Ok, kernel_.sync(proc()));
  dev_->inject_read_error(block);
  const kern::StatFs before = statfs();
  const std::uint64_t written = dev_->stats().writes;
  EXPECT_EQ(fs_create(*dir.value(), "x", /*mkdir=*/false), Err::Io);
  EXPECT_EQ(fs_create(*dir.value(), "y", /*mkdir=*/true), Err::Io);
  const kern::StatFs after = statfs();
  EXPECT_EQ(after.free_inodes, before.free_inodes);
  EXPECT_EQ(after.free_blocks, before.free_blocks);
  // Nothing was allocated and given back, so nothing is left to commit.
  ASSERT_EQ(Err::Ok, kernel_.sync(proc()));
  EXPECT_EQ(dev_->stats().writes, written);
  kernel_.sb_at("/mnt")->iput(dir.value());
}

/// Log commits on the C baseline after 64 unsynced creates on a fresh
/// mount with `opts`.
std::uint64_t xv6c_commits_after_creates(std::string_view opts) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = 32768;
  auto& dev = kernel.add_device("ssd0", params);
  xv6::mkfs(dev, /*ninodes=*/4096);
  wl::register_deployments(kernel);
  EXPECT_EQ(Err::Ok, kernel.mount("xv6_vfs", "ssd0", "/mnt", opts));
  auto& p = kernel.proc();
  for (int i = 0; i < 64; ++i) {
    auto fd = kernel.open(p, "/mnt/f" + std::to_string(i),
                          kern::kOCreat | kern::kOWrOnly);
    EXPECT_TRUE(fd.ok()) << i;
    if (fd.ok()) EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  }
  const std::uint64_t commits =
      kernel.sb_at("/mnt")->fs<xv6c::Xv6cMount>()->log_stats().commits;
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
  auto report = xv6::fsck(dev);
  EXPECT_TRUE(report.ok) << report.summary();
  return commits;
}

TEST(Xv6cGroupCommit, CommitsByLogSpaceUnlessTheMountCapsOps) {
  // The C baseline runs the Bento port's commit policy: 64 creates fill a
  // few blocks of the log, far short of the commit threshold, so nothing
  // commits before an fsync. An explicit op cap commits every 8 creates.
  EXPECT_EQ(xv6c_commits_after_creates(""), 0u);
  EXPECT_EQ(xv6c_commits_after_creates("max_log_batch=8"), 8u);
}

TEST(Xv6cNestedOp, RmdirEvictsInsideItsOpOnANearlyFullLog) {
  // An rmdir that drops the last reference evicts the directory inside its
  // own op. With the running transaction past kLogSize - 2 * kMaxOpBlocks
  // blocks, a nested op could never be admitted: the eviction must join
  // the rmdir's op rather than wait for it to close.
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = 32768;
  auto& dev = kernel.add_device("ssd0", params);
  xv6::mkfs(dev, /*ninodes=*/4096);
  wl::register_deployments(kernel);
  ASSERT_EQ(Err::Ok,
            kernel.mount("xv6_vfs", "ssd0", "/mnt", "max_log_batch=1000"));
  auto& p = kernel.proc();
  // Each mkdir tags about one new block (the directory's own), so 210 of
  // them hold the transaction between 2 and 1 ops' worth short of the log.
  for (int i = 0; i < 210; ++i) {
    ASSERT_EQ(Err::Ok, kernel.mkdir(p, "/mnt/d" + std::to_string(i)));
  }
  auto* mnt = kernel.sb_at("/mnt")->fs<xv6c::Xv6cMount>();
  ASSERT_EQ(mnt->log_stats().commits, 0u);
  ASSERT_EQ(Err::Ok, kernel.rmdir(p, "/mnt/d0"));
  ASSERT_EQ(Err::Ok, kernel.umount("/mnt"));
  auto report = xv6::fsck(dev);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.dirs, 1u + 209u);
}

TEST_F(BentoXv6Fixture, BorrowLedgerBalancedAfterWorkload) {
  // The ownership-model contract (§4.4): after any sequence of operations,
  // the file system must have returned every borrowed capability.
  for (int i = 0; i < 50; ++i) {
    auto fd = kernel_.open(proc(), "/mnt/w" + std::to_string(i),
                           kern::kOCreat | kern::kORdWr);
    ASSERT_TRUE(fd.ok());
    std::vector<std::byte> data(8192, std::byte{4});
    ASSERT_TRUE(kernel_.write(proc(), fd.value(), data).ok());
    ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }
  auto* sb = kernel_.sb_at("/mnt");
  ASSERT_NE(sb, nullptr);
  auto* module = bento::BentoModule::from(*sb);
  ASSERT_NE(module, nullptr);
  EXPECT_TRUE(module->ledger().balanced());
  EXPECT_GT(module->ledger().total(), 0);
  // And no buffer references leaked either (RAII BufferHeadHandle).
  EXPECT_EQ(sb->bufcache().outstanding_refs(), 0u);
}

}  // namespace
}  // namespace bsim::test
