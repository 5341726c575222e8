// Kernel syscall-surface tests: fd-table edge cases, mount management,
// path resolution errors, and the /dev block-device file interface the
// FUSE daemon depends on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.h"

namespace bsim::test {
namespace {

using kern::Err;
using kern::Whence;

class SyscallTest : public BentoXv6Fixture {};

TEST_F(SyscallTest, BadFdIsRejectedEverywhere) {
  std::vector<std::byte> buf(8);
  EXPECT_EQ(kernel_.read(proc(), 42, buf).error(), Err::BadF);
  EXPECT_EQ(kernel_.write(proc(), 42, buf).error(), Err::BadF);
  EXPECT_EQ(kernel_.pread(proc(), -1, buf, 0).error(), Err::BadF);
  EXPECT_EQ(kernel_.fsync(proc(), 7), Err::BadF);
  EXPECT_EQ(kernel_.close(proc(), 3), Err::BadF);
  EXPECT_EQ(kernel_.lseek(proc(), 9, 0, Whence::Set).error(), Err::BadF);
}

TEST_F(SyscallTest, FdsAreReusedAfterClose) {
  auto a = kernel_.open(proc(), "/mnt/a", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), a.value()));
  auto b = kernel_.open(proc(), "/mnt/b", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());  // slot reused
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), b.value()));
}

TEST_F(SyscallTest, ProcessesHaveIndependentFdTables) {
  auto p2 = kernel_.new_process();
  auto fd1 = kernel_.open(proc(), "/mnt/x", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd1.ok());
  // Same numeric fd in another process is invalid.
  EXPECT_EQ(kernel_.close(*p2, fd1.value()), Err::BadF);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd1.value()));
}

TEST_F(SyscallTest, MountErrors) {
  EXPECT_EQ(kernel_.mount("nope", "ssd0", "/m2"), Err::NoDev);
  EXPECT_EQ(kernel_.mount("xv6_bento", "nodev", "/m2"), Err::NoDev);
  EXPECT_EQ(kernel_.mount("xv6_bento", "ssd0", "relative"), Err::Inval);
  EXPECT_EQ(kernel_.mount("xv6_bento", "ssd0", "/mnt"), Err::Busy);
  EXPECT_EQ(kernel_.umount("/nothing"), Err::NoEnt);

  // A fill_super that fails (no file system on the device) frees what it
  // built and leaves no mount behind; the same type then mounts a
  // formatted device.
  blk::DeviceParams params;
  params.nblocks = 8192;
  kernel_.add_device("blank", params);
  auto& formatted = kernel_.add_device("ssd1", params);
  for (const std::string fs :
       {"xv6_bento", "xv6_nvmlog", "xv6_vfs", "xv6_fuse", "ext4j"}) {
    SCOPED_TRACE(fs);
    EXPECT_EQ(kernel_.mount(fs, "blank", "/m2"), Err::Inval);
    EXPECT_EQ(kernel_.sb_at("/m2"), nullptr);
    if (fs == "ext4j") {
      ext4::mkfs(formatted, /*inodes_per_group=*/512);
    } else {
      xv6::mkfs(formatted, /*ninodes=*/512);
    }
    ASSERT_EQ(kernel_.mount(fs, "ssd1", "/m2"), Err::Ok);
    auto fd = kernel_.open(proc(), "/m2/f", kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok());
    EXPECT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
    ASSERT_EQ(kernel_.umount("/m2"), Err::Ok);
  }
}

TEST_F(SyscallTest, MountRejectsUnknownOptionTokens) {
  // Strict option validation: a typo'd token ("mirrro=2" for "mirror=2",
  // a malformed value "chunk=16k") used to mount fine with the option
  // silently ignored — an experiment then measured the wrong deployment.
  blk::DeviceParams params;
  params.nblocks = 32768;
  auto& dev = kernel_.add_device("ssd1", params);
  xv6::mkfs(dev, 4096);
  EXPECT_EQ(kernel_.mount("xv6_bento", "ssd1", "/m2", "mirrro=2"),
            Err::Inval);
  EXPECT_EQ(kernel_.mount("xv6_bento", "ssd1", "/m2", "chunk=16k"),
            Err::Inval);
  EXPECT_EQ(kernel_.mount("xv6_bento", "ssd1", "/m2", "noflusher,bogus"),
            Err::Inval);
  // Out-of-range values are rejected too: they used to mount a different
  // volume (or journal) than the one asked for.
  for (const char* zero :
       {"chunk=0", "stripe=0", "mirror=0", "max_log_batch=0"}) {
    EXPECT_EQ(kernel_.mount("xv6_bento", "ssd1", "/m2", zero), Err::Inval)
        << zero;
  }
  // Nothing was mounted by the rejected attempts.
  EXPECT_EQ(kernel_.umount("/m2"), Err::NoEnt);
  // Every known token (and combinations) still mounts, including the
  // documented "off" values.
  ASSERT_EQ(Err::Ok, kernel_.mount("xv6_bento", "ssd1", "/m2",
                                   "rw,noflusher,max_log_batch=4,stripe=1,"
                                   "mirror=1,parity=0,retries=0"));
  ASSERT_EQ(Err::Ok, kernel_.umount("/m2"));
}

TEST_F(SyscallTest, PathResolutionErrors) {
  EXPECT_EQ(kernel_.stat(proc(), "/other/x").error(), Err::NoEnt);
  EXPECT_EQ(kernel_.stat(proc(), "/mnt/no/such/depth").error(), Err::NoEnt);

  auto fd = kernel_.open(proc(), "/mnt/file", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  // A regular file used as a directory component.
  EXPECT_EQ(kernel_.stat(proc(), "/mnt/file/sub").error(), Err::NotDir);

  const std::string too_long(kern::kNameMax + 10, 'n');
  EXPECT_EQ(kernel_.stat(proc(), "/mnt/" + too_long).error(),
            Err::NameTooLong);
}

TEST_F(SyscallTest, ReaddirOnFileFails) {
  auto fd = kernel_.open(proc(), "/mnt/plain", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_EQ(kernel_.readdir(proc(), "/mnt/plain").error(), Err::NotDir);
}

TEST_F(SyscallTest, OpenDirectoryForWriteFails) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/dir"));
  auto fd = kernel_.open(proc(), "/mnt/dir", kern::kORdWr);
  EXPECT_EQ(fd.error(), Err::IsDir);
}

TEST_F(SyscallTest, UnlinkDirectoryFails) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/dir2"));
  EXPECT_EQ(kernel_.unlink(proc(), "/mnt/dir2"), Err::IsDir);
  EXPECT_EQ(kernel_.rmdir(proc(), "/mnt/dir2"), Err::Ok);
}

TEST_F(SyscallTest, RmdirOnFileFails) {
  auto fd = kernel_.open(proc(), "/mnt/f", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_EQ(kernel_.rmdir(proc(), "/mnt/f"), Err::NotDir);
}

TEST_F(SyscallTest, LseekWhences) {
  auto fd = kernel_.open(proc(), "/mnt/seek", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("0123456789")).ok());
  EXPECT_EQ(kernel_.lseek(proc(), fd.value(), 2, Whence::Set).value(), 2u);
  EXPECT_EQ(kernel_.lseek(proc(), fd.value(), 3, Whence::Cur).value(), 5u);
  EXPECT_EQ(kernel_.lseek(proc(), fd.value(), -1, Whence::End).value(), 9u);
  EXPECT_EQ(kernel_.lseek(proc(), fd.value(), -100, Whence::Set).error(),
            Err::Inval);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(SyscallTest, DevFileODirectAlignment) {
  auto fd = kernel_.open(proc(), "/dev/ssd0", kern::kORdWr | kern::kODirect);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> misaligned(100);
  EXPECT_EQ(kernel_.pread(proc(), fd.value(), misaligned, 0).error(),
            Err::Inval);
  std::vector<std::byte> aligned(4096);
  EXPECT_EQ(kernel_.pread(proc(), fd.value(), aligned, 512).error(),
            Err::Inval);  // offset misaligned
  EXPECT_TRUE(kernel_.pread(proc(), fd.value(), aligned, 4096).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(SyscallTest, DevFileRoundTripAndFsync) {
  auto fd = kernel_.open(proc(), "/dev/ssd0", kern::kORdWr | kern::kODirect);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> out(4096, std::byte{0xA5});
  // Stay clear of the mounted fs metadata: write near the device's end.
  const std::uint64_t off = (32768 - 4) * 4096ULL;
  ASSERT_TRUE(kernel_.pwrite(proc(), fd.value(), out, off).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  std::vector<std::byte> in(4096);
  ASSERT_TRUE(kernel_.pread(proc(), fd.value(), in, off).ok());
  EXPECT_EQ(in, out);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(SyscallTest, OpenMissingDeviceFails) {
  auto fd = kernel_.open(proc(), "/dev/ghost", kern::kORdWr);
  EXPECT_EQ(fd.error(), Err::NoEnt);
}

TEST_F(SyscallTest, RenameAcrossMountsRejected) {
  // Second mount on the same device type but another device.
  blk::DeviceParams params;
  params.nblocks = 16384;
  auto& dev2 = kernel_.add_device("ssd1", params);
  xv6::mkfs(dev2, 1024);
  ASSERT_EQ(Err::Ok, kernel_.mount("xv6_vfs", "ssd1", "/mnt2"));
  auto fd = kernel_.open(proc(), "/mnt/src", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_EQ(kernel_.rename(proc(), "/mnt/src", "/mnt2/dst"), Err::Inval);
}

TEST_F(SyscallTest, LongestPrefixMountResolution) {
  blk::DeviceParams params;
  params.nblocks = 16384;
  auto& dev2 = kernel_.add_device("ssd1", params);
  xv6::mkfs(dev2, 1024);
  ASSERT_EQ(Err::Ok, kernel_.mount("xv6_vfs", "ssd1", "/mnt/inner"));
  // "/mnt/inner/f" must land on the inner mount, not on /mnt's fs.
  auto fd = kernel_.open(proc(), "/mnt/inner/f",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("inner")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  auto st = kernel_.statfs(proc(), "/mnt/inner");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().fs_name, "xv6_vfs");
}

TEST_F(SyscallTest, SyncFlushesEverything) {
  auto fd = kernel_.open(proc(), "/mnt/s", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> data(100000, std::byte{3});
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), data).ok());
  EXPECT_EQ(Err::Ok, kernel_.sync(proc()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

}  // namespace
}  // namespace bsim::test
