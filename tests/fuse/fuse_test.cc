// Unit tests for the FUSE transport: request accounting, payload copy
// costs, the userspace block backend's pwrite+fsync durability path, and
// write-request chunking.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.h"

namespace bsim::test {
namespace {

using kern::Err;

class FuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 32768;
    auto& dev = kernel_.add_device("ssd0", params);
    xv6::mkfs(dev, 4096);
    wl::register_deployments(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount("xv6_fuse", "ssd0", "/mnt"));
    module_ = kernel_.sb_at("/mnt")->fs<fuse::FuseModule>();
    ASSERT_NE(module_, nullptr);
  }

  kern::Process& proc() { return kernel_.proc(); }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  fuse::FuseModule* module_ = nullptr;
};

TEST_F(FuseTest, RequestsAreCounted) {
  const auto before = module_->conn_stats().requests;
  auto fd = kernel_.open(proc(), "/mnt/f", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  // At least create + open + flush-side traffic crossed the transport.
  EXPECT_GT(module_->conn_stats().requests, before);
}

TEST_F(FuseTest, CachedReadsDoNotCrossTheTransport) {
  // Write + read back twice: the second read must be served from the
  // kernel page cache without a FUSE request (the §6.5.1 result).
  auto fd = kernel_.open(proc(), "/mnt/c", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> data(8192, std::byte{5});
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), data).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));

  std::vector<std::byte> buf(8192);
  ASSERT_TRUE(kernel_.pread(proc(), fd.value(), buf, 0).ok());  // warms
  const auto before = module_->conn_stats().requests;
  ASSERT_TRUE(kernel_.pread(proc(), fd.value(), buf, 0).ok());  // cached
  EXPECT_EQ(module_->conn_stats().requests, before);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(FuseTest, PayloadBytesAccounted) {
  auto fd = kernel_.open(proc(), "/mnt/p", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  const auto before = module_->conn_stats().payload_bytes;
  std::vector<std::byte> data(64 * 1024, std::byte{1});
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), data).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));  // pushes writeback
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  // The 64 KiB of dirty pages crossed the boundary (plus metadata traffic).
  EXPECT_GE(module_->conn_stats().payload_bytes - before, 64u * 1024u);
}

TEST_F(FuseTest, DurableBlockWritesFsyncTheDiskFile) {
  // The §6.4 behaviour: each batch of block writes from the daemon is
  // pwrites + fsync of the whole disk file. One commit (forced here by
  // fsync — group commit would otherwise defer the create's transaction)
  // must produce several fsyncs of the backing device.
  const auto flushes_before = kernel_.device("ssd0")->stats().flushes;
  auto fd = kernel_.open(proc(), "/mnt/d", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  const auto flushes_after = kernel_.device("ssd0")->stats().flushes;
  EXPECT_GE(flushes_after - flushes_before, 4u);  // log + header + install…
}

TEST_F(FuseTest, WritebackRunsAreChunkedToMaxWritePages) {
  // A 1 MiB dirty run must be split into requests of at most
  // kMaxPages pages (the FUSE max_write limit).
  auto fd = kernel_.open(proc(), "/mnt/big", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> mb(1 << 20, std::byte{2});
  const auto before = module_->conn_stats().requests;
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), mb).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  const auto writes =
      module_->conn_stats().requests - before;
  // 256 pages / 32 pages-per-request = at least 8 write requests.
  EXPECT_GE(writes, 8u);
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
}

TEST_F(FuseTest, DataSurvivesRemountThroughUserspacePath) {
  auto fd = kernel_.open(proc(), "/mnt/persist", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("via daemon")).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  // Remount through the *kernel* deployment: same on-disk format, so the
  // data written via the FUSE daemon must be readable via BentoFS.
  ASSERT_EQ(Err::Ok, kernel_.mount("xv6_bento", "ssd0", "/mnt"));
  auto fd2 = kernel_.open(proc(), "/mnt/persist", kern::kORdOnly);
  ASSERT_TRUE(fd2.ok());
  std::vector<std::byte> buf(32);
  auto r = kernel_.read(proc(), fd2.value(), buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "via daemon");
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd2.value()));
}

TEST_F(FuseTest, MetadataOpsAreMuchSlowerThanKernelBento) {
  // The headline asymmetry, asserted as a property: creating a file via
  // FUSE costs at least 20x more virtual time than via kernel Bento.
  // Both sides mount "-o nogroup" so the create's transaction commits at
  // end_op (group commit would defer it past the measurement; an fsync
  // would bury the asymmetry under the device FLUSH both sides share).
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount("xv6_fuse", "ssd0", "/mnt", "nogroup"));
  const sim::Nanos t0 = sim::now();
  auto fd = kernel_.open(proc(), "/mnt/slow", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  const sim::Nanos fuse_cost = sim::now() - t0;

  blk::DeviceParams params;
  params.nblocks = 32768;
  auto& dev2 = kernel_.add_device("ssd1", params);
  xv6::mkfs(dev2, 4096);
  ASSERT_EQ(Err::Ok, kernel_.mount("xv6_bento", "ssd1", "/mnt2", "nogroup"));
  const sim::Nanos t1 = sim::now();
  auto fd2 = kernel_.open(proc(), "/mnt2/fast", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd2.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd2.value()));
  const sim::Nanos bento_cost = sim::now() - t1;

  EXPECT_GT(fuse_cost, 20 * bento_cost)
      << "fuse=" << fuse_cost << "ns bento=" << bento_cost << "ns";
}

}  // namespace
}  // namespace bsim::test
