// Integration tests for ExtFUSE (paper §2.2, [5]): eBPF metadata caches
// attached to the FUSE driver — hit/miss behaviour, coherence under
// mutation, and the performance delta the design exists for.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.h"
#include "fuse/extfuse.h"

namespace bsim::test {
namespace {

using kern::Err;

class ExtFuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 32768;
    auto& dev = kernel_.add_device("ssd0", params);
    xv6::mkfs(dev, 4096);
    wl::register_deployments(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount("xv6_fuse", "ssd0", "/mnt", "extfuse"));
    module_ = kernel_.sb_at("/mnt")->fs<fuse::FuseModule>();
    ASSERT_NE(nullptr, module_);
    ASSERT_NE(nullptr, module_->extfuse());
  }

  kern::Process& proc() { return kernel_.proc(); }
  const fuse::ExtFuseFilter::Stats& stats() {
    return module_->extfuse()->stats();
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  fuse::FuseModule* module_ = nullptr;
};

TEST_F(ExtFuseTest, MountWithOptionAttachesFilter) {
  EXPECT_NE(nullptr, module_->extfuse());
}

TEST_F(ExtFuseTest, MountWithoutOptionHasNoFilter) {
  blk::DeviceParams params;
  params.nblocks = 32768;
  auto& dev = kernel_.add_device("ssd1", params);
  xv6::mkfs(dev, 4096);
  ASSERT_EQ(Err::Ok, kernel_.mount("xv6_fuse", "ssd1", "/mnt2"));
  auto* plain = kernel_.sb_at("/mnt2")->fs<fuse::FuseModule>();
  ASSERT_NE(nullptr, plain);
  EXPECT_EQ(nullptr, plain->extfuse());
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt2"));
}

TEST_F(ExtFuseTest, RepeatedStatHitsTheAttrCache) {
  auto fd = kernel_.open(proc(), "/mnt/hot.txt",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  for (int i = 0; i < 10; ++i) {
    auto st = kernel_.stat(proc(), "/mnt/hot.txt");
    ASSERT_TRUE(st.ok());
  }
  EXPECT_GT(stats().attr_hits + stats().entry_hits, 0U);
  EXPECT_GT(stats().installs, 0U);
}

TEST_F(ExtFuseTest, CachedStatMatchesPassthroughStat) {
  auto fd = kernel_.open(proc(), "/mnt/same.txt",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  const std::string data(1234, 'd');
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes(data)).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  auto first = kernel_.stat(proc(), "/mnt/same.txt");   // install
  auto second = kernel_.stat(proc(), "/mnt/same.txt");  // may hit
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().ino, second.value().ino);
  EXPECT_EQ(first.value().size, second.value().size);
  EXPECT_EQ(1234U, second.value().size);
  EXPECT_EQ(first.value().mode, second.value().mode);
}

TEST_F(ExtFuseTest, WriteInvalidatesAttrCache) {
  // Sizes become visible at close (writeback flush), same as the plain
  // FUSE deployment; what ExtFUSE must not do is serve the *old* size
  // from its map after the file grows.
  auto fd = kernel_.open(proc(), "/mnt/grow.txt",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("1111")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  auto st1 = kernel_.stat(proc(), "/mnt/grow.txt");
  ASSERT_TRUE(st1.ok());
  EXPECT_EQ(4U, st1.value().size);
  (void)kernel_.stat(proc(), "/mnt/grow.txt");  // warm the cache

  fd = kernel_.open(proc(), "/mnt/grow.txt",
                    kern::kOWrOnly | kern::kOAppend);
  ASSERT_TRUE(fd.ok());
  const std::string more(10000, 'm');
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes(more)).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  auto st2 = kernel_.stat(proc(), "/mnt/grow.txt");
  ASSERT_TRUE(st2.ok());
  EXPECT_EQ(10004U, st2.value().size);  // stale 4 = a coherence bug
}

TEST_F(ExtFuseTest, TruncateInvalidatesAttrCache) {
  auto fd = kernel_.open(proc(), "/mnt/shrink.txt",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(),
                            as_bytes(std::string(5000, 's'))).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  (void)kernel_.stat(proc(), "/mnt/shrink.txt");  // warm
  (void)kernel_.stat(proc(), "/mnt/shrink.txt");

  ASSERT_EQ(Err::Ok, kernel_.truncate(proc(), "/mnt/shrink.txt", 100));
  auto st = kernel_.stat(proc(), "/mnt/shrink.txt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(100U, st.value().size);
}

TEST_F(ExtFuseTest, UnlinkInvalidatesEntryCache) {
  auto fd = kernel_.open(proc(), "/mnt/dead.txt",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  (void)kernel_.stat(proc(), "/mnt/dead.txt");  // warm entry cache
  (void)kernel_.stat(proc(), "/mnt/dead.txt");

  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/dead.txt"));
  auto st = kernel_.stat(proc(), "/mnt/dead.txt");
  EXPECT_FALSE(st.ok());  // a cached positive entry here = stale namespace
}

TEST_F(ExtFuseTest, RenameInvalidatesBothNames) {
  auto fd = kernel_.open(proc(), "/mnt/old.txt",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  (void)kernel_.stat(proc(), "/mnt/old.txt");
  (void)kernel_.stat(proc(), "/mnt/old.txt");

  ASSERT_EQ(Err::Ok, kernel_.rename(proc(), "/mnt/old.txt", "/mnt/new.txt"));
  EXPECT_FALSE(kernel_.stat(proc(), "/mnt/old.txt").ok());
  EXPECT_TRUE(kernel_.stat(proc(), "/mnt/new.txt").ok());
}

TEST_F(ExtFuseTest, HitPathIsCheaperThanDaemonRoundTrip) {
  auto fd = kernel_.open(proc(), "/mnt/fast.txt",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  // First stat (cold): daemon round trips. Second stat (warm): map hits.
  const auto t0 = sim::now();
  ASSERT_TRUE(kernel_.stat(proc(), "/mnt/fast.txt").ok());
  const auto cold = sim::now() - t0;
  const auto t1 = sim::now();
  ASSERT_TRUE(kernel_.stat(proc(), "/mnt/fast.txt").ok());
  const auto warm = sim::now() - t1;
  EXPECT_LT(warm, cold / 2);
}

TEST_F(ExtFuseTest, InvalidationsAreCounted) {
  auto fd = kernel_.open(proc(), "/mnt/count.txt",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  (void)kernel_.stat(proc(), "/mnt/count.txt");  // install
  const auto before = stats().invalidations;
  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/count.txt"));
  EXPECT_GT(stats().invalidations, before);
}

}  // namespace
}  // namespace bsim::test
