// Tests for the composable overlay file system (paper §3 / Challenge 6):
// layer merging, copy-up, whiteouts, and mounting the overlay in the
// kernel like any other Bento module.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../testutil.h"
#include "bento/overlay.h"

namespace bsim::test {
namespace {

using kern::Err;

void put_file(bento::UserMount& layer, bento::Ino dir, std::string_view name,
              std::string_view contents) {
  auto& fs = layer.fs();
  auto made = fs.create(layer.mkreq(), layer.borrow(), dir, name, 0644);
  ASSERT_TRUE(made.ok());
  auto w = fs.write(layer.mkreq(), layer.borrow(), made.value().ino, 0, 0,
                    as_bytes(contents));
  ASSERT_TRUE(w.ok());
  layer.check_borrows();
}

class OverlayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    auto lower = xv6_user_mount();
    // Pre-populate the read-only lower layer (the "container image").
    put_file(*lower, bento::kRootIno, "base.txt", "from the image");
    auto etc = lower->fs().mkdir(lower->mkreq(), lower->borrow(),
                                 bento::kRootIno, "etc", 0755);
    ASSERT_TRUE(etc.ok());
    put_file(*lower, etc.value().ino, "config", "default config");
    lower->check_borrows();

    auto upper = xv6_user_mount();
    lower_raw_ = lower.get();

    // Mount the overlay in the kernel like any other Bento module.
    blk::DeviceParams params;
    params.nblocks = 4096;  // the overlay itself needs no real device
    kernel_.add_device("ssd0", params);
    auto overlay = std::make_unique<bento::OverlayFs>(std::move(lower),
                                                      std::move(upper));
    overlay_raw_ = overlay.get();
    // Factory hands over the pre-built instance exactly once.
    auto* slot = new std::unique_ptr<bento::OverlayFs>(std::move(overlay));
    bento::register_bento_fs(kernel_, "overlay", [slot] {
      std::unique_ptr<bento::FileSystem> fs = std::move(*slot);
      delete slot;
      return fs;
    });
    ASSERT_EQ(Err::Ok, kernel_.mount("overlay", "ssd0", "/ov"));
  }

  kern::Process& proc() { return kernel_.proc(); }

  std::string read_all(const std::string& path) {
    auto fd = kernel_.open(proc(), path, kern::kORdOnly);
    if (!fd.ok()) return "<" + std::string(kern::err_name(fd.error())) + ">";
    std::vector<std::byte> buf(4096);
    auto r = kernel_.read(proc(), fd.value(), buf);
    (void)kernel_.close(proc(), fd.value());
    if (!r.ok()) return "<read err>";
    return to_string({buf.data(), r.value()});
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  bento::OverlayFs* overlay_raw_ = nullptr;
  bento::UserMount* lower_raw_ = nullptr;
};

TEST_F(OverlayTest, LowerLayerFilesAreVisible) {
  EXPECT_EQ(read_all("/ov/base.txt"), "from the image");
  EXPECT_EQ(read_all("/ov/etc/config"), "default config");
}

TEST_F(OverlayTest, WriteTriggersCopyUpAndPreservesLower) {
  auto fd = kernel_.open(proc(), "/ov/base.txt", kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.pwrite(proc(), fd.value(), as_bytes("FROM"), 0).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));

  EXPECT_EQ(read_all("/ov/base.txt"), "FROM the image");
  EXPECT_EQ(overlay_raw_->copy_ups(), 1u);

  // The lower layer is untouched (the defining overlay property).
  auto& lfs = lower_raw_->fs();
  auto low = lfs.lookup(lower_raw_->mkreq(), lower_raw_->borrow(),
                        bento::kRootIno, "base.txt");
  ASSERT_TRUE(low.ok());
  std::vector<std::byte> buf(64);
  auto r = lfs.read(lower_raw_->mkreq(), lower_raw_->borrow(),
                    low.value().ino, 0, 0, buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "from the image");
}

TEST_F(OverlayTest, CopyUpInNestedDirectoryBuildsUpperChain) {
  auto fd = kernel_.open(proc(), "/ov/etc/config", kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.pwrite(proc(), fd.value(), as_bytes("customs"), 0).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_EQ(read_all("/ov/etc/config"), "customs config");
}

TEST_F(OverlayTest, DeleteLowerFileCreatesWhiteout) {
  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/ov/base.txt"));
  EXPECT_EQ(kernel_.stat(proc(), "/ov/base.txt").error(), Err::NoEnt);
  // Recreating after deletion works and shadows the lower file.
  auto fd = kernel_.open(proc(), "/ov/base.txt",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("reborn")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_EQ(read_all("/ov/base.txt"), "reborn");
}

TEST_F(OverlayTest, NewFilesGoToUpperLayer) {
  auto fd = kernel_.open(proc(), "/ov/fresh", kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes("new data")).ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  EXPECT_EQ(read_all("/ov/fresh"), "new data");
  EXPECT_EQ(overlay_raw_->copy_ups(), 0u);  // creation is not copy-up

  // Not present in the lower layer.
  auto low = lower_raw_->fs().lookup(lower_raw_->mkreq(),
                                     lower_raw_->borrow(), bento::kRootIno,
                                     "fresh");
  EXPECT_FALSE(low.ok());
}

TEST_F(OverlayTest, ReaddirMergesLayersAndHidesWhiteouts) {
  auto fd = kernel_.open(proc(), "/ov/upper-only",
                         kern::kOCreat | kern::kOWrOnly);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/ov/base.txt"));

  auto entries = kernel_.readdir(proc(), "/ov");
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> names;
  for (const auto& e : entries.value()) names.push_back(e.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "upper-only"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "etc"), names.end());
  // Deleted lower file hidden; whiteout markers never leak.
  EXPECT_EQ(std::find(names.begin(), names.end(), "base.txt"), names.end());
  for (const auto& n : names) EXPECT_FALSE(n.starts_with(".wh."));
}

TEST_F(OverlayTest, TruncateCopiesUp) {
  ASSERT_EQ(Err::Ok, kernel_.truncate(proc(), "/ov/base.txt", 4));
  EXPECT_EQ(read_all("/ov/base.txt"), "from");
  EXPECT_EQ(overlay_raw_->copy_ups(), 1u);
}

}  // namespace
}  // namespace bsim::test
