// Composition tests (paper §3.4 / Challenge 6): Bento's answer to
// stackable file systems is direct FileSystem-to-FileSystem dispatch, so
// the layers must compose arbitrarily. We stack three deep — encryption
// over an overlay over xv6 — and check the combined semantics: container-
// style upper/lower merging underneath, ciphertext at rest in the upper
// layer, plaintext through the top.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "../testutil.h"
#include "bento/crypt.h"
#include "bento/overlay.h"
#include "bento/provenance.h"

namespace bsim::test {
namespace {

using kern::Err;

/// crypt( overlay( lower=xv6, upper=xv6 ) )
class CompositionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);

    auto lower = xv6_user_mount();
    // Seed the read-only image with a base file (plaintext on the image,
    // like a container base layer distributed unencrypted).
    {
      auto& fs = lower->fs();
      auto made = fs.create(lower->mkreq(), lower->borrow(), bento::kRootIno,
                            "base.txt", 0644);
      ASSERT_TRUE(made.ok());
      auto w = fs.write(lower->mkreq(), lower->borrow(), made.value().ino, 0,
                        0, as_bytes("image contents"));
      ASSERT_TRUE(w.ok());
      lower->check_borrows();
    }
    auto upper = xv6_user_mount();
    layers_ = {lower.get(), upper.get()};

    // The overlay unions two separately formatted images, each behind its
    // own mount; the backend under the stack is never touched.
    auto overlay = std::make_unique<bento::OverlayFs>(std::move(lower),
                                                      std::move(upper));
    overlay_raw_ = overlay.get();
    auto crypt = std::make_unique<bento::CryptFs>(
        std::move(overlay), bento::derive_key("stack", "salt", 64));
    crypt_raw_ = crypt.get();
    top_ = std::make_unique<bento::UserMount>(
        std::make_unique<bento::MemBlockBackend>(64), std::move(crypt));
    ASSERT_EQ(Err::Ok, top_->mount_init());
  }

  bento::Ino lookup_top(std::string_view name) {
    auto r = crypt_raw_->lookup(top_->mkreq(), top_->borrow(),
                                bento::kRootIno, name);
    EXPECT_TRUE(r.ok()) << name;
    top_->check_borrows();
    return r.ok() ? r.value().ino : 0;
  }

  std::string read_top(bento::Ino ino, std::size_t n) {
    std::vector<std::byte> buf(n);
    auto r = crypt_raw_->read(top_->mkreq(), top_->borrow(), ino, 0, 0, buf);
    EXPECT_TRUE(r.ok());
    top_->check_borrows();
    buf.resize(r.value());
    return to_string(buf);
  }

  sim::SimThread thread_{0};
  std::unique_ptr<bento::UserMount> top_;
  bento::CryptFs* crypt_raw_ = nullptr;
  bento::OverlayFs* overlay_raw_ = nullptr;
  std::array<bento::UserMount*, 2> layers_{};  // the overlay's lower, upper
};

TEST_F(CompositionTest, WritesThroughAllThreeLayers) {
  auto made = crypt_raw_->create(top_->mkreq(), top_->borrow(),
                                 bento::kRootIno, "new.txt", 0644);
  ASSERT_TRUE(made.ok());
  top_->check_borrows();
  auto w = crypt_raw_->write(top_->mkreq(), top_->borrow(), made.value().ino,
                             0, 0, as_bytes("through the stack"));
  ASSERT_TRUE(w.ok());
  top_->check_borrows();
  EXPECT_EQ("through the stack", read_top(made.value().ino, 17));
}

TEST_F(CompositionTest, CopyUpHappensBelowTheCipher) {
  // NOTE: the base file was written unencrypted into the lower image, so
  // reading it through the crypt layer yields cipher-decoded bytes — this
  // test exercises the *write* path: writing to a lower-layer file
  // triggers the overlay's copy-up, and the new upper-layer bytes are the
  // crypt layer's ciphertext.
  const auto ino = lookup_top("base.txt");
  ASSERT_NE(0U, ino);
  const auto before = overlay_raw_->copy_ups();
  auto w = crypt_raw_->write(top_->mkreq(), top_->borrow(), ino, 0, 0,
                             as_bytes("REWRITTEN-BY-CRYPT"));
  ASSERT_TRUE(w.ok());
  top_->check_borrows();
  EXPECT_GT(overlay_raw_->copy_ups(), before);
  EXPECT_EQ("REWRITTEN-BY-CRYPT", read_top(ino, 18));
}

TEST_F(CompositionTest, UpperLayerHoldsCiphertext) {
  auto made = crypt_raw_->create(top_->mkreq(), top_->borrow(),
                                 bento::kRootIno, "secret.txt", 0644);
  ASSERT_TRUE(made.ok());
  top_->check_borrows();
  const std::string msg = "nothing to see in the container layer";
  auto w = crypt_raw_->write(top_->mkreq(), top_->borrow(), made.value().ino,
                             0, 0, as_bytes(msg));
  ASSERT_TRUE(w.ok());
  top_->check_borrows();

  // Read the same file through the overlay directly (below the cipher).
  auto& overlay = crypt_raw_->lower();
  auto looked = overlay.lookup(top_->mkreq(), top_->borrow(), bento::kRootIno,
                               "secret.txt");
  ASSERT_TRUE(looked.ok());
  std::vector<std::byte> buf(msg.size());
  auto r = overlay.read(top_->mkreq(), top_->borrow(), looked.value().ino, 0,
                        0, buf);
  ASSERT_TRUE(r.ok());
  top_->check_borrows();
  EXPECT_NE(msg, to_string(buf));
  EXPECT_EQ(std::string::npos, to_string(buf).find("container"));
}

TEST_F(CompositionTest, ReaddirComposesThroughTheStack) {
  auto made = crypt_raw_->create(top_->mkreq(), top_->borrow(),
                                 bento::kRootIno, "upper-only.txt", 0644);
  ASSERT_TRUE(made.ok());
  top_->check_borrows();

  std::vector<std::string> names;
  std::uint64_t pos = 0;
  auto rd = crypt_raw_->readdir(top_->mkreq(), top_->borrow(),
                                bento::kRootIno, pos,
                                [&](const kern::DirEnt& e) {
                                  names.push_back(e.name);
                                  return true;
                                });
  EXPECT_EQ(Err::Ok, rd);
  top_->check_borrows();
  // Both the lower-image file and the new file are visible, merged.
  EXPECT_NE(names.end(), std::find(names.begin(), names.end(), "base.txt"));
  EXPECT_NE(names.end(),
            std::find(names.begin(), names.end(), "upper-only.txt"));
}

TEST_F(CompositionTest, AllLedgersBalancedAfterStackedOps) {
  auto made = crypt_raw_->create(top_->mkreq(), top_->borrow(),
                                 bento::kRootIno, "bal.txt", 0644);
  ASSERT_TRUE(made.ok());
  top_->check_borrows();
  (void)read_top(made.value().ino, 1);
  EXPECT_TRUE(top_->ledger().balanced());
  for (auto* layer : layers_) EXPECT_TRUE(layer->ledger().balanced());
}

// ---- every stacked layer, one over xv6 ----
//
// The layers share one shape (StackedFs): an op a layer leaves alone must
// reach the file system below it with the caller's capability.

struct LayerCase {
  const char* name;
  std::function<std::unique_ptr<bento::FileSystem>(
      std::unique_ptr<bento::FileSystem>)>
      over;
};

class StackedLayerTest : public ::testing::TestWithParam<LayerCase> {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    auto xv6 = std::make_unique<xv6::Xv6FileSystem>();
    xv6_ = xv6.get();
    mount_ = std::make_unique<bento::UserMount>(
        xv6_image(), GetParam().over(std::move(xv6)));
    ASSERT_EQ(Err::Ok, mount_->mount_init());
  }

  sim::SimThread thread_{0};
  std::unique_ptr<bento::UserMount> mount_;
  xv6::Xv6FileSystem* xv6_ = nullptr;
};

TEST_P(StackedLayerTest, OpsTheLayerLeavesAloneReachXv6) {
  auto& fs = mount_->fs();

  // forget: an unlinked file's blocks go back to xv6's allocator.
  const auto free0 = xv6_->free_data_blocks();
  auto made = fs.create(mount_->mkreq(), mount_->borrow(), bento::kRootIno,
                        "big", 0644);
  ASSERT_TRUE(made.ok());
  const bento::Ino ino = made.value().ino;
  const std::vector<std::byte> data(64 << 10, std::byte{7});
  ASSERT_TRUE(fs.write(mount_->mkreq(), mount_->borrow(), ino, 0, 0, data)
                  .ok());
  ASSERT_EQ(Err::Ok,
            fs.fsync(mount_->mkreq(), mount_->borrow(), ino, 0, false));
  ASSERT_EQ(Err::Ok, fs.unlink(mount_->mkreq(), mount_->borrow(),
                               bento::kRootIno, "big"));
  fs.forget(mount_->mkreq(), mount_->borrow(), ino);
  EXPECT_EQ(xv6_->free_data_blocks(), free0);

  // fsyncdir: xv6 implements it.
  auto dir = fs.mkdir(mount_->mkreq(), mount_->borrow(), bento::kRootIno,
                      "d", 0755);
  ASSERT_TRUE(dir.ok());
  auto fh = fs.opendir(mount_->mkreq(), mount_->borrow(), dir.value().ino);
  ASSERT_TRUE(fh.ok());
  EXPECT_EQ(Err::Ok, fs.fsyncdir(mount_->mkreq(), mount_->borrow(),
                                 dir.value().ino, fh.value(), false));

  // dump_stats: the stacked xv6 reports its journal too.
  sim::JsonWriter w;
  w.begin_array();
  fs.dump_stats(w);
  w.end_array();
  EXPECT_NE(std::string::npos, w.str().find("\"LogStats\"")) << w.str();

  mount_->check_borrows();
}

INSTANTIATE_TEST_SUITE_P(
    Layers, StackedLayerTest,
    ::testing::Values(
        LayerCase{"crypt",
                  [](std::unique_ptr<bento::FileSystem> lower) {
                    return std::make_unique<bento::CryptFs>(
                        std::move(lower), bento::derive_key("k", "s", 4));
                  }},
        LayerCase{"provenance",
                  [](std::unique_ptr<bento::FileSystem> lower) {
                    return std::make_unique<bento::ProvenanceFs>(
                        std::move(lower));
                  }},
        LayerCase{"nvmlog",
                  [](std::unique_ptr<bento::FileSystem> lower) {
                    return std::make_unique<bento::NvmLogFs>(
                        std::move(lower),
                        std::make_shared<blk::NvmRegion>(blk::NvmParams{}));
                  }}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace bsim::test
