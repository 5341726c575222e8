// Composition tests (paper §3.4 / Challenge 6): Bento's answer to
// stackable file systems is direct FileSystem-to-FileSystem dispatch, so
// the layers must compose. We stack three deep — encryption over
// provenance over xv6, one mount over one xv6 image — and check the
// combined semantics: plaintext through the top, provenance recorded in
// the middle, ciphertext at rest in xv6, and one ledger for the whole
// stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "../testutil.h"
#include "bento/crypt.h"
#include "bento/provenance.h"

namespace bsim::test {
namespace {

using kern::Err;

/// crypt( provenance( xv6 ) ) over one xv6 image.
class CompositionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    mount_ = std::make_unique<bento::UserMount>(xv6_image(), make_stack());
    ASSERT_EQ(Err::Ok, mount_->mount_init());
  }

  /// A fresh stack; the raw pointers name its layers from now on.
  std::unique_ptr<bento::FileSystem> make_stack() {
    auto xv6 = std::make_unique<xv6::Xv6FileSystem>();
    xv6_ = xv6.get();
    auto prov = std::make_unique<bento::ProvenanceFs>(std::move(xv6));
    prov_ = prov.get();
    auto crypt = std::make_unique<bento::CryptFs>(
        std::move(prov), bento::derive_key("stack", "salt", 64));
    crypt_ = crypt.get();
    return crypt;
  }

  bento::Request req_as(std::uint32_t pid) {
    auto r = mount_->mkreq();
    r.pid = pid;
    return r;
  }

  bento::Ino create_top(std::string_view name) {
    auto made = crypt_->create(mount_->mkreq(), mount_->borrow(),
                               bento::kRootIno, name, 0644);
    EXPECT_TRUE(made.ok()) << name;
    EXPECT_TRUE(mount_->ledger().balanced());
    return made.ok() ? made.value().ino : 0;
  }

  void write_top(bento::Ino ino, std::string_view data,
                 std::uint32_t pid = 0) {
    auto w = crypt_->write(req_as(pid), mount_->borrow(), ino, 0, 0,
                           as_bytes(data));
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE(mount_->ledger().balanced());
  }

  /// Read `n` bytes at offset 0 from `layer`, one of the stack's layers.
  std::string read_at(bento::FileSystem& layer, bento::Ino ino, std::size_t n,
                      std::uint32_t pid = 0) {
    std::vector<std::byte> buf(n);
    auto r = layer.read(req_as(pid), mount_->borrow(), ino, 0, 0, buf);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(mount_->ledger().balanced());
    buf.resize(r.ok() ? r.value() : 0);
    return to_string(buf);
  }

  sim::SimThread thread_{0};
  std::unique_ptr<bento::UserMount> mount_;
  bento::CryptFs* crypt_ = nullptr;
  bento::ProvenanceFs* prov_ = nullptr;
  xv6::Xv6FileSystem* xv6_ = nullptr;
};

TEST_F(CompositionTest, WritesThroughAllThreeLayers) {
  const auto ino = create_top("new.txt");
  ASSERT_NE(0U, ino);
  prov_->register_process(1, "tool");
  write_top(ino, "through the stack", 1);

  // The provenance layer recorded the write: the version's one input is
  // the writer's image.
  const std::set<bento::ProvSource> writer{bento::ProvSource::img("tool")};
  EXPECT_EQ(writer, prov_->store().sources_of(ino));
  EXPECT_EQ("through the stack", read_at(*crypt_, ino, 17));
  // xv6 holds the bytes, and they are what the layer above it sees.
  auto attr = xv6_->getattr(mount_->mkreq(), mount_->borrow(), ino);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(17U, attr.value().size);
  EXPECT_EQ(read_at(*xv6_, ino, 17), read_at(crypt_->lower(), ino, 17));
}

TEST_F(CompositionTest, Xv6HoldsCiphertext) {
  const auto ino = create_top("secret.txt");
  ASSERT_NE(0U, ino);
  const std::string msg = "nothing to see in the lower image";
  write_top(ino, msg);

  // Read the same file below the cipher, through the provenance layer.
  const auto below = read_at(crypt_->lower(), ino, msg.size());
  EXPECT_EQ(msg.size(), below.size());
  EXPECT_NE(msg, below);
  EXPECT_EQ(std::string::npos, below.find("lower image"));
}

TEST_F(CompositionTest, ReaddirComposesThroughTheStack) {
  ASSERT_NE(0U, create_top("a.txt"));
  ASSERT_NE(0U, create_top("b.txt"));

  std::vector<std::string> names;
  std::uint64_t pos = 0;
  auto rd = crypt_->readdir(mount_->mkreq(), mount_->borrow(),
                            bento::kRootIno, pos, [&](const kern::DirEnt& e) {
                              names.push_back(e.name);
                              return true;
                            });
  EXPECT_EQ(Err::Ok, rd);
  EXPECT_TRUE(mount_->ledger().balanced());
  EXPECT_NE(names.end(), std::find(names.begin(), names.end(), "a.txt"));
  EXPECT_NE(names.end(), std::find(names.begin(), names.end(), "b.txt"));
}

TEST_F(CompositionTest, LedgerBalancedAfterStackedOps) {
  // One mount, one ledger: every layer borrows the capability the mount
  // lends the top.
  const auto ino = create_top("bal.txt");
  ASSERT_NE(0U, ino);
  write_top(ino, "x");
  (void)read_at(*crypt_, ino, 1);
  EXPECT_EQ(Err::Ok, crypt_->fsync(mount_->mkreq(), mount_->borrow(), ino, 0,
                                   false));
  EXPECT_EQ(Err::Ok, crypt_->unlink(mount_->mkreq(), mount_->borrow(),
                                    bento::kRootIno, "bal.txt"));
  EXPECT_TRUE(mount_->ledger().balanced());
}

TEST_F(CompositionTest, UpgradeMovesTheWholeStack) {
  // pid 1 writes and reads a file: the store holds a version and a read set.
  const auto in = create_top("in.txt");
  ASSERT_NE(0U, in);
  write_top(in, "before the upgrade", 1);
  ASSERT_EQ("before the upgrade", read_at(*crypt_, in, 18, 1));
  const auto tracked = prov_->store().tracked_files();
  ASSERT_EQ(1U, tracked);

  // Upgrade to a fresh stack. The state passes down through the stateless
  // cipher: provenance adopts the old graph, xv6 its in-memory state.
  ASSERT_EQ(Err::Ok, mount_->upgrade(make_stack()));
  EXPECT_TRUE(mount_->ledger().balanced());
  EXPECT_TRUE(xv6_->restored_from_transfer());
  EXPECT_EQ(tracked, prov_->store().tracked_files());
  EXPECT_EQ("before the upgrade", read_at(*crypt_, in, 18, 1));

  // pid 1's read set came along: what it writes now derives from in.txt.
  const auto out = create_top("out.txt");
  ASSERT_NE(0U, out);
  write_top(out, "derived", 1);
  const auto sources = prov_->store().sources_of(out);
  EXPECT_TRUE(std::any_of(sources.begin(), sources.end(),
                          [&](const bento::ProvSource& s) {
                            return s.kind ==
                                       bento::ProvSource::Kind::FileVersion &&
                                   s.ino == in;
                          }));
  EXPECT_TRUE(mount_->ledger().balanced());
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
