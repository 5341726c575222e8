// Tests for the encryption stacking file system (paper §3.4, the ecryptfs
// use case) and its ChaCha20 cipher, including the RFC 8439 vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "../testutil.h"
#include "bento/chacha.h"
#include "bento/crypt.h"

namespace bsim::test {
namespace {

using bento::ChaChaKey;
using bento::ChaChaNonce;
using kern::Err;

// ---- ChaCha20 primitive ----

TEST(ChaCha20Test, Rfc8439BlockFunctionVector) {
  // RFC 8439 §2.3.2: key 00 01 .. 1f, nonce 00:00:00:09:00:00:00:4a:00:00:
  // 00:00, counter 1.
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  ChaChaNonce nonce{};
  nonce[3] = 0x09;
  nonce[7] = 0x4a;
  const auto block = bento::chacha20_block(key, nonce, 1);

  static constexpr std::uint8_t kExpected[64] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  EXPECT_EQ(0, std::memcmp(block.data(), kExpected, 64));
}

TEST(ChaCha20Test, Rfc8439EncryptionVector) {
  // RFC 8439 §2.4.2: the "Ladies and Gentlemen" plaintext, counter 1.
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  ChaChaNonce nonce{};
  nonce[7] = 0x4a;

  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::byte> buf(plaintext.size());
  std::memcpy(buf.data(), plaintext.data(), plaintext.size());
  // Counter starts at 1 = keystream byte offset 64.
  bento::chacha20_xor(key, nonce, 64, buf);

  static constexpr std::uint8_t kCipherHead[16] = {
      0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80,
      0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d, 0x69, 0x81};
  static constexpr std::uint8_t kCipherTail[10] = {
      0xb4, 0x0b, 0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d};  // last 10
  EXPECT_EQ(0, std::memcmp(buf.data(), kCipherHead, sizeof kCipherHead));
  EXPECT_EQ(0, std::memcmp(buf.data() + buf.size() - sizeof kCipherTail,
                           kCipherTail, sizeof kCipherTail));

  // Involution: XOR again restores the plaintext.
  bento::chacha20_xor(key, nonce, 64, buf);
  EXPECT_EQ(plaintext, to_string(buf));
}

TEST(ChaCha20Test, XorIsOffsetConsistent) {
  // Ciphering a buffer in arbitrary slices must equal ciphering it whole —
  // the property CryptFs relies on for unaligned reads and writes.
  ChaChaKey key{};
  key[0] = 0xab;
  ChaChaNonce nonce{};
  std::vector<std::byte> whole(1000);
  for (std::size_t i = 0; i < whole.size(); ++i)
    whole[i] = static_cast<std::byte>(i * 7);
  std::vector<std::byte> sliced = whole;

  bento::chacha20_xor(key, nonce, 0, whole);
  std::size_t at = 0;
  for (const std::size_t len : {1UL, 63UL, 64UL, 65UL, 300UL, 507UL}) {
    bento::chacha20_xor(key, nonce, at,
                        std::span<std::byte>(sliced).subspan(at, len));
    at += len;
  }
  ASSERT_EQ(at, whole.size());
  EXPECT_EQ(whole, sliced);
}

TEST(ChaCha20Test, KdfIsDeterministicAndSaltSensitive) {
  const auto k1 = bento::derive_key("hunter2", "salt-a", 128);
  const auto k2 = bento::derive_key("hunter2", "salt-a", 128);
  const auto k3 = bento::derive_key("hunter2", "salt-b", 128);
  const auto k4 = bento::derive_key("hunter3", "salt-a", 128);
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_NE(k1, k4);
}

// ---- CryptFs stacked over xv6 ----

class CryptFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    auto crypt = std::make_unique<bento::CryptFs>(
        std::make_unique<xv6::Xv6FileSystem>(),
        bento::derive_key("test-pass", "test-salt", 64));
    fs_ = crypt.get();
    mount_ = std::make_unique<bento::UserMount>(xv6_image(), std::move(crypt));
    ASSERT_EQ(Err::Ok, mount_->mount_init());
  }

  bento::Ino create_file(std::string_view name) {
    auto made = fs_->create(mount_->mkreq(), mount_->borrow(), bento::kRootIno,
                            name, 0644);
    EXPECT_TRUE(made.ok());
    mount_->check_borrows();
    return made.value().ino;
  }

  void write_at(bento::Ino ino, std::uint64_t off, std::string_view data) {
    auto w = fs_->write(mount_->mkreq(), mount_->borrow(), ino, 0, off,
                        as_bytes(data));
    ASSERT_TRUE(w.ok());
    ASSERT_EQ(data.size(), w.value());
    mount_->check_borrows();
  }

  std::string read_at(bento::Ino ino, std::uint64_t off, std::size_t n) {
    std::vector<std::byte> buf(n);
    auto r = fs_->read(mount_->mkreq(), mount_->borrow(), ino, 0, off, buf);
    EXPECT_TRUE(r.ok());
    mount_->check_borrows();
    buf.resize(r.value());
    return to_string(buf);
  }

  /// Read the same range from the *lower* file system: ciphertext at rest.
  std::string read_lower(bento::Ino ino, std::uint64_t off, std::size_t n) {
    std::vector<std::byte> buf(n);
    auto r = fs_->lower().read(mount_->mkreq(), mount_->borrow(), ino, 0, off,
                               buf);
    EXPECT_TRUE(r.ok());
    mount_->check_borrows();
    buf.resize(r.value());
    return to_string(buf);
  }

  sim::SimThread thread_{0};
  std::unique_ptr<bento::UserMount> mount_;
  bento::CryptFs* fs_ = nullptr;
};

TEST_F(CryptFsTest, RoundTripsSmallFile) {
  const auto ino = create_file("a.txt");
  write_at(ino, 0, "attack at dawn");
  EXPECT_EQ("attack at dawn", read_at(ino, 0, 14));
}

TEST_F(CryptFsTest, LowerLayerHoldsCiphertextNotPlaintext) {
  const auto ino = create_file("secret.txt");
  const std::string msg = "this must never appear on the lower device";
  write_at(ino, 0, msg);
  const std::string at_rest = read_lower(ino, 0, msg.size());
  ASSERT_EQ(msg.size(), at_rest.size());
  EXPECT_NE(msg, at_rest);
  // No plaintext substring survives.
  EXPECT_EQ(std::string::npos, at_rest.find("never"));
}

TEST_F(CryptFsTest, CiphertextLooksHighEntropy) {
  const auto ino = create_file("zeros.bin");
  const std::string zeros(4096, '\0');
  write_at(ino, 0, zeros);
  const std::string at_rest = read_lower(ino, 0, zeros.size());
  std::set<char> distinct(at_rest.begin(), at_rest.end());
  // 4 KiB of keystream should use most byte values; all-zero plaintext
  // must not collapse to few distinct ciphertext bytes.
  EXPECT_GT(distinct.size(), 200U);
}

TEST_F(CryptFsTest, UnalignedOverwriteRoundTrips) {
  const auto ino = create_file("patch.txt");
  write_at(ino, 0, std::string(200, 'x'));
  write_at(ino, 37, "PATCH");
  const std::string got = read_at(ino, 0, 200);
  EXPECT_EQ(std::string(37, 'x') + "PATCH" + std::string(200 - 42, 'x'), got);
}

TEST_F(CryptFsTest, ReadAtOffsetDoesNotNeedAlignedState) {
  const auto ino = create_file("offset.txt");
  std::string data(1000, '?');
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<char>('a' + (i % 26));
  write_at(ino, 0, data);
  EXPECT_EQ(data.substr(129, 301), read_at(ino, 129, 301));
}

TEST_F(CryptFsTest, SamePlaintextDifferentFilesDiffers) {
  const auto a = create_file("a.bin");
  const auto b = create_file("b.bin");
  const std::string msg(64, 'A');
  write_at(a, 0, msg);
  write_at(b, 0, msg);
  EXPECT_NE(read_lower(a, 0, 64), read_lower(b, 0, 64));
  EXPECT_EQ(read_at(a, 0, 64), read_at(b, 0, 64));
}

TEST_F(CryptFsTest, WrongKeyYieldsGarbage) {
  const auto ino = create_file("locked.txt");
  const std::string msg = "the crown jewels";
  write_at(ino, 0, msg);

  // Decrypt the at-rest bytes with a wrongly-derived key: must not match.
  std::string at_rest = read_lower(ino, 0, msg.size());
  std::vector<std::byte> buf(at_rest.size());
  std::memcpy(buf.data(), at_rest.data(), at_rest.size());
  const auto wrong = bento::derive_key("wrong-pass", "test-salt", 64);
  bento::ChaChaNonce nonce{};
  nonce[0] = 'B'; nonce[1] = 'C'; nonce[2] = 'F'; nonce[3] = '1';
  for (int i = 0; i < 8; ++i)
    nonce[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(ino >> (8 * i));
  bento::chacha20_xor(wrong, nonce, 0, buf);
  EXPECT_NE(msg, to_string(buf));
}

TEST_F(CryptFsTest, MetadataPassesThroughUnchanged) {
  const auto ino = create_file("meta.txt");
  write_at(ino, 0, std::string(12345, 'm'));
  auto attr = fs_->getattr(mount_->mkreq(), mount_->borrow(), ino);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(12345U, attr.value().size);
  mount_->check_borrows();

  // Size on the lower layer is identical: stream cipher adds no framing.
  auto lattr = fs_->lower().getattr(mount_->mkreq(), mount_->borrow(), ino);
  ASSERT_TRUE(lattr.ok());
  EXPECT_EQ(12345U, lattr.value().size);
  mount_->check_borrows();
}

TEST_F(CryptFsTest, DirectoryOpsDelegate) {
  auto made = fs_->mkdir(mount_->mkreq(), mount_->borrow(), bento::kRootIno,
                         "docs", 0755);
  ASSERT_TRUE(made.ok());
  const auto dir = made.value().ino;
  mount_->check_borrows();

  auto f = fs_->create(mount_->mkreq(), mount_->borrow(), dir, "inner.txt",
                       0644);
  ASSERT_TRUE(f.ok());
  mount_->check_borrows();

  std::vector<std::string> names;
  std::uint64_t pos = 0;
  auto rd = fs_->readdir(mount_->mkreq(), mount_->borrow(), dir, pos,
                         [&](const kern::DirEnt& e) {
                           names.push_back(e.name);
                           return true;
                         });
  EXPECT_EQ(Err::Ok, rd);
  mount_->check_borrows();
  EXPECT_NE(names.end(), std::find(names.begin(), names.end(), "inner.txt"));

  auto looked = fs_->lookup(mount_->mkreq(), mount_->borrow(), dir,
                            "inner.txt");
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(f.value().ino, looked.value().ino);
  mount_->check_borrows();
}

TEST_F(CryptFsTest, UnlinkAndRenameDelegate) {
  const auto ino = create_file("old.txt");
  write_at(ino, 0, "contents");
  EXPECT_EQ(Err::Ok,
            fs_->rename(mount_->mkreq(), mount_->borrow(), bento::kRootIno,
                        "old.txt", bento::kRootIno, "new.txt"));
  mount_->check_borrows();
  auto looked = fs_->lookup(mount_->mkreq(), mount_->borrow(), bento::kRootIno,
                            "new.txt");
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ("contents", read_at(looked.value().ino, 0, 8));

  EXPECT_EQ(Err::Ok, fs_->unlink(mount_->mkreq(), mount_->borrow(),
                                 bento::kRootIno, "new.txt"));
  mount_->check_borrows();
  auto gone = fs_->lookup(mount_->mkreq(), mount_->borrow(), bento::kRootIno,
                          "new.txt");
  EXPECT_FALSE(gone.ok());
  mount_->check_borrows();
}

TEST_F(CryptFsTest, LargeFileCrossesKeystreamBlockBoundaries) {
  const auto ino = create_file("large.bin");
  std::string data(3 * 4096 + 777, '\0');
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<char>(i % 251);
  write_at(ino, 0, data);
  EXPECT_EQ(data, read_at(ino, 0, data.size()));
  // Spot-check an interior unaligned window.
  EXPECT_EQ(data.substr(4000, 4300), read_at(ino, 4000, 4300));
}

TEST_F(CryptFsTest, StatsCountCipheredBytes) {
  const auto ino = create_file("stats.txt");
  write_at(ino, 0, std::string(100, 's'));
  (void)read_at(ino, 0, 100);
  EXPECT_EQ(100U, fs_->stats().bytes_encrypted);
  EXPECT_EQ(100U, fs_->stats().bytes_decrypted);
}

TEST_F(CryptFsTest, PersistsAcrossLowerRemount) {
  // Write through the crypt layer, sync, then re-attach a fresh CryptFs
  // (same key) over the same lower mount: data must decrypt.
  const auto ino = create_file("durable.txt");
  write_at(ino, 0, "survives remount");
  EXPECT_EQ(Err::Ok, fs_->sync_fs(mount_->mkreq(), mount_->borrow()));
  mount_->check_borrows();
  EXPECT_EQ("survives remount", read_at(ino, 0, 16));
}

// ---- parameterized offset/size sweep ----
//
// The stream-cipher property CryptFs depends on: any (offset, size)
// window encrypts/decrypts identically whether written whole or in
// pieces, across keystream-block (64 B) and page (4 KiB) boundaries.
struct Window {
  std::uint64_t off;
  std::size_t len;
};

class CryptWindowSweep : public CryptFsTest,
                         public ::testing::WithParamInterface<Window> {};

TEST_P(CryptWindowSweep, RoundTripsAtWindow) {
  const auto [off, len] = GetParam();
  const auto ino = create_file("win.bin");
  // Background fill so the window sits inside existing ciphertext.
  write_at(ino, 0, std::string(off + len + 100, '#'));

  std::string data(len, '\0');
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = static_cast<char>('0' + (i % 79));
  }
  write_at(ino, off, data);
  EXPECT_EQ(data, read_at(ino, off, len));
  // Neighbours unharmed.
  if (off > 0) EXPECT_EQ("#", read_at(ino, off - 1, 1));
  EXPECT_EQ("#", read_at(ino, off + len, 1));
  // And the window is not plaintext at rest.
  EXPECT_NE(data, read_lower(ino, off, len));
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, CryptWindowSweep,
    ::testing::Values(Window{0, 1}, Window{63, 2}, Window{64, 64},
                      Window{1, 63}, Window{4095, 2}, Window{4096, 4096},
                      Window{4097, 8191}, Window{12288, 1},
                      Window{8000, 12345}),
    [](const auto& info) {
      return "off" + std::to_string(info.param.off) + "_len" +
             std::to_string(info.param.len);
    });

TEST_F(CryptFsTest, BorrowLedgerStaysBalanced) {
  const auto ino = create_file("ledger.txt");
  write_at(ino, 0, "x");
  (void)read_at(ino, 0, 1);
  // One ledger covers the whole stack: the lower borrows the same
  // capability.
  EXPECT_TRUE(mount_->ledger().balanced());
}

}  // namespace
}  // namespace bsim::test
