// Encryption at rest via a stacked Bento file system (paper §3.4): the
// ecryptfs use case. A CryptFs layer over xv6 encrypts file data with
// ChaCha20 under a passphrase-derived key; the demo writes secrets
// through the stack, then plays the attacker and reads the lower layer
// directly — ciphertext only — and finally shows that the wrong
// passphrase cannot decrypt.
//
// Build & run:   cmake --build build && ./build/examples/encrypted_store
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bento/crypt.h"
#include "bento/user.h"
#include "sim/thread.h"
#include "xv6fs/fs.h"
#include "xv6fs/layout.h"

using namespace bsim;

namespace {

std::span<const std::byte> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// A formatted xv6 image in memory: the "disk" under the stack.
std::unique_ptr<bento::MemBlockBackend> xv6_image() {
  blk::DeviceParams params;
  params.nblocks = 8192;
  blk::BlockDevice image(params);
  xv6::mkfs(image, 512);
  return std::make_unique<bento::MemBlockBackend>(image);
}

void hexdump(std::string_view label, std::span<const std::byte> data) {
  std::printf("%s:", std::string(label).c_str());
  for (std::size_t i = 0; i < std::min<std::size_t>(24, data.size()); ++i) {
    std::printf(" %02x", static_cast<unsigned>(data[i]));
  }
  std::printf("%s\n", data.size() > 24 ? " ..." : "");
}

}  // namespace

int main() {
  sim::SimThread main_thread(0);
  sim::ScopedThread in(main_thread);

  // Key derivation from a passphrase (like an ecryptfs mount).
  const auto key = bento::derive_key("correct horse battery staple",
                                     "bsim-demo-salt");
  std::printf("derived 256-bit key from passphrase\n");

  // One mount, one backend: the crypt layer owns xv6 and borrows the
  // mount's capability for it on every call.
  auto crypt = std::make_unique<bento::CryptFs>(
      std::make_unique<xv6::Xv6FileSystem>(), key);
  auto* fs = crypt.get();
  bento::UserMount mount(xv6_image(), std::move(crypt));
  if (mount.mount_init() != kern::Err::Ok) return 1;

  // Write a secret through the encrypted mount.
  const std::string secret =
      "account: 1234-5678  pin: 9876  recovery: tulip-ferry-anvil";
  auto made = fs->create(mount.mkreq(), mount.borrow(), bento::kRootIno,
                         "vault.txt", 0644);
  mount.check_borrows();
  const auto ino = made.value().ino;
  (void)fs->write(mount.mkreq(), mount.borrow(), ino, 0, 0,
                  bytes_of(secret));
  (void)fs->sync_fs(mount.mkreq(), mount.borrow());
  mount.check_borrows();
  std::printf("wrote %zu bytes to vault.txt through the crypt layer\n",
              secret.size());

  // Read through the stack: plaintext.
  std::vector<std::byte> buf(secret.size());
  auto r = fs->read(mount.mkreq(), mount.borrow(), ino, 0, 0, buf);
  mount.check_borrows();
  std::printf("\nthrough the crypt mount: %.*s\n",
              static_cast<int>(r.value()),
              reinterpret_cast<const char*>(buf.data()));

  // The attacker reads the lower file system directly (stolen disk).
  std::vector<std::byte> at_rest(secret.size());
  (void)fs->lower().read(mount.mkreq(), mount.borrow(), ino, 0, 0, at_rest);
  mount.check_borrows();
  hexdump("\nat rest on the lower layer", at_rest);

  // Wrong passphrase: derive a different key and try to decrypt.
  const auto wrong = bento::derive_key("correct horse battery stable",
                                       "bsim-demo-salt");
  bento::ChaChaNonce nonce{};
  nonce[0] = 'B'; nonce[1] = 'C'; nonce[2] = 'F'; nonce[3] = '1';
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(ino >> (8 * i));
  }
  std::vector<std::byte> guess = at_rest;
  bento::chacha20_xor(wrong, nonce, 0, guess);
  hexdump("decrypted with a wrong key", guess);

  std::printf("\ncipher stats: %llu bytes encrypted, %llu decrypted\n",
              static_cast<unsigned long long>(fs->stats().bytes_encrypted),
              static_cast<unsigned long long>(fs->stats().bytes_decrypted));
  std::printf("virtual time elapsed: %.3f ms\n",
              static_cast<double>(sim::now()) / sim::kMillisecond);
  return 0;
}
