// A composable encryption file system (paper §3.4): the ecryptfs use case
// the paper names — "the ecryptfs file system can be layered on top of
// another file system to add encryption" — implemented *against the Bento
// file-operations API* rather than by re-entering top-level VFS functions.
//
// CryptFs stacks over any Bento FileSystem. The namespace (names, inode
// numbers, sizes, directory structure) passes through unchanged; file
// *data* is encrypted with ChaCha20 under a per-file nonce derived from
// the inode number. Because a stream cipher is length-preserving and
// random-access, unaligned reads and writes map one-to-one onto lower
// reads and writes — no read-modify-write, no size inflation, and the
// lower file system's block layout, journaling, and writeback behaviour
// are completely undisturbed. That is the property that makes the layer
// cheap, which the stacking ablation (bench_ablation_stacking) quantifies.
//
// Threat model, matching ecryptfs-at-rest: confidentiality of file
// contents against an attacker who reads the lower image. File names and
// sizes are not hidden, and there is no integrity MAC; see DESIGN.md.
#pragma once

#include <memory>

#include "bento/chacha.h"
#include "bento/stacked.h"

namespace bsim::bento {

class CryptFs final : public StackedFs {
 public:
  /// `lower` runs on the same superblock; everything but file data passes
  /// through to it unchanged.
  CryptFs(std::unique_ptr<FileSystem> lower, ChaChaKey key);
  ~CryptFs() override;

  [[nodiscard]] std::string_view version() const override {
    return "crypt-v1";
  }

  Result<std::uint32_t> read(const Request& req, SbRef sb, Ino ino,
                             std::uint64_t fh, std::uint64_t off,
                             std::span<std::byte> out) override;
  Result<std::uint32_t> write(const Request& req, SbRef sb, Ino ino,
                              std::uint64_t fh, std::uint64_t off,
                              std::span<const std::byte> in) override;
  Result<std::uint32_t> write_bulk(
      const Request& req, SbRef sb, Ino ino, std::uint64_t off,
      std::span<const std::span<const std::byte>> pages) override;

  struct Stats {
    std::uint64_t bytes_encrypted = 0;
    std::uint64_t bytes_decrypted = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Per-file nonce: a fixed tag plus the inode number, so equal plaintext
  /// in different files yields unrelated ciphertext.
  static ChaChaNonce nonce_for(Ino ino);

  /// Charge the virtual-time cost of ciphering `n` bytes.
  static void charge_cipher(std::size_t n);

  ChaChaKey key_;
  Stats stats_;
};

}  // namespace bsim::bento
