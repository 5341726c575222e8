#include "bento/crypt.h"

#include <cstring>
#include <vector>

#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::bento {

CryptFs::CryptFs(std::unique_ptr<FileSystem> lower, ChaChaKey key)
    : StackedFs(std::move(lower)), key_(key) {}

CryptFs::~CryptFs() = default;

ChaChaNonce CryptFs::nonce_for(Ino ino) {
  ChaChaNonce nonce{};
  nonce[0] = 'B';
  nonce[1] = 'C';
  nonce[2] = 'F';
  nonce[3] = '1';
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(ino >> (8 * i));
  }
  return nonce;
}

void CryptFs::charge_cipher(std::size_t n) {
  if (sim::current_or_null() == nullptr) return;
  sim::charge(sim::costs().chacha_per_page * static_cast<sim::Nanos>(n) /
              static_cast<sim::Nanos>(kern::kPageSize));
}

Result<std::uint32_t> CryptFs::read(const Request& req, SbRef sb, Ino ino,
                                    std::uint64_t fh, std::uint64_t off,
                                    std::span<std::byte> out) {
  auto r = lower().read(req, sb.reborrow(), ino, fh, off, out);
  if (!r.ok()) return r;
  const std::uint32_t n = r.value();
  chacha20_xor(key_, nonce_for(ino), off, out.first(n));
  charge_cipher(n);
  stats_.bytes_decrypted += n;
  return r;
}

Result<std::uint32_t> CryptFs::write(const Request& req, SbRef sb, Ino ino,
                                     std::uint64_t fh, std::uint64_t off,
                                     std::span<const std::byte> in) {
  std::vector<std::byte> ct(in.begin(), in.end());
  chacha20_xor(key_, nonce_for(ino), off, ct);
  charge_cipher(ct.size());
  stats_.bytes_encrypted += ct.size();
  return lower().write(req, sb.reborrow(), ino, fh, off,
                       std::span<const std::byte>(ct));
}

Result<std::uint32_t> CryptFs::write_bulk(
    const Request& req, SbRef sb, Ino ino, std::uint64_t off,
    std::span<const std::span<const std::byte>> pages) {
  // Encrypt every page into one contiguous scratch buffer, then re-slice;
  // page boundaries are preserved so the lower FS sees the same batch
  // geometry (and keeps its writepages-style coalescing).
  std::size_t total = 0;
  for (const auto& p : pages) total += p.size();
  std::vector<std::byte> ct(total);
  std::size_t at = 0;
  for (const auto& p : pages) {
    std::memcpy(ct.data() + at, p.data(), p.size());
    at += p.size();
  }
  chacha20_xor(key_, nonce_for(ino), off, ct);
  charge_cipher(ct.size());
  stats_.bytes_encrypted += ct.size();

  std::vector<std::span<const std::byte>> slices;
  slices.reserve(pages.size());
  at = 0;
  for (const auto& p : pages) {
    slices.emplace_back(ct.data() + at, p.size());
    at += p.size();
  }
  return lower().write_bulk(req, sb.reborrow(), ino, off, slices);
}

}  // namespace bsim::bento
