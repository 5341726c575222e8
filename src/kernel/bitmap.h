// First-free bitmap scan, shared by the block and inode allocators of xv6,
// xv6c and ext4j (the role of Linux's find_next_zero_bit in ext4's
// mballoc and ialloc).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::kern {

/// Bits in one 64-byte bitmap line, the unit a scan is charged by.
inline constexpr std::uint32_t kBitmapLineBits = 64 * 8;

/// The first clear bit of `bits` in [begin, end), or `end` if there is none.
///
/// `cursor` is a first-free cursor: every bit in [begin, cursor) is set, so
/// the scan resumes at max(cursor, begin) and finds the bit a scan from
/// `begin` would. It leaves `cursor` just past the bit it returns, which
/// the caller sets, or at `end`. A free below the cursor must lower it.
///
/// Each 64-byte line examined costs bitmap_scan_per_line: the lines from
/// the cursor's to the found bit's, or to the last line before `end`. Full
/// 64-bit words are skipped whole, which saves host time only.
[[nodiscard]] inline std::uint32_t scan_bitmap(std::span<const std::byte> bits,
                                               std::uint32_t begin,
                                               std::uint32_t end,
                                               std::uint32_t& cursor) {
  assert((std::uint64_t{end} + 63) / 64 * 8 <= bits.size());
  cursor = std::max(cursor, begin);
  if (cursor >= end) {
    cursor = end;
    return end;
  }
  const std::uint32_t start = cursor;
  std::uint32_t found = end;
  for (std::uint32_t w = start / 64; w * 64 < end; ++w) {
    std::uint64_t word = 0;  // bit i of the word is bit i % 8 of byte i / 8
    for (std::uint32_t b = 0; b < 8; ++b) {
      word |= std::to_integer<std::uint64_t>(bits[w * 8 + b]) << (8 * b);
    }
    std::uint64_t free = ~word;
    if (w == start / 64) free &= ~std::uint64_t{0} << (start % 64);
    if (free != 0) {
      found = std::min(end, w * 64 + static_cast<std::uint32_t>(
                                          std::countr_zero(free)));
      break;
    }
  }
  const std::uint32_t last = found == end ? end - 1 : found;
  sim::charge((last / kBitmapLineBits - start / kBitmapLineBits + 1) *
              sim::costs().bitmap_scan_per_line);
  cursor = found == end ? end : found + 1;
  return found;
}

}  // namespace bsim::kern
