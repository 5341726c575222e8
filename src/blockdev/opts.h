// The mount-option vocabulary. A mount-option string is the only
// description of a volume and its deployment: Kernel::add_volume builds
// the device tree from it, and Kernel::mount parses it once, arms
// tracing, retry and the errors= policy, then hands the typed MountOpts
// to the file system type, which passes them on to the layers it builds
// (as Linux's fs_context does). One declarative table (kMountOptTable,
// the shape of Linux's fs_parameter_spec) both parses and validates the
// string, so the vocabulary cannot drift from its consumers: a token
// outside the table, a malformed number, or a number out of its entry's
// range rejects the whole string.
//
// Syntax: ","/" "-separated tokens; a number is a whole decimal that fits
// in 32 bits ("chunk=16k" is malformed, not 16). Tokens apply left to
// right, so the last one wins ("nogroup,max_log_batch=4" batches 4 ops per
// commit).
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "blockdev/bio.h"

namespace bsim::blk {

/// Invoke `fn(token)` for every non-empty token of a mount-option string.
template <class Fn>
void for_each_opt_token(std::string_view opts, Fn&& fn) {
  std::size_t i = 0;
  while (i < opts.size()) {
    while (i < opts.size() && (opts[i] == ',' || opts[i] == ' ')) ++i;
    std::size_t j = i;
    while (j < opts.size() && opts[j] != ',' && opts[j] != ' ') ++j;
    if (j > i) fn(opts.substr(i, j - i));
    i = j;
  }
}

/// What a file-system error (a journal abort) does to the mount.
enum class ErrorsMode : std::uint8_t {
  RemountRo,  // flip read-only: reads keep serving, writes fail RoFs
  Continue,   // record and keep going (errors still report via errseq)
  Panic,      // abort the simulation
};

/// Every option a mount accepts, typed. The defaults are what an empty
/// option string means.
struct MountOpts {
  // ---- the volume (Kernel::add_volume) ----
  std::size_t stripe = 1;    // RAID0 members (1: not striped)
  std::uint64_t chunk = 16;  // stripe and parity chunk, in blocks
  std::size_t mirror = 1;    // RAID1 replicas (1: not mirrored)
  std::size_t parity = 0;    // RAID5 data columns (<2: no parity)
  // ---- the device tree, armed before the file system mounts ----
  std::size_t trace = 0;     // trace-ring capacity in events (0: off)
  RetryPolicy retry;         // bounded retry of transient errors
  // ---- the mount ----
  ErrorsMode errors = ErrorsMode::RemountRo;
  bool flusher = true;            // background writeback threads
  bool plug = true;               // request plugging (flusher + journal)
  bool pipeline = true;           // pipelined journal commits (xv6, ext4)
  std::size_t max_log_batch = 0;  // xv6 group commit: op cap (0: none)
  bool io_uring = false;          // FUSE daemon batches its block I/O
  bool extfuse = false;           // FUSE eBPF metadata caches

  bool operator==(const MountOpts&) const = default;
};

enum class OptKind : std::uint8_t {
  Flag,    // a bare word ("noflusher")
  Enum,    // one value of an enumerated option ("errors=continue")
  Number,  // "key=N", N a 32-bit decimal >= the entry's minimum
};

/// One table entry: the token (for a Number, the "key=" before N), its
/// kind, the smallest N a Number accepts, and the MountOpts field it sets.
struct OptSpec {
  std::string_view token;
  OptKind kind;
  std::uint64_t min;
  void (*set)(MountOpts& o, std::uint64_t n);
};

namespace opt_table {
using K = OptKind;
using M = MountOpts;
using N = std::uint64_t;

inline constexpr OptSpec kEntries[] = {
    {"stripe=", K::Number, 1, [](M& o, N n) { o.stripe = n; }},
    {"chunk=", K::Number, 1, [](M& o, N n) { o.chunk = n; }},
    {"mirror=", K::Number, 1, [](M& o, N n) { o.mirror = n; }},
    {"parity=", K::Number, 0, [](M& o, N n) { o.parity = n; }},
    {"trace=", K::Number, 0, [](M& o, N n) { o.trace = n; }},
    {"retries=", K::Number, 0,
     [](M& o, N n) { o.retry.max_retries = static_cast<std::uint32_t>(n); }},
    {"retry_backoff_us=", K::Number, 0,
     [](M& o, N n) {
       o.retry.backoff = sim::usec(static_cast<sim::Nanos>(n));
     }},
    {"errors=remount-ro", K::Enum, 0,
     [](M& o, N) { o.errors = ErrorsMode::RemountRo; }},
    {"errors=continue", K::Enum, 0,
     [](M& o, N) { o.errors = ErrorsMode::Continue; }},
    {"errors=panic", K::Enum, 0, [](M& o, N) { o.errors = ErrorsMode::Panic; }},
    {"rw", K::Flag, 0, [](M&, N) {}},  // mounts are read-write already
    {"noflusher", K::Flag, 0, [](M& o, N) { o.flusher = false; }},
    {"noplug", K::Flag, 0, [](M& o, N) { o.plug = false; }},
    {"nopipeline", K::Flag, 0, [](M& o, N) { o.pipeline = false; }},
    {"max_log_batch=", K::Number, 1, [](M& o, N n) { o.max_log_batch = n; }},
    {"nogroup", K::Flag, 0, [](M& o, N) { o.max_log_batch = 1; }},
    {"io_uring", K::Flag, 0, [](M& o, N) { o.io_uring = true; }},
    {"extfuse", K::Flag, 0, [](M& o, N) { o.extfuse = true; }},
};
}  // namespace opt_table

/// The whole vocabulary, in the order ARCHITECTURE.md documents it.
inline constexpr auto& kMountOptTable = opt_table::kEntries;

/// Parse and validate a mount-option string through kMountOptTable.
/// nullopt when any token is unknown, malformed, or out of range.
inline std::optional<MountOpts> parse_mount_opts(std::string_view opts) {
  MountOpts o;
  auto apply = [&o](std::string_view tok) {
    for (const OptSpec& s : kMountOptTable) {
      if (s.kind != OptKind::Number) {
        if (tok != s.token) continue;
        s.set(o, 0);
        return true;
      }
      if (!tok.starts_with(s.token)) continue;
      const std::string_view v = tok.substr(s.token.size());
      std::uint64_t n = 0;
      const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
      if (ec != std::errc{} || end != v.data() + v.size() || n < s.min ||
          n > std::numeric_limits<std::uint32_t>::max()) {
        return false;
      }
      s.set(o, n);
      return true;
    }
    return false;
  };
  bool ok = true;
  for_each_opt_token(opts,
                     [&](std::string_view tok) { ok = ok && apply(tok); });
  if (!ok) return std::nullopt;
  return o;
}

}  // namespace bsim::blk
