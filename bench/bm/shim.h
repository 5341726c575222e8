// The benchmark's syscall shim and span recorder.
//
// Every syscall a workload makes goes through Shim. It reads the virtual
// clock before and after the Kernel:: call — host-side only, it never
// advances virtual time — counts non-Ok results instead of throwing, and
// in a traced run records one span per syscall whose parent is the span of
// the op that issued it. Spans stay in memory and are written once, after
// the run.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "kernel/kernel.h"
#include "sim/thread.h"

namespace bsim::bm {

/// Where every workload's file system is mounted.
inline constexpr std::string_view kMountPoint = "/mnt";

enum class Sys : std::uint8_t {
  Open,
  Close,
  Read,
  Write,
  Fsync,
  Mkdir,
  Unlink,
  Stat,
  Lseek,
  Readdir,
};
inline constexpr std::size_t kSysCount = 10;

inline const char* sys_name(Sys s) {
  static constexpr std::array<const char*, kSysCount> kNames = {
      "open", "close", "read", "write", "fsync",
      "mkdir", "unlink", "stat", "lseek", "readdir"};
  return kNames[static_cast<std::size_t>(s)];
}

/// Setup: bed construction to the first measured op. Measure: the op
/// stream. Verify: the correctness checks after it.
enum class Phase : std::uint8_t { Setup, Measure, Verify };

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // op span id; 0 on op spans
  sim::Nanos start = 0;
  sim::Nanos end = 0;
  int sys = -1;  // Sys index; -1 marks an op span
  int thread = 0;
  bool failed = false;
};

class Recorder {
 public:
  explicit Recorder(bool traced) : traced_(traced) {}

  /// Runs once, when the first measured step starts (the epoch).
  std::function<void()> on_epoch;

  void mark_epoch() {
    if (phase_ != Phase::Setup) return;
    phase_ = Phase::Measure;
    if (on_epoch) on_epoch();
  }

  void begin_op(int thread) {
    op_start_ = sim::now();
    if (traced_) {
      op_span_ = spans_.size();
      spans_.push_back(Span{++last_id_, 0, op_start_, 0, -1, thread, false});
    }
  }

  void end_op() {
    const sim::Nanos end = sim::now();
    op_ns_.push_back(end - op_start_);
    if (traced_) spans_[op_span_].end = end;
  }

  void syscall(Sys s, sim::Nanos t0, sim::Nanos t1, bool ok) {
    const auto p = static_cast<std::size_t>(phase_);
    attempted_[p] += 1;
    if (!ok) failed_[p] += 1;
    if (phase_ != Phase::Measure) return;
    calls_[static_cast<std::size_t>(s)] += 1;
    if (traced_) {
      const Span& op = spans_[op_span_];
      spans_.push_back(Span{++last_id_, op.id, t0, t1,
                            static_cast<int>(s), op.thread, !ok});
    }
  }

  void wrote(std::uint64_t n) {
    if (phase_ == Phase::Measure) bytes_written_ += n;
  }

  void end_measure() { phase_ = Phase::Verify; }

  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] bool traced() const { return traced_; }
  [[nodiscard]] std::uint64_t attempted(Phase p) const {
    return attempted_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::uint64_t failed(Phase p) const {
    return failed_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::uint64_t calls(Sys s) const {
    return calls_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] const std::vector<sim::Nanos>& op_ns() const { return op_ns_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool traced_;
  Phase phase_ = Phase::Setup;
  std::array<std::uint64_t, 3> attempted_{};
  std::array<std::uint64_t, 3> failed_{};
  std::array<std::uint64_t, kSysCount> calls_{};
  std::uint64_t bytes_written_ = 0;
  sim::Nanos op_start_ = 0;
  std::vector<sim::Nanos> op_ns_;
  std::vector<Span> spans_;
  std::size_t op_span_ = 0;
  std::uint64_t last_id_ = 0;
};

/// Page-cache counters of the inodes evicted during a traced run's
/// measured interval. Kernel::dump_stats sums AddressSpaceStats over the
/// cached inodes only, so an unlinked file's counters leave the snapshot
/// with it; the per-layer deltas add them back from here.
struct Retired {
  std::uint64_t unlinked = 0;  // successful unlinks
  std::uint64_t inodes = 0;    // inodes they evicted
  kern::AddressSpaceStats stats;
};

/// The Kernel syscall surface the workloads use, timed and counted.
class Shim {
 public:
  Shim(kern::Kernel& k, Recorder& rec) : k_(k), rec_(rec) {}

  kern::Result<int> open(kern::Process& p, std::string_view path, int flags) {
    return call(Sys::Open, [&] { return k_.open(p, path, flags); });
  }
  kern::Err close(kern::Process& p, int fd) {
    return call(Sys::Close, [&] { return k_.close(p, fd); });
  }
  kern::Result<std::uint64_t> pread(kern::Process& p, int fd,
                                    std::span<std::byte> out,
                                    std::uint64_t off) {
    return call(Sys::Read, [&] { return k_.pread(p, fd, out, off); });
  }
  kern::Result<std::uint64_t> write(kern::Process& p, int fd,
                                    std::span<const std::byte> in) {
    auto r = call(Sys::Write, [&] { return k_.write(p, fd, in); });
    if (r.ok()) rec_.wrote(r.value());
    return r;
  }
  kern::Result<std::uint64_t> pwrite(kern::Process& p, int fd,
                                     std::span<const std::byte> in,
                                     std::uint64_t off) {
    auto r = call(Sys::Write, [&] { return k_.pwrite(p, fd, in, off); });
    if (r.ok()) rec_.wrote(r.value());
    return r;
  }
  kern::Result<std::uint64_t> lseek_end(kern::Process& p, int fd) {
    return call(Sys::Lseek,
                [&] { return k_.lseek(p, fd, 0, kern::Whence::End); });
  }
  kern::Err fsync(kern::Process& p, int fd) {
    return call(Sys::Fsync, [&] { return k_.fsync(p, fd); });
  }
  kern::Err mkdir(kern::Process& p, std::string_view path) {
    return call(Sys::Mkdir, [&] { return k_.mkdir(p, path); });
  }
  /// In a traced run's measured interval, also retires the page-cache
  /// counters of the inode the unlink evicts. The inode dies here, not at
  /// a later close: a workload step closes every file it opens, and steps
  /// do not interleave, so no file is unlinked while open.
  kern::Err unlink(kern::Process& p, std::string_view path) {
    auto run = [&] {
      return call(Sys::Unlink, [&] { return k_.unlink(p, path); });
    };
    if (!rec_.traced() || rec_.phase() != Phase::Measure) return run();
    kern::SuperBlock& sb = *k_.sb_at(kMountPoint);
    cached_.clear();
    sb.for_each_inode([&](kern::Inode& i) {
      cached_.emplace_back(i.ino(), i.mapping.stats());
    });
    const kern::Err e = run();
    if (e == kern::Err::Ok) retired_.unlinked += 1;
    if (sb.cached_inodes() < cached_.size()) {
      // Mark the inodes still cached; the unmarked ones were evicted.
      std::fill(live_.begin(), live_.end(), false);
      sb.for_each_inode([&](kern::Inode& i) {
        if (i.ino() >= live_.size()) live_.resize(i.ino() + 1);
        live_[i.ino()] = true;
      });
      for (const auto& [ino, s] : cached_) {
        if (ino < live_.size() && live_[ino]) continue;
        retired_.inodes += 1;
        retired_.stats.hits += s.hits;
        retired_.stats.misses += s.misses;
        retired_.stats.readahead_pages += s.readahead_pages;
        retired_.stats.writeback_pages += s.writeback_pages;
        retired_.stats.writeback_calls += s.writeback_calls;
      }
    }
    return e;
  }
  kern::Result<kern::Stat> stat(kern::Process& p, std::string_view path) {
    return call(Sys::Stat, [&] { return k_.stat(p, path); });
  }
  kern::Result<std::vector<kern::DirEnt>> readdir(kern::Process& p,
                                                  std::string_view path) {
    return call(Sys::Readdir, [&] { return k_.readdir(p, path); });
  }

  [[nodiscard]] const Retired& retired() const { return retired_; }

 private:
  static bool ok(kern::Err e) { return e == kern::Err::Ok; }
  template <class T>
  static bool ok(const kern::Result<T>& r) {
    return r.ok();
  }

  template <class F>
  std::invoke_result_t<F> call(Sys s, F&& f) {
    const sim::Nanos t0 = sim::now();
    auto r = f();
    rec_.syscall(s, t0, sim::now(), ok(r));
    return r;
  }

  kern::Kernel& k_;
  Recorder& rec_;
  Retired retired_;
  std::vector<std::pair<kern::Ino, kern::AddressSpaceStats>> cached_;
  std::vector<bool> live_;  // indexed by inode number
};

}  // namespace bsim::bm
