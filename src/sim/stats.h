// Measurement helpers: latency histograms and throughput accounting.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "sim/time.h"

namespace bsim::sim {

/// Log-linear latency histogram over virtual nanoseconds
/// (HdrHistogram-style). Values below 2 * kSub ns each have their own
/// bucket; above that every octave [2^e, 2^(e+1)) is split into kSub
/// equal sub-buckets, up to ~18 minutes. A quantile is the upper bound
/// of its sub-bucket, so it is never below the exact nearest-rank
/// value and at most 1/kSub (3.1%) above it: half the trend gate's 10%.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 40;  // values >= 2^40 ns share the last bucket
  static constexpr int kBuckets = 2 * kSub + (kOctaves - kSubBits - 1) * kSub;

  void record(Nanos v) {
    if (v < 0) v = 0;
    count_ += 1;
    sum_ += v;
    min_ = count_ == 1 ? v : std::min(min_, v);
    max_ = std::max(max_, v);
    buckets_[bucket_for(v)] += 1;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] Nanos min() const { return min_; }
  [[nodiscard]] Nanos max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Nearest-rank quantile, rounded up to its bucket's upper bound and
  /// clamped to [min, max] so no quantile reports a value never seen
  /// beyond the extremes.
  [[nodiscard]] Nanos quantile(double q) const {
    if (count_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > target) return std::clamp(upper_bound(i), min_, max_);
    }
    return max_;
  }

  void merge(const LatencyHistogram& o) {
    if (o.count_ == 0) return;
    if (count_ == 0) min_ = o.min_;
    else min_ = std::min(min_, o.min_);
    count_ += o.count_;
    sum_ += o.sum_;
    max_ = std::max(max_, o.max_);
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  }

 private:
  static int bucket_for(Nanos v) {
    if (v < 2 * kSub) return static_cast<int>(v);
    const int e = std::bit_width(static_cast<std::uint64_t>(v)) - 1;
    if (e >= kOctaves) return kBuckets - 1;
    const int shift = e - kSubBits;
    return 2 * kSub + (e - kSubBits - 1) * kSub +
           static_cast<int>((v >> shift) - kSub);
  }

  static Nanos upper_bound(int i) {
    if (i < 2 * kSub) return i;
    const int octave = (i - 2 * kSub) / kSub;  // 0 for [2 * kSub, 4 * kSub)
    const int sub = (i - 2 * kSub) % kSub;
    const int shift = octave + 1;
    return ((Nanos{kSub + sub + 1}) << shift) - 1;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  Nanos min_ = 0;
  Nanos max_ = 0;
};

/// Result of a timed run: operations and bytes over a virtual duration.
struct RunStats {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  Nanos elapsed = 0;
  LatencyHistogram latency;

  [[nodiscard]] double ops_per_sec() const {
    return elapsed <= 0 ? 0.0 : static_cast<double>(ops) / to_seconds(elapsed);
  }
  [[nodiscard]] double mbytes_per_sec() const {
    return elapsed <= 0 ? 0.0
                        : static_cast<double>(bytes) / (1e6 * to_seconds(elapsed));
  }
};

}  // namespace bsim::sim
