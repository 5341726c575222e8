// Measurement helpers: latency histograms and throughput accounting.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "sim/time.h"

namespace bsim::sim {

/// Log-bucketed latency histogram over virtual nanoseconds.
/// Buckets are powers of two from 1ns up to ~17 minutes.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

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

  /// Approximate quantile: the upper bound of the bucket containing it,
  /// clamped to [min, max] so no quantile reports a value never seen
  /// beyond the extremes.
  [[nodiscard]] Nanos quantile(double q) const {
    if (count_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > target) return std::clamp(Nanos{1} << i, min_, max_);
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
    int b = 0;
    while (b < kBuckets - 1 && (Nanos{1} << b) < v) ++b;
    return b;
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
