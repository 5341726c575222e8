// Unit tests for the virtual-time substrate: clocks, locks, batch gate,
// deterministic RNG, histogram, and the multi-thread runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/cost_model.h"
#include "sim/rng.h"
#include "sim/runner.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/thread.h"

namespace bsim::sim {
namespace {

TEST(SimThread, ChargesAndWaits) {
  SimThread t(0);
  ScopedThread in(t);
  charge(100);
  EXPECT_EQ(now(), 100);
  t.wait_until(50);  // in the past: no-op
  EXPECT_EQ(now(), 100);
  t.wait_until(250);
  EXPECT_EQ(now(), 250);
  t.wait(10);
  EXPECT_EQ(now(), 260);
}

TEST(SimThread, CpuScaleAppliesToChargesOnly) {
  SimThread t(0);
  t.set_cpu_scale(4.0);
  ScopedThread in(t);
  charge(100);
  EXPECT_EQ(now(), 400);
  t.wait_until(500);  // device waits are not scaled
  EXPECT_EQ(now(), 500);
  EXPECT_EQ(t.cpu_charged(), 100);  // unscaled accounting
}

TEST(SimMutex, SerializesInVirtualTime) {
  SimThread a(0);
  SimThread b(1);
  SimMutex mu;

  {
    ScopedThread in(a);
    mu.lock();
    charge(1000);
    mu.unlock();  // released at a.now()
  }
  {
    ScopedThread in(b);
    mu.lock();  // must wait until a released
    EXPECT_GE(now(), a.now());
    mu.unlock();
  }
  EXPECT_EQ(mu.acquires(), 2u);
  EXPECT_EQ(mu.contended_acquires(), 1u);
}

TEST(SimMutex, UncontendedIsCheap) {
  SimThread t(0);
  ScopedThread in(t);
  SimMutex mu;
  mu.lock();
  mu.unlock();
  EXPECT_EQ(now(), costs().lock_uncontended);
  EXPECT_EQ(mu.contended_acquires(), 0u);
}

TEST(SimMutex, ExclusiveOnlySequenceKeepsItsCosts) {
  // The timestamps and counters of a plain mutex, spelled out, so a
  // shared mode can never shift what exclusive-only users pay.
  for (const auto kind : {SimMutex::Kind::Sleeping, SimMutex::Kind::Spin}) {
    const Nanos handoff = kind == SimMutex::Kind::Spin ? costs().spin_handoff
                                                       : costs().sched_wakeup;
    SimMutex mu(kind);
    SimThread a(0);
    SimThread b(1);
    SimThread c(2);
    b.wait_until(500);
    c.wait_until(5000);
    {
      ScopedThread in(a);
      mu.lock();
      charge(1000);
      mu.unlock();
    }
    const Nanos a_release = costs().lock_uncontended + 1000;
    EXPECT_EQ(a.now(), a_release);
    {
      ScopedThread in(b);
      mu.lock();
      charge(100);
      mu.unlock();
    }
    EXPECT_EQ(b.now(), a_release + costs().lock_uncontended + handoff + 100);
    {
      ScopedThread in(c);
      mu.lock();
      mu.unlock();
    }
    EXPECT_EQ(c.now(), 5000 + costs().lock_uncontended);
    EXPECT_EQ(mu.acquires(), 3u);
    EXPECT_EQ(mu.contended_acquires(), 1u);
    EXPECT_EQ(mu.total_wait(), a_release - 500);
  }
}

TEST(SimMutex, SharedHoldersOverlap) {
  SimMutex mu;
  SimThread a(0);
  SimThread b(1);
  {
    ScopedThread in(a);
    mu.lock_shared();
    charge(1000);
    mu.unlock_shared();
  }
  {
    ScopedThread in(b);
    mu.lock_shared();  // a's shared hold does not delay b
    EXPECT_EQ(now(), costs().lock_uncontended);
    mu.unlock_shared();
  }
  EXPECT_EQ(mu.contended_acquires(), 0u);
}

TEST(SimMutex, ExclusiveWaitsForLastSharedRelease) {
  SimMutex mu;
  SimThread a(0);
  SimThread b(1);
  SimThread c(2);
  {
    ScopedThread in(a);
    mu.lock_shared();
    charge(1000);
    mu.unlock_shared();
  }
  {
    ScopedThread in(b);
    mu.lock_shared();
    charge(3000);
    mu.unlock_shared();
  }
  ASSERT_GT(b.now(), a.now());
  {
    ScopedThread in(c);
    mu.lock();  // waits for b, the later of the two readers
    EXPECT_EQ(now(), b.now() + costs().lock_uncontended +
                         costs().sched_wakeup);
    mu.unlock();
  }
  EXPECT_EQ(mu.contended_acquires(), 1u);
}

TEST(SimMutex, SharedAcquireWaitsForExclusiveHolder) {
  SimMutex mu;
  SimThread a(0);
  SimThread b(1);
  {
    ScopedThread in(a);
    mu.lock();
    charge(1000);
    mu.unlock();
  }
  {
    ScopedThread in(b);
    mu.lock_shared();
    EXPECT_EQ(now(), a.now() + costs().lock_uncontended +
                         costs().sched_wakeup);
    mu.unlock_shared();
  }
  EXPECT_EQ(mu.contended_acquires(), 1u);
}

TEST(SimRwLock, WriterWaitsForTheLastReleaseWithoutAWakeupCharge) {
  SimRwLock rw;
  SimThread a(0);
  SimThread b(1);
  {
    ScopedThread in(a);
    rw.lock();
    charge(1000);
    rw.unlock();
  }
  {
    ScopedThread in(b);
    rw.lock();
    EXPECT_EQ(now(), a.now() + costs().lock_uncontended);
    rw.unlock();
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowAndRangeBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    const auto v = rng.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, SizeAroundRespectsBounds) {
  Rng rng(3);
  std::uint64_t sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const auto v = rng.size_around(16384, 1 << 20);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, std::uint64_t{1} << 20);
    sum += v;
  }
  const double mean = static_cast<double>(sum) / kSamples;
  EXPECT_GT(mean, 8000.0);   // roughly centered on the requested mean
  EXPECT_LT(mean, 32000.0);
}

TEST(LatencyHistogram, MeanMinMaxQuantiles) {
  LatencyHistogram h;
  for (Nanos v : {100, 200, 300, 400, 1000}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 400.0);
  EXPECT_GE(h.quantile(0.99), 512);  // log-bucket upper bound
}

TEST(LatencyHistogram, QuantilesStayWithinObservedRange) {
  // Property: on any sample, min <= p50 <= p99 <= p99.9 <= max. The
  // bucket upper bound alone can exceed max (941.6 us lands in the
  // bucket that ends at 950.3 us).
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    LatencyHistogram h;
    const std::uint64_t n = rng.range(1, 2000);
    const std::uint64_t lo = rng.range(0, 1'000'000);
    const std::uint64_t span = rng.range(1, 10'000'000);
    for (std::uint64_t i = 0; i < n; ++i) {
      h.record(static_cast<Nanos>(lo + rng.below(span)));
    }
    const Nanos p50 = h.quantile(0.50);
    const Nanos p99 = h.quantile(0.99);
    const Nanos p999 = h.quantile(0.999);
    EXPECT_LE(h.min(), p50) << "seed " << seed;
    EXPECT_LE(p50, p99) << "seed " << seed;
    EXPECT_LE(p99, p999) << "seed " << seed;
    EXPECT_LE(p999, h.max()) << "seed " << seed;
  }
  LatencyHistogram one;
  one.record(941'600);
  EXPECT_EQ(one.quantile(0.99), 941'600);
}

TEST(LatencyHistogram, QuantileIsWithinHalfTheTrendGateOfTheExactValue) {
  // Property: a quantile is never below the exact nearest-rank value
  // and at most 5% above it, half bench/trend.py's 10% gate, so a gated
  // p50/p99 row moves only when the latency it reports moves.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    LatencyHistogram h;
    std::vector<Nanos> vals;
    const std::uint64_t n = rng.range(1, 2000);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Spread over many octaves, from exact buckets to seconds.
      const auto v = static_cast<Nanos>(rng.below(std::uint64_t{1} << rng.range(1, 32)));
      h.record(v);
      vals.push_back(v);
    }
    std::sort(vals.begin(), vals.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      const Nanos exact = vals[static_cast<std::size_t>(q * static_cast<double>(n))];
      const Nanos got = h.quantile(q);
      EXPECT_GE(got, exact) << "seed " << seed << " q " << q;
      EXPECT_LE(static_cast<double>(got), static_cast<double>(exact) * 1.05)
          << "seed " << seed << " q " << q;
    }
  }
}

TEST(LatencyHistogram, Merge) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

class FixedWork final : public Workload {
 public:
  FixedWork(Nanos per_op, int nops) : per_op_(per_op), remaining_(nops) {}
  std::int64_t step() override {
    if (remaining_ == 0) return -1;
    remaining_ -= 1;
    charge(per_op_);
    return 1;
  }

 private:
  Nanos per_op_;
  int remaining_;
};

TEST(Runner, SingleThreadRate) {
  std::vector<std::unique_ptr<Workload>> jobs;
  jobs.push_back(std::make_unique<FixedWork>(usec(10), 1000));
  RunnerOptions opts;
  opts.horizon = sec(1);
  auto stats = run_workloads(jobs, opts);
  EXPECT_EQ(stats.ops, 1000u);
  EXPECT_NEAR(stats.ops_per_sec(), 100000.0, 2000.0);
}

TEST(Runner, HorizonStopsWork) {
  std::vector<std::unique_ptr<Workload>> jobs;
  jobs.push_back(std::make_unique<FixedWork>(usec(100), 1 << 30));
  RunnerOptions opts;
  opts.horizon = msec(10);
  auto stats = run_workloads(jobs, opts);
  EXPECT_NEAR(static_cast<double>(stats.ops), 100.0, 3.0);
}

TEST(Runner, CpuContentionScalesThroughput) {
  // With 8 cores, 32 CPU-bound threads should aggregate to ~8x a single
  // thread's rate, not 32x.
  auto run_with = [](int nthreads) {
    std::vector<std::unique_ptr<Workload>> jobs;
    for (int i = 0; i < nthreads; ++i) {
      jobs.push_back(std::make_unique<FixedWork>(usec(10), 1 << 30));
    }
    RunnerOptions opts;
    opts.horizon = msec(100);
    opts.cpu_cores = 8;
    return run_workloads(jobs, opts).ops_per_sec();
  };
  const double one = run_with(1);
  const double eight = run_with(8);
  const double thirty_two = run_with(32);
  EXPECT_NEAR(eight / one, 8.0, 0.5);
  EXPECT_NEAR(thirty_two / one, 8.0, 0.5);  // capped at core count
}

TEST(Runner, MaxOpsCap) {
  std::vector<std::unique_ptr<Workload>> jobs;
  jobs.push_back(std::make_unique<FixedWork>(usec(1), 1 << 30));
  RunnerOptions opts;
  opts.horizon = sec(100);
  opts.max_ops = 500;
  auto stats = run_workloads(jobs, opts);
  EXPECT_EQ(stats.ops, 500u);
}

}  // namespace
}  // namespace bsim::sim
