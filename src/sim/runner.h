// The virtual-time scheduler that drives multi-threaded benchmarks.
//
// Each simulated thread runs a Workload. The Runner always resumes the
// thread with the smallest virtual clock (conservative discrete-event
// order), so cross-thread interactions through SimMutex / SimRwLock /
// devices are causally consistent. CPU contention is modeled by scaling
// CPU charges by runnable_threads / cores (processor sharing), matching the
// paper's 8-core testbed when running 32-thread filebench personalities.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/stats.h"
#include "sim/thread.h"

namespace bsim::sim {

/// One benchmark thread's op stream.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Perform one logical operation in virtual time on the current thread.
  /// Returns the number of payload bytes moved (0 for metadata ops), or -1
  /// when the workload has no more work.
  virtual std::int64_t step() = 0;

  /// Optional untimed preparation (e.g. pre-creating a file set).
  virtual void setup() {}
};

struct RunnerOptions {
  /// Stop issuing new operations once a thread's clock passes this.
  Nanos horizon = 60 * kSecond;
  /// Also stop after this many total operations (0 = unlimited). Keeps
  /// cache-hit microbenchmarks (millions of virtual ops/sec) tractable;
  /// rates are steady-state so the reported ops/sec is unaffected.
  std::uint64_t max_ops = 0;
  /// Physical cores for the contention model (0 = use sim::costs()).
  int cpu_cores = 0;
};

/// Run all workloads to completion or to the horizon; returns merged stats.
RunStats run_workloads(std::span<const std::unique_ptr<Workload>> threads,
                       const RunnerOptions& opts);

}  // namespace bsim::sim
