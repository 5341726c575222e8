// The benchmark's five workloads. Each is a closed loop: a simulated
// thread issues its next op only when the previous one returned. Op
// sequences live here, not in src/workloads/, so the benchmark's inputs
// change only when this directory does; wl::TestBed (the deployment) and
// wl::linux_tree_manifest (the untar input) are reused.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "shim.h"
#include "sim/runner.h"
#include "workloads/testbed.h"

namespace bsim::bm {

/// Outcomes of one trial's correctness checks; any failure voids the run.
class Checks {
 public:
  struct Item {
    std::string name;
    bool ok = false;
    std::string detail;
  };

  void expect(bool ok, std::string name, std::string detail = "") {
    items_.push_back(Item{std::move(name), ok, std::move(detail)});
  }
  [[nodiscard]] bool all_ok() const {
    for (const Item& i : items_) {
      if (!i.ok) return false;
    }
    return true;
  }
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

struct Env {
  wl::TestBed& bed;
  Shim& sys;
  Recorder& rec;
};

/// One simulated thread's op stream: a closed-loop client that issues its
/// next op when the previous one returns. step() brackets the op with the
/// recorder, so an op's latency sample is the virtual time of one step.
class Job : public sim::Workload {
 public:
  Job(Env& env, int tid) : env_(env), tid_(tid) {}

  std::int64_t step() final {
    if (done()) return -1;
    env_.rec.mark_epoch();
    env_.rec.begin_op(tid_);
    const std::int64_t bytes = op();
    env_.rec.end_op();
    return bytes;
  }

 protected:
  /// One op's I/O; returns the payload bytes it moved.
  virtual std::int64_t op() = 0;
  [[nodiscard]] virtual bool done() const { return false; }

  Env& env_;
  int tid_;
};

/// A workload: its deployment, its load shape, its jobs, and the checks
/// that its outputs are correct.
class Bench {
 public:
  virtual ~Bench() = default;

  /// Deployment: xv6 on Bento, device size and volume mount options.
  [[nodiscard]] virtual wl::BedOptions bed() const = 0;
  [[nodiscard]] virtual int threads() const = 0;
  /// Measured ops; 0 runs every job until it is done.
  [[nodiscard]] virtual std::uint64_t ops() const = 0;
  /// Trace ring capacity (events): enough for every event from the epoch
  /// on; the oldest set-up events may be overwritten.
  [[nodiscard]] virtual std::size_t trace_events() const = 0;
  virtual std::unique_ptr<Job> job(Env& env, int tid) = 0;
  /// Checks made on a fresh mount after the run and an fsck; the post-run
  /// simulated thread is current.
  virtual void verify(Env& env, Checks& checks) = 0;
};

/// `ops` = 0 keeps the workload's default op count. Null for an unknown
/// name.
std::unique_ptr<Bench> make_bench(std::string_view name, std::uint64_t seed,
                                  std::uint64_t ops);

/// The mail workload with wl::Varmail's pre-fill seed, for the oracle
/// that the shim adds no virtual time.
std::unique_ptr<Bench> make_mail(std::uint64_t seed, std::uint64_t ops,
                                 std::uint64_t prefill_seed);

}  // namespace bsim::bm
