// Simulated threads and the current-thread execution context.
//
// The simulation is *conservative sequential discrete-event*: at any real
// instant exactly one simulated thread executes (the Runner always resumes
// the thread with the smallest virtual clock), so shared data structures
// need no real synchronization. Virtual-time contention is modeled by
// SimMutex / device queues / the CPU contention factor instead.
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/time.h"

namespace bsim::sim {

/// A simulated thread: an id plus a virtual clock.
class SimThread {
 public:
  explicit SimThread(int id) : id_(id) {}

  [[nodiscard]] Nanos now() const { return now_; }
  [[nodiscard]] int id() const { return id_; }

  /// Charge CPU work. Scaled by the runner's contention factor so that 32
  /// runnable threads on 8 cores make 4x slower individual progress —
  /// except inside a lock-protected critical section: threads blocked on
  /// the lock are asleep, so the holder effectively has a core to itself.
  void charge_cpu(Nanos work) {
    assert(work >= 0);
    const double scale = lock_depth_ > 0 ? 1.0 : cpu_scale_;
    now_ += static_cast<Nanos>(static_cast<double>(work) * scale);
    cpu_charged_ += work;
  }

  void enter_critical() { lock_depth_ += 1; }
  void exit_critical() {
    assert(lock_depth_ > 0);
    lock_depth_ -= 1;
  }

  /// Advance to an absolute virtual time (waiting on a device or a lock;
  /// not scaled by CPU contention). No-op if `t` is in the past.
  void wait_until(Nanos t) {
    if (t > now_) now_ = t;
  }

  /// Unscaled advance, for pure latency (e.g. a device interrupt delay).
  void wait(Nanos d) {
    assert(d >= 0);
    now_ += d;
  }

  void set_cpu_scale(double s) { cpu_scale_ = s; }
  [[nodiscard]] Nanos cpu_charged() const { return cpu_charged_; }

 private:
  Nanos now_ = 0;
  Nanos cpu_charged_ = 0;  // unscaled total CPU work, for accounting
  double cpu_scale_ = 1.0;
  int lock_depth_ = 0;
  int id_;
};

/// The simulated thread currently executing. The Runner (or a test) must
/// install one before any timed code runs.
SimThread& current();
[[nodiscard]] SimThread* current_or_null();
void set_current(SimThread* t);

/// Charge CPU work to the current simulated thread.
inline void charge(Nanos work) { current().charge_cpu(work); }

/// Current virtual time of the executing simulated thread.
inline Nanos now() { return current().now(); }

/// RAII: install a SimThread as current for a scope (used by tests/examples
/// that run timed code outside a Runner).
class ScopedThread {
 public:
  explicit ScopedThread(SimThread& t) : prev_(current_or_null()) { set_current(&t); }
  ~ScopedThread() { set_current(prev_); }
  ScopedThread(const ScopedThread&) = delete;
  ScopedThread& operator=(const ScopedThread&) = delete;

 private:
  SimThread* prev_;
};

}  // namespace bsim::sim
