// Virtual-time synchronization primitives.
//
// Because simulated threads execute one at a time in global virtual-time
// order (see thread.h), a lock never needs to block for real: acquiring a
// lock that another simulated thread "holds" simply advances the caller's
// clock to the lock's release time. This models serialization and convoy
// effects while keeping the simulation deterministic.
#pragma once

#include <algorithm>
#include <cassert>

#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::sim {

/// Mutual exclusion in virtual time, with an optional shared mode.
///
/// Two flavours, matching how the kernel behaves under CPU contention. In
/// both, the holder runs its critical section unscaled: a sleeping-lock
/// holder has a core to itself because its waiters are asleep, and a
/// spinlock holder keeps its core while waiters burn cycles on *other*
/// cores. The flavours differ in the cost of a contended acquisition:
///   Sleeping (default) — waiters pay scheduler wake-up latency.
///   Spin — ownership transfer costs a cacheline handoff (queued-spinlock
///       MCS-style); short sections like the page-tree lock.
///
/// Shared holders (lock_shared) wait only for the last exclusive release,
/// so they overlap one another; an exclusive acquisition also waits for
/// the last shared release. A shared acquisition costs what an exclusive
/// one does, and a lock never taken shared behaves exactly as a plain
/// mutex. The lock keeps one release time per mode — the latest in host
/// order — so a holder that releases late in virtual time delays every
/// later acquirer of the conflicting mode, even one whose clock is earlier.
class SimMutex {
 public:
  enum class Kind { Sleeping, Spin };

  SimMutex() = default;
  explicit SimMutex(Kind kind) : kind_(kind) {}

  void lock() { acquire(std::max(available_at_, shared_available_at_)); }

  void unlock() {
    available_at_ = std::max(available_at_, now());
    current().exit_critical();
  }

  void lock_shared() { acquire(available_at_); }

  void unlock_shared() {
    shared_available_at_ = std::max(shared_available_at_, now());
    current().exit_critical();
  }

  [[nodiscard]] std::uint64_t acquires() const { return acquires_; }
  [[nodiscard]] std::uint64_t contended_acquires() const { return contended_acquires_; }
  [[nodiscard]] Nanos total_wait() const { return waited_; }

 private:
  /// Wait until `ready`, then enter the critical section.
  void acquire(Nanos ready) {
    auto& t = current();
    const bool contended = t.now() < ready;
    if (contended) {
      contended_acquires_ += 1;
      waited_ += ready - t.now();
      t.wait_until(ready);
    }
    t.enter_critical();
    t.charge_cpu(costs().lock_uncontended);
    if (contended) {
      t.charge_cpu(kind_ == Kind::Spin ? costs().spin_handoff
                                       : costs().sched_wakeup);
    }
    acquires_ += 1;
  }

  Kind kind_ = Kind::Sleeping;
  Nanos available_at_ = 0;         // latest exclusive release
  Nanos shared_available_at_ = 0;  // latest shared release
  Nanos waited_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t contended_acquires_ = 0;
};

/// RAII guard for SimMutex.
class ScopedLock {
 public:
  explicit ScopedLock(SimMutex& m) : m_(m) { m_.lock(); }
  ~ScopedLock() { m_.unlock(); }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  SimMutex& m_;
};

/// The VFS's i_rwsem, which this model only ever takes for write: holders
/// serialize, and unlike SimMutex a contended waiter pays no scheduler
/// wake-up.
class SimRwLock {
 public:
  void lock() {
    auto& t = current();
    t.wait_until(writer_release_);
    t.charge_cpu(costs().lock_uncontended);
    t.enter_critical();
  }

  void unlock() {
    writer_release_ = std::max(writer_release_, now());
    current().exit_critical();
  }

 private:
  Nanos writer_release_ = 0;
};

}  // namespace bsim::sim
