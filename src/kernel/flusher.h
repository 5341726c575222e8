// Background writeback: one flusher thread per mount (the per-bdi
// flusher in Linux terms; an md volume is one backing device, so a RAID
// mount has one too) that drains dirty pages OFF the writer's clock.
//
// Before this existed, every sync ran in writer context at queue depth 1:
// generic_file_write did its own threshold writeback, and fsync paths
// paid a whole-cache writeback inline. The flusher moves the steady-state
// draining to a dedicated simulated thread:
//
//   - Writers poke() it from the generic write path (the
//     balance_dirty_pages hook). The flusher decides whether to wake —
//     an inode crossed its dirty-page threshold, or the kupdated-style
//     periodic timer expired — and, if so, drains on ITS OWN virtual
//     clock. The writer is not charged; the device channels are occupied
//     at flusher time, so foreground I/O submitted meanwhile queues
//     behind it exactly as real background writeback competes for the
//     device.
//   - Dirty pages drain through the file system's normal ->writepages
//     path (generic_writeback), so journaling semantics are unchanged —
//     the work just happens on the flusher thread.
//   - Dirty buffers are not drained here: a journaled file system tags
//     each buffer it dirties into a transaction, and that transaction's
//     commit is the only code that writes it.
//   - Durability barriers (fsync / sync(2)) call wait_idle() so the
//     foreground thread cannot observe "durable" at a clock earlier than
//     the background writeback it depends on. Device FLUSH additionally
//     barriers on all channels, covering flusher-issued transfers.
//
// Determinism: the simulation is sequential — poke() runs the drain
// inline (on a different clock), at program points that are a
// deterministic function of the workload. Crash-sweep tests therefore
// stay reproducible; media write order is program order, as before.
#pragma once

#include <cstdint>

#include "sim/stats.h"
#include "sim/thread.h"
#include "sim/time.h"

namespace bsim::blk {
struct MountOpts;
}  // namespace bsim::blk

namespace bsim::kern {

class Inode;
class SuperBlock;

/// Dirty pages per inode that trigger writeback: the flusher's wake
/// threshold, and with "-o noflusher" the point where generic_file_write
/// drains the inode in the writer's context.
inline constexpr std::size_t kDirtyPagesThreshold = 256;

/// kupdated-style periodic writeback: a poke this much virtual time after
/// the last timer wake drains everything, even below the threshold.
inline constexpr sim::Nanos kFlushPeriod = 30 * sim::kMillisecond;

/// Backpressure (the dirty-limit half of balance_dirty_pages, IO-less
/// as in Linux since 3.2): the backlog is how far the flusher's clock,
/// where the writeback a writer triggered completes, runs ahead of the
/// writer. Up to kMaxBacklog the writer runs free: writes complete at
/// memory speed and drains pipeline with foreground work. Above it, each
/// poke pauses the writer kPaceDivisor-th of the excess, so a writer
/// ahead of a slow device is slowed over many writes toward the drain
/// rate instead of one write waiting out the device's whole backlog.
/// kHardBacklog is the dirty limit no backlog passes: a poke that would
/// leave more waits down to it. Steady-state buffered-write throughput
/// stays device-bound (with a bounded in-flight bonus) instead of
/// becoming an unbounded-dirty-memory measurement.
///
/// Derivation. kMaxBacklog plays Linux's freerun ceiling and kHardBacklog
/// its dirty limit: their defaults, dirty_background_ratio 10% and
/// dirty_ratio 20%, put the limit at twice the point where throttling
/// starts. The 1/8 is the damping Linux applies to each
/// dirty_ratelimit update (wb_update_dirty_ratelimit moves the rate by
/// an eighth of the step), so a pause closes an eighth of the gap.
inline constexpr sim::Nanos kMaxBacklog = 16 * sim::kMillisecond;
inline constexpr sim::Nanos kHardBacklog = 2 * kMaxBacklog;
inline constexpr sim::Nanos kPaceDivisor = 8;

struct FlusherStats {
  std::uint64_t pokes = 0;              // writer-side hook invocations
  std::uint64_t wakeups = 0;            // timer or threshold wakes
  std::uint64_t threshold_wakeups = 0;  // woken by a dirty threshold
  std::uint64_t timer_wakeups = 0;      // woken by the periodic timer
  std::uint64_t pages_flushed = 0;
  std::uint64_t throttle_waits = 0;   // pokes that paused the writer
  sim::Nanos throttled = 0;           // total writer time spent paused
  std::uint64_t errors = 0;  // writeback errors swallowed in background
  /// Dirty-inode-list entries examined across all wakes. With the list a
  /// wake is O(dirty inodes); before it, every wake walked the whole
  /// inode cache (the ROADMAP full-walk item).
  std::uint64_t inodes_scanned = 0;
  /// Per wake that wrote pages: poke time -> the cycle's last writeback
  /// completion on the flusher clock (how long one background drain
  /// occupies the device). An idle wake records nothing.
  sim::LatencyHistogram wake_to_drain;
};

/// The background page-writeback thread of a mounted superblock. Every
/// mount with background writeback has exactly one, whatever the volume
/// below it: each inode's pages stripe across every member anyway.
/// Owned by the SuperBlock; file systems opt in at mount.
class Flusher {
 public:
  explicit Flusher(SuperBlock& sb);

  Flusher(const Flusher&) = delete;
  Flusher& operator=(const Flusher&) = delete;

  /// Writer-side hook (called with the writer's clock current). Decides
  /// whether to wake; any drain runs on the flusher's own clock, starting
  /// no earlier than the poke. `inode` is the inode the writer dirtied.
  void poke(Inode& inode);

  /// Foreground durability barrier: advance the calling thread past all
  /// writeback the flusher has completed.
  void wait_idle();

  /// Would a poke right now wake the flusher? (exposed for tests)
  [[nodiscard]] bool wake_due(const Inode& inode) const;

  [[nodiscard]] const FlusherStats& stats() const { return stats_; }
  [[nodiscard]] sim::Nanos last_completion() const { return thread_.now(); }

 private:
  void run_cycle(bool timer_due);

  SuperBlock* sb_;
  sim::SimThread thread_;
  sim::Nanos next_timer_;
  bool running_ = false;  // reentrancy guard (poke from flusher context)
  FlusherStats stats_;
};

/// Mount-time helper shared by the deployments that opt in to background
/// writeback: attach the mount's flusher to `sb`, unless `opts` say
/// "noflusher" (the writer-context ablation escape hatch).
void maybe_attach_flusher(SuperBlock& sb, const blk::MountOpts& opts);

}  // namespace bsim::kern
