// Background writeback: a per-device flusher thread (pdflush / the
// per-bdi flusher in Linux terms) that drains dirty pages OFF the
// writer's clock.
//
// Before this existed, every sync ran in writer context at queue depth 1:
// generic_file_write did its own threshold writeback, and fsync paths
// paid sync_all inline. The flusher moves the steady-state draining to a
// dedicated simulated thread per device:
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
//   - Dirty buffers are not drained here: a journaled file system pins
//     each buffer it dirties to a transaction (BufferHead::jdirty), and
//     that transaction's commit writes it.
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
#include <vector>

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

/// Backpressure (the dirty-limit half of balance_dirty_pages): the writer
/// may run at most this much virtual time ahead of the background
/// writeback it triggered. Within the window, writes complete at memory
/// speed and drains pipeline with foreground work; once the device falls
/// further behind, the writer is throttled to the drain rate — so
/// steady-state buffered-write throughput stays device-bound (with a
/// bounded in-flight bonus) instead of becoming an unbounded-dirty-memory
/// measurement.
inline constexpr sim::Nanos kMaxBacklog = 16 * sim::kMillisecond;

struct FlusherStats {
  std::uint64_t pokes = 0;              // writer-side hook invocations
  std::uint64_t wakeups = 0;            // pokes that drained something
  std::uint64_t threshold_wakeups = 0;  // woken by a dirty threshold
  std::uint64_t timer_wakeups = 0;      // woken by the periodic timer
  std::uint64_t pages_flushed = 0;
  std::uint64_t throttle_waits = 0;   // pokes that hit the backlog limit
  sim::Nanos throttled = 0;           // total writer time spent throttled
  std::uint64_t errors = 0;  // writeback errors swallowed in background
  /// Dirty-inode-list entries examined across all wakes. With the list a
  /// wake is O(dirty inodes); before it, every wake walked the whole
  /// inode cache (the ROADMAP full-walk item).
  std::uint64_t inodes_scanned = 0;
  /// Per wake: poke time -> the cycle's last writeback completion on the
  /// flusher clock (how long one background drain occupies the device).
  sim::LatencyHistogram wake_to_drain;
};

/// One background page-writeback thread of a mounted superblock. A plain
/// device gets exactly one (shard 0 of 1); a striped volume gets
/// fan_out() of them. Inodes shard across the flushers by inode number
/// (flusher `shard` owns the inodes with ino % nshards == shard, like one
/// bdi per inode), while each owned inode's pages still stripe across
/// every member. The balance_dirty_pages backpressure is *per flusher*: a
/// writer throttles only against the flusher that owns its inode.
/// Owned by the SuperBlock; file systems opt in at mount.
class Flusher {
 public:
  explicit Flusher(SuperBlock& sb, std::size_t shard = 0,
                   std::size_t nshards = 1);

  Flusher(const Flusher&) = delete;
  Flusher& operator=(const Flusher&) = delete;

  /// Writer-side hook (called with the writer's clock current). Decides
  /// whether to wake; any drain runs on the flusher's own clock, starting
  /// no earlier than the poke. `hint` is the inode the writer dirtied
  /// (may be null for metadata-only pokes).
  void poke(Inode* hint);

  /// Foreground durability barrier: advance the calling thread past all
  /// writeback the flusher has completed.
  void wait_idle();

  /// Would a poke right now wake the flusher? (exposed for tests)
  [[nodiscard]] bool wake_due(const Inode* hint) const;

  [[nodiscard]] const FlusherStats& stats() const { return stats_; }
  [[nodiscard]] sim::Nanos last_completion() const { return thread_.now(); }
  /// Which inode shard this flusher owns (0 of 1 for plain devices).
  [[nodiscard]] std::size_t shard() const { return shard_; }
  [[nodiscard]] std::size_t nshards() const { return nshards_; }
  /// Does this flusher's shard own `inode`'s writeback?
  [[nodiscard]] bool owns(const Inode& inode) const;

 private:
  void run_cycle(bool timer_due);

  SuperBlock* sb_;
  std::size_t shard_ = 0;
  std::size_t nshards_ = 1;
  sim::SimThread thread_;
  sim::Nanos next_timer_;
  bool running_ = false;  // reentrancy guard (poke from flusher context)
  FlusherStats stats_;
};

/// Mount-time helper shared by the deployments that opt in to background
/// writeback: attach `bdev().fan_out()` flushers to `sb` (exactly one
/// for a plain device), each owning one inode shard, unless `opts`
/// say "noflusher" (the writer-context ablation escape hatch).
void maybe_attach_flusher(SuperBlock& sb, const blk::MountOpts& opts);

}  // namespace bsim::kern
