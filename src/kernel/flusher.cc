#include "kernel/flusher.h"

#include <vector>

#include "blockdev/opts.h"
#include "kernel/vfs.h"
#include "sim/thread.h"

namespace bsim::kern {

Flusher::Flusher(SuperBlock& sb) : sb_(&sb), thread_(-2) {
  // First periodic wake is one period after attach (mounts happen at
  // arbitrary virtual times), not at absolute time kFlushPeriod.
  const sim::SimThread* t = sim::current_or_null();
  next_timer_ = (t != nullptr ? t->now() : 0) + kFlushPeriod;
}

bool Flusher::wake_due(const Inode& inode) const {
  return inode.mapping.nr_dirty() >= kDirtyPagesThreshold;
}

void Flusher::poke(Inode& inode) {
  if (running_) return;  // poked from flusher context; already draining
  stats_.pokes += 1;
  const bool timer_due = sim::now() >= next_timer_;
  const bool threshold = wake_due(inode);
  if (timer_due || threshold) {
    stats_.wakeups += 1;
    if (threshold) stats_.threshold_wakeups += 1;
    if (timer_due) stats_.timer_wakeups += 1;
    run_cycle(timer_due);
  }
  // Backpressure: bound how far in-flight background writeback may run
  // ahead of the writer. The flusher's clock is where its drains
  // complete; if that is more than kMaxBacklog past the writer, the
  // dirty limit is hit and the writer waits until the backlog shrinks to
  // the window (throttling it to the drain rate at steady state).
  const sim::Nanos limit = sim::now() + kMaxBacklog;
  if (thread_.now() > limit) {
    const sim::Nanos resume = thread_.now() - kMaxBacklog;
    stats_.throttle_waits += 1;
    stats_.throttled += resume - sim::now();
    sim::current().wait_until(resume);
  }
}

void Flusher::run_cycle(bool timer_due) {
  // A wake drains everything dirty (draining the poked inode first would
  // only reorder within one already-off-writer-clock cycle).
  const sim::Nanos wake_at = sim::now();
  const std::uint64_t flushed_before = stats_.pages_flushed;
  running_ = true;
  {
    // Everything below charges the flusher's clock, not the writer's: the
    // drain starts at the poke (or later, if a previous cycle is still
    // "running" in virtual time — its clock is already past the poke).
    sim::ScopedThread in(thread_);
    thread_.wait_until(wake_at);

    // Collect the dirty inodes off the superblock's dirty-inode list
    // (O(dirty), not a full inode-cache walk), then push each through its
    // file system's normal writeback path (batched ->writepages where
    // supported). Collecting first keeps the walk stable if FS code
    // touches the inode cache mid-drain.
    std::vector<Inode*> dirty;
    sb_->collect_dirty_inodes(dirty, stats_.inodes_scanned);
    for (Inode* inode : dirty) {
      const std::size_t before = inode->mapping.nr_dirty();
      if (generic_writeback(*inode) != Err::Ok) {
        // Background writeback has no caller to report to; the pages that
        // failed stay dirty and will be retried (or surface the error on
        // the foreground fsync path).
        stats_.errors += 1;
      }
      stats_.pages_flushed += before - inode->mapping.nr_dirty();
    }
  }
  running_ = false;
  // thread_.now() is where this cycle's writeback completed. A wake that
  // wrote nothing drained nothing, so it records no sample.
  if (stats_.pages_flushed > flushed_before) {
    stats_.wake_to_drain.record(thread_.now() - wake_at);
  }
  if (timer_due) next_timer_ = wake_at + kFlushPeriod;
}

void Flusher::wait_idle() { sim::current().wait_until(thread_.now()); }

void maybe_attach_flusher(SuperBlock& sb, const blk::MountOpts& opts) {
  if (opts.flusher) sb.attach_flusher(std::make_unique<Flusher>(sb));
}

}  // namespace bsim::kern
