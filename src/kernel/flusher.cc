#include "kernel/flusher.h"

#include <algorithm>

#include "blockdev/opts.h"
#include "kernel/vfs.h"
#include "sim/thread.h"

namespace bsim::kern {

Flusher::Flusher(SuperBlock& sb, FlusherParams params, std::size_t shard,
                 std::size_t nshards)
    : sb_(&sb),
      params_(params),
      shard_(shard),
      nshards_(std::max<std::size_t>(nshards, 1)),
      thread_(-2 - static_cast<int>(shard)) {
  // First periodic wake is one period after attach (mounts happen at
  // arbitrary virtual times), not at absolute time `period`.
  const sim::SimThread* t = sim::current_or_null();
  next_timer_ = (t != nullptr ? t->now() : 0) + params_.period;
}

bool Flusher::owns(const Inode& inode) const {
  return nshards_ <= 1 || inode.ino() % nshards_ == shard_;
}

std::size_t Flusher::shard_buffer_limit() const {
  const BufferCache& bc = sb_->bufcache();
  const std::size_t whole =
      bc.capacity() > 0
          ? std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       static_cast<double>(bc.capacity()) *
                       params_.dirty_ratio))
          : params_.dirty_buffers_min;
  // Per member device, the trigger is its proportional share of the
  // volume-wide limit, so an N-way volume wakes at the same aggregate
  // dirty population as one device would.
  return std::max<std::size_t>(1, whole / nshards_);
}

bool Flusher::wake_due(const Inode* hint) const {
  if (hint != nullptr && owns(*hint) &&
      hint->mapping.nr_dirty() >= params_.dirty_pages_threshold) {
    return true;
  }
  const BufferCache& bc = sb_->bufcache();
  const std::size_t dirty =
      nshards_ > 1 ? bc.nr_dirty_shard(shard_) : bc.nr_dirty();
  return dirty >= shard_buffer_limit();
}

void Flusher::poke(Inode* hint) {
  if (running_) return;  // poked from flusher context; already draining
  stats_.pokes += 1;
  const bool timer_due = sim::now() >= next_timer_;
  const bool threshold = wake_due(hint);
  if (timer_due || threshold) {
    stats_.wakeups += 1;
    if (threshold) stats_.threshold_wakeups += 1;
    if (timer_due) stats_.timer_wakeups += 1;
    run_cycle(timer_due);
  }
  // Backpressure: bound how far in-flight background writeback may run
  // ahead of the writer. The flusher's clock is where its drains
  // complete; if that is more than max_backlog past the writer, the
  // dirty limit is hit and the writer waits until the backlog shrinks to
  // the window (throttling it to the drain rate at steady state).
  // On a striped volume only the flusher that OWNS the writer's inode
  // may throttle it: courtesy pokes (no hint, or another shard's inode)
  // wake drains but never charge this writer an unowned member's
  // backlog — backpressure stays per device.
  if (nshards_ > 1 && (hint == nullptr || !owns(*hint))) return;
  const sim::Nanos limit = sim::now() + params_.max_backlog;
  if (thread_.now() > limit) {
    const sim::Nanos resume = thread_.now() - params_.max_backlog;
    stats_.throttle_waits += 1;
    stats_.throttled += resume - sim::now();
    sim::current().wait_until(resume);
  }
}

void Flusher::run_cycle(bool timer_due) {
  // A wake drains everything dirty (hint-first ordering would only
  // reorder within one already-off-writer-clock cycle).
  const sim::Nanos wake_at = sim::now();
  running_ = true;
  {
    // Everything below charges the flusher's clock, not the writer's: the
    // drain starts at the poke (or later, if a previous cycle is still
    // "running" in virtual time — its clock is already past the poke).
    sim::ScopedThread in(thread_);
    thread_.wait_until(wake_at);

    // Pages first: collect THIS shard's dirty inodes off the superblock's
    // dirty-inode list (O(dirty), not a full inode-cache walk), then push
    // each through its file system's normal writeback path (batched
    // ->writepages where supported). Collecting first keeps the walk
    // stable if FS code touches the inode cache mid-drain.
    std::vector<Inode*> dirty;
    sb_->collect_dirty_inodes(shard_, nshards_, dirty,
                              stats_.inodes_scanned);
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

    // Then buffers — this shard's share only: one elevator-sorted pass
    // through the async request path, several batches in flight across
    // the member device's channels.
    const std::size_t shard_dirty =
        nshards_ > 1 ? sb_->bufcache().nr_dirty_shard(shard_)
                     : sb_->bufcache().nr_dirty();
    if (shard_dirty > 0) {
      stats_.buffers_flushed += sb_->bufcache().flush_dirty_async(
          params_.max_batch, params_.queue_depth, shard_, nshards_,
          params_.use_plug);
    }
  }
  running_ = false;
  // thread_.now() is where this cycle's writeback completed (it never
  // moves backwards, so a no-work wake records the residual backlog of
  // the previous cycle — 0 once the device is idle).
  stats_.wake_to_drain.record(thread_.now() - wake_at);
  if (timer_due) next_timer_ = wake_at + params_.period;
}

void Flusher::wait_idle() { sim::current().wait_until(thread_.now()); }

void maybe_attach_flusher(SuperBlock& sb, const blk::MountOpts& opts,
                          FlusherParams params) {
  if (!opts.flusher) return;
  params.use_plug = opts.plug;
  // One flusher per member device: a plain device gets one; a striped
  // volume gets fan_out() of them, each owning one member's writeback
  // and backpressure.
  const std::size_t n = sb.bdev().fan_out();
  for (std::size_t i = 0; i < n; ++i) {
    sb.attach_flusher(std::make_unique<Flusher>(sb, params, i, n));
  }
}

}  // namespace bsim::kern
