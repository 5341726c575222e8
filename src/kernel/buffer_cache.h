// The kernel buffer cache: the sb_bread / brelse / mark_buffer_dirty /
// sync_dirty_buffer interface the paper's §4.5 example is built around.
//
// Buffers hold their own copy of block data (distinct from the device's
// media state) so that a file system can modify a cached block without it
// becoming "written" — the property journaling depends on and that the
// crash-consistency property tests exercise.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "blockdev/device.h"
#include "kernel/errno.h"
#include "kernel/errseq.h"
#include "sim/sync.h"

namespace bsim::kern {

class BufferCache;

/// One cached block. Reference-counted by the cache; file systems access
/// buffers through pointers returned by bread/getblk and must brelse them
/// (in Bento, the BufferHeadHandle capability does this automatically).
struct BufferHead {
  std::uint64_t blockno = 0;
  bool uptodate = false;
  bool dirty = false;
  /// Journal-pinned (jbd2's "managed by the journal"): the block belongs
  /// to a running/uncommitted transaction. Background writeback
  /// (collect_dirty, sync_all, eviction) must NOT write it to media — the
  /// journal commit is the only path allowed to, or WAL ordering breaks.
  /// Cleared when the commit path writes the buffer (set_clean).
  bool jdirty = false;
  /// Held by an open request plug (a deferred async write references this
  /// buffer's bytes); eviction must keep it resident until the plug
  /// closes.
  bool plug_held = false;
  /// Holds regular-file data (set by the file system's write path,
  /// cleared by getblk when the block is reused). Once clean and
  /// unreferenced such a buffer goes to the cold end of the LRU: file
  /// data streaming through the journal must not evict the metadata the
  /// next operation reads (drop-behind).
  bool drop_behind = false;
  /// Virtual time the buffer's read from the device completed. A bread
  /// whose clock is still before it found the read in flight and waits
  /// for it rather than seeing the data early.
  sim::Nanos filled_at = 0;
  int refcount = 0;
  BufferCache* cache = nullptr;
  std::array<std::byte, blk::kBlockSize> data{};

  [[nodiscard]] std::span<std::byte> bytes() { return {data.data(), data.size()}; }
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {data.data(), data.size()};
  }
};

struct BufferCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t evictions = 0;
  /// Objects examined while gathering dirty buffers for writeback. With
  /// the dirty-block index a drain scans O(dirty) entries, not the whole
  /// cache — the flusher full-walk regression stat.
  std::uint64_t dirty_scanned = 0;
  /// Dirty buffers skipped by background writeback because a journal
  /// transaction owns them (BufferHead::jdirty).
  std::uint64_t jdirty_skipped = 0;
  /// flush_dirty_async batches whose boundary was trimmed to a stripe-row
  /// edge (the stripe-aware clustering regression stat).
  std::uint64_t stripe_aligned_batches = 0;
};

class BufferCache {
 public:
  /// `capacity` caps cached blocks; 0 means unbounded (tests).
  BufferCache(blk::BlockDevice& dev, std::size_t capacity);
  ~BufferCache();

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  /// Read a block through the cache (timed). Increments the refcount.
  Result<BufferHead*> bread(std::uint64_t blockno);

  /// Read many blocks through the cache as ONE batched device submission:
  /// misses become bios that the request queue merges and spreads across
  /// device channels. Returns the buffers in `blocknos` order, each with a
  /// reference the caller must brelse. On error no references are leaked.
  Result<std::vector<BufferHead*>> bread_batch(
      std::span<const std::uint64_t> blocknos);

  /// Populate the cache for [start, start+n) without taking references
  /// (the readahead path). Blocks beyond the device and blocks already
  /// cached are skipped; the rest arrive via one batched submission.
  void readahead(std::uint64_t start, std::size_t n);

  /// Get a buffer without reading the device. The buffer is marked
  /// uptodate: the caller is declaring it will fully overwrite the block,
  /// and a later bread() must return the in-cache contents, never re-read
  /// stale device state over them. It loses any drop-behind mark: its
  /// new contents may be anything.
  Result<BufferHead*> getblk(std::uint64_t blockno);

  /// Drop one reference.
  void brelse(BufferHead* bh);

  /// Take one more reference to a buffer the caller already holds (get_bh):
  /// no lookup, no LRU move.
  void bget(BufferHead* bh) {
    assert(bh != nullptr && bh->cache == this && bh->refcount > 0);
    bh->refcount += 1;
    outstanding_refs_ += 1;
  }

  void mark_dirty(BufferHead* bh) {
    if (!bh->dirty) {
      bh->dirty = true;
      nr_dirty_ += 1;
      dirty_index_.insert(bh->blockno);
      shard_dirty_[dev_.child_of(bh->blockno)] += 1;
    }
  }

  /// The buffer holds regular-file data (see BufferHead::drop_behind).
  void mark_drop_behind(BufferHead* bh) { bh->drop_behind = true; }

  /// Synchronously write one buffer to the device (timed). Like Linux's
  /// sync_dirty_buffer this waits for the transfer, not for a cache FLUSH,
  /// and returns Io when the write failed.
  Err sync_dirty_buffer(BufferHead* bh);

  /// Batched writeback: one request-queue submission for all `bhs`
  /// (a journal install hands its whole checkpoint here). Counts one
  /// writeback per buffer. A buffer's dirty bit is cleared only if its
  /// write command actually executed — under the crash model's
  /// kill_after, bios at or past the kill point never reach media and
  /// their buffers stay dirty (they were NOT written back). Returns Io
  /// when any write of the batch failed.
  Err sync_dirty_buffers(std::span<BufferHead* const> bhs);

  /// Non-barrier batched writeback: same submission (and the same
  /// applied-aware dirty clearing, which happens at submission time when
  /// media effects land), but the caller redeems the returned ticket
  /// later, so several batches can be in flight (QD>1). An empty span
  /// returns an empty ticket.
  /// Under an open plug (see plug()) the submission is DEFERRED: the
  /// cache keeps the bios alive, dispatch happens at unplug in one
  /// merged elevator pass, and dirty state is retired then, applied-aware
  /// as always.
  blk::Ticket sync_dirty_buffers_async(std::span<BufferHead* const> bhs);

  /// Write `srcs` to the consecutive blocks [start, start + srcs.size())
  /// straight from the caller's bytes, as one async batch that never enters
  /// the cache: a journal's log run, written from the buffers its
  /// transaction holds (jbd2_journal_write_metadata_buffer). No destination
  /// may be cached, or it would go stale. The queue must not be plugged:
  /// media effects land at submission, so the bios read the source bytes
  /// before this returns. A failed write is recorded in the writeback error
  /// sequence, as for a buffer.
  blk::Ticket write_run(std::uint64_t start,
                        std::span<const std::span<const std::byte>> srcs);

  /// Redeem a ticket from sync_dirty_buffers_async (timed).
  void wait(const blk::Ticket& t) { dev_.wait(t); }

  // ---- request plugging (blk_plug over the buffer cache) ----
  /// Open a plug on the backing device: subsequent async writebacks
  /// accumulate and dispatch as ONE cross-batch-merged submission at
  /// unplug. The cache owns the deferred bios and retires dirty state
  /// when the plug closes (or when a sync operation flushes it early).
  void plug() { dev_.plug(); }
  /// Close the plug, dispatch, retire deferred dirty state; returns the
  /// combined batch's ticket (empty when nothing accumulated).
  blk::Ticket unplug();

  /// Journal pinning: while `pin` is set the buffer is owned by a running
  /// transaction — background drains and eviction skip it (see
  /// BufferHead::jdirty). No-op when the block is not cached.
  void pin_journal(std::uint64_t blockno, bool pin);

  // ---- writeback error sequence (errseq_t over metadata writeback) ----
  /// A buffer writeback that failed with a device write error (not a
  /// crash-model swallow) is recorded per member-device shard; fsync and
  /// sync consumers carry an ErrSeqCursor and see each failure exactly
  /// once. The aggregate sequence is the sum over shards.
  [[nodiscard]] std::uint64_t wb_err_seq() const {
    std::uint64_t s = 0;
    for (const ErrSeq& e : wb_err_) s += e.seq();
    return s;
  }
  [[nodiscard]] ErrSeqCursor wb_err_sample() const {
    return ErrSeqCursor{wb_err_seq()};
  }
  /// Report-once check across all shards (see ErrSeq::check).
  [[nodiscard]] Err wb_err_check(ErrSeqCursor& c) const {
    const std::uint64_t s = wb_err_seq();
    if (c.seen == s) return Err::Ok;
    c.seen = s;
    return wb_last_err_;
  }
  [[nodiscard]] const ErrSeq& wb_err_shard(std::size_t shard) const {
    return wb_err_[shard];
  }

  /// Write back every dirty buffer (timed) as one batched submission in
  /// ascending block order.
  void sync_all();

  /// Background-writeback drain: every dirty buffer, ascending block
  /// order, split into batches of at most `max_batch` buffers submitted
  /// through the async path with up to `queue_depth` batches in flight;
  /// waits for all of them before returning. Returns the number of
  /// buffers actually written back (a dead device's swallowed commands
  /// leave their buffers dirty and are not counted). `shard`/`nshards`
  /// restrict the drain to buffers whose block maps to that member
  /// device (`device().child_of`) — the per-device flusher's share; the
  /// defaults drain everything.
  /// `use_plug` accumulates the batches under one request plug (one
  /// elevator pass with cross-batch merging) instead of redeeming QD>1
  /// tickets; batch boundaries are trimmed to stripe-row edges either way
  /// when the volume has striping geometry (stripe-aware clustering).
  std::size_t flush_dirty_async(std::size_t max_batch,
                                std::size_t queue_depth,
                                std::size_t shard = 0,
                                std::size_t nshards = 1,
                                bool use_plug = true);

  /// Issue a device cache FLUSH (timed) — blkdev_issue_flush.
  void issue_flush();

  /// Drop all clean, unreferenced buffers (tests / remount).
  void invalidate();
  /// Drop the clean, unreferenced buffers of [first, first + n): a journal
  /// area that recovery read through the cache, before write_run
  /// overwrites it behind the cache's back.
  void invalidate(std::uint64_t first, std::uint64_t n);

  [[nodiscard]] const BufferCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t cached_blocks() const { return map_.size(); }
  /// Currently dirty buffers (the flusher's wake threshold input).
  [[nodiscard]] std::size_t nr_dirty() const { return nr_dirty_; }
  /// Dirty buffers bound to one member device of a striped volume
  /// (`shard` indexes device().fan_out(); per-device flusher threshold).
  [[nodiscard]] std::size_t nr_dirty_shard(std::size_t shard) const {
    return shard < shard_dirty_.size() ? shard_dirty_[shard] : 0;
  }
  /// Capacity in blocks (0 = unbounded); dirty ratio = nr_dirty/capacity.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] blk::BlockDevice& device() { return dev_; }
  [[nodiscard]] std::uint64_t outstanding_refs() const { return outstanding_refs_; }

 private:
  Result<BufferHead*> lookup_or_create(std::uint64_t blockno);
  void evict_if_needed();
  void set_clean(BufferHead* bh) {
    if (bh->dirty) {
      bh->dirty = false;
      bh->jdirty = false;  // the journal's write reached the device
      assert(nr_dirty_ > 0);
      nr_dirty_ -= 1;
      dirty_index_.erase(bh->blockno);
      auto& cnt = shard_dirty_[dev_.child_of(bh->blockno)];
      assert(cnt > 0);
      cnt -= 1;
      demote(bh);
    }
  }
  /// Move a clean, unreferenced drop-behind buffer to the LRU's cold end.
  void demote(BufferHead* bh);
  /// Remove a cached block from the LRU and the cache.
  void drop(std::uint64_t blockno);
  /// A device write error on `blockno`: park it in its shard's writeback
  /// error sequence for the next fsync/sync to report.
  void record_wb_error(std::uint64_t blockno) {
    wb_err_[dev_.child_of(blockno)].record(Err::Io);
    wb_last_err_ = Err::Io;
  }
  /// Clear dirty state for the applied bios of one (possibly deferred)
  /// writeback batch and count the writebacks.
  void retire_batch(std::span<BufferHead* const> bhs,
                    std::span<const blk::Bio> bios);
  /// Pick the end of the next flush batch: at most `max_batch` buffers,
  /// trimmed back to a stripe-row boundary when the device has striping
  /// geometry (so no sub-batch splits a row across two submissions).
  std::size_t batch_end(const std::vector<BufferHead*>& dirty, std::size_t i,
                        std::size_t max_batch);
  /// Gather (this shard's slice of) the dirty set in ascending block
  /// order — an O(dirty) walk of the dirty-block index.
  std::vector<BufferHead*> collect_dirty(std::size_t shard = 0,
                                         std::size_t nshards = 1);

  blk::BlockDevice& dev_;
  std::size_t capacity_;
  /// Batches deferred by an open plug: the cache must keep the bios (the
  /// device holds pointers into them) and the buffer list (to retire
  /// dirty state at unplug) alive until the plug closes.
  struct PluggedBatch {
    std::vector<blk::Bio> bios;
    std::vector<BufferHead*> bhs;
  };
  std::deque<PluggedBatch> plug_held_;
  /// Dirty blocknos, ordered (the tagged-radix analogue): writeback walks
  /// this, never the whole map.
  std::set<std::uint64_t> dirty_index_;
  /// Dirty count per member device of a striped volume (size fan_out()).
  std::vector<std::size_t> shard_dirty_;
  /// Per-member-device writeback error sequences (size fan_out()).
  std::vector<ErrSeq> wb_err_;
  Err wb_last_err_ = Err::Ok;
  std::unordered_map<std::uint64_t, std::unique_ptr<BufferHead>> map_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> lru_pos_;
  sim::SimMutex lock_;
  std::uint64_t outstanding_refs_ = 0;
  std::size_t nr_dirty_ = 0;
  BufferCacheStats stats_;
};

}  // namespace bsim::kern
