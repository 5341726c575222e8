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
  /// to a running/uncommitted transaction. Writeback outside the commit
  /// (sync_all, eviction) must NOT write it to media — the journal commit
  /// is the only path allowed to, or WAL ordering breaks. Cleared when
  /// the commit path writes the buffer (set_clean).
  bool jdirty = false;
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
  /// Objects examined while gathering dirty buffers for sync_all. With
  /// the dirty-block index a sync scans O(dirty) entries, not the whole
  /// cache.
  std::uint64_t dirty_scanned = 0;
  /// Dirty buffers sync_all skipped because a journal transaction owns
  /// them (BufferHead::jdirty).
  std::uint64_t jdirty_skipped = 0;
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
      dirty_index_.insert(bh->blockno);
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
  blk::Ticket sync_dirty_buffers_async(std::span<BufferHead* const> bhs);

  /// Write `srcs` to the consecutive blocks [start, start + srcs.size())
  /// straight from the caller's bytes, as one async batch that never enters
  /// the cache: a journal's log run, written from the buffers its
  /// transaction holds (jbd2_journal_write_metadata_buffer). No destination
  /// may be cached, or it would go stale. Media effects land at
  /// submission, so the bios read the source bytes before this returns. A
  /// failed write is recorded in the writeback error sequence, as for a
  /// buffer.
  blk::Ticket write_run(std::uint64_t start,
                        std::span<const std::span<const std::byte>> srcs);

  /// Redeem a ticket from sync_dirty_buffers_async (timed).
  void wait(const blk::Ticket& t) { dev_.wait(t); }

  /// Journal pinning: while `pin` is set the buffer is owned by a running
  /// transaction — sync_all and eviction skip it (see
  /// BufferHead::jdirty). No-op when the block is not cached.
  void pin_journal(std::uint64_t blockno, bool pin);

  /// Writeback error sequence (errseq_t over metadata writeback): a
  /// buffer writeback that failed with a device write error (not a
  /// crash-model swallow) is recorded here; fsync and sync consumers carry
  /// an ErrSeqCursor and see each failure exactly once.
  [[nodiscard]] const ErrSeq& wb_err() const { return wb_err_; }

  /// Write back every dirty buffer not pinned by a journal (timed) as
  /// one batched submission in ascending block order.
  void sync_all();

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
  /// Currently dirty buffers.
  [[nodiscard]] std::size_t nr_dirty() const { return dirty_index_.size(); }
  [[nodiscard]] blk::BlockDevice& device() { return dev_; }
  [[nodiscard]] std::uint64_t outstanding_refs() const { return outstanding_refs_; }

 private:
  Result<BufferHead*> lookup_or_create(std::uint64_t blockno);
  void evict_if_needed();
  void set_clean(BufferHead* bh) {
    if (bh->dirty) {
      bh->dirty = false;
      bh->jdirty = false;  // the journal's write reached the device
      dirty_index_.erase(bh->blockno);
      demote(bh);
    }
  }
  /// Move a clean, unreferenced drop-behind buffer to the LRU's cold end.
  void demote(BufferHead* bh);
  /// Remove a cached block from the LRU and the cache.
  void drop(std::uint64_t blockno);
  /// A device write error: park it in the writeback error sequence for
  /// the next fsync/sync to report.
  void record_wb_error() { wb_err_.record(Err::Io); }
  /// Gather the dirty set not pinned by a journal in ascending block
  /// order — an O(dirty) walk of the dirty-block index.
  std::vector<BufferHead*> collect_dirty();

  blk::BlockDevice& dev_;
  std::size_t capacity_;
  /// Dirty blocknos, ordered (the tagged-radix analogue): writeback walks
  /// this, never the whole map.
  std::set<std::uint64_t> dirty_index_;
  ErrSeq wb_err_;
  std::unordered_map<std::uint64_t, std::unique_ptr<BufferHead>> map_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> lru_pos_;
  sim::SimMutex lock_;
  std::uint64_t outstanding_refs_ = 0;
  BufferCacheStats stats_;
};

}  // namespace bsim::kern
