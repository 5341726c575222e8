// The kernel buffer cache: the sb_bread / brelse / mark_buffer_dirty /
// write-back interface the paper's §4.5 example is built around.
//
// Buffers hold their own copy of block data (distinct from the device's
// media state) so that a file system can modify a cached block without it
// becoming "written" — the property journaling depends on and that the
// crash-consistency property tests exercise. Nothing in the cache writes
// a dirty buffer on its own: no sync-everything pass, and eviction passes
// over dirty buffers. A dirty buffer reaches media only when its owner
// writes it (a journal's commit or recovery), so the write-ahead rule
// holds by construction.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <list>
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
    }
  }

  /// The buffer holds regular-file data (see BufferHead::drop_behind).
  void mark_drop_behind(BufferHead* bh) { bh->drop_behind = true; }

  /// The one way to write buffers: one request-queue submission for all
  /// `bhs` (a journal's checkpoint, or a recovery's replay), redeemed
  /// later with wait(), so several batches can be in flight (QD>1); a
  /// synchronous write is this plus wait(), as RequestQueue::submit is
  /// start_batch plus a wait. Counts one writeback per buffer. Media
  /// effects land at submission, and so does the dirty clearing: a
  /// buffer's dirty bit is cleared only if its write command actually
  /// executed — under the crash model's kill_after, bios at or past the
  /// kill point never reach media and their buffers stay dirty (they were
  /// NOT written back). The ticket is failed when any write of the batch
  /// failed. An empty span returns an empty ticket.
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

  /// Writeback error sequence (errseq_t over metadata writeback): a
  /// buffer writeback that failed with a device write error (not a
  /// crash-model swallow) is recorded here; fsync and sync consumers carry
  /// an ErrSeqCursor and see each failure exactly once.
  [[nodiscard]] const ErrSeq& wb_err() const { return wb_err_; }

  /// Issue a device cache FLUSH (timed) — blkdev_issue_flush.
  void issue_flush();

  /// Drop all clean, unreferenced buffers (tests / remount).
  void invalidate();
  /// Drop the clean, unreferenced buffers of [first, first + n): a journal
  /// area that recovery read through the cache, before write_run
  /// overwrites it behind the cache's back.
  void invalidate(std::uint64_t first, std::uint64_t n);

  [[nodiscard]] const BufferCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t cached_blocks() const { return lru_.size(); }
  /// Currently dirty buffers.
  [[nodiscard]] std::size_t nr_dirty() const { return nr_dirty_; }
  [[nodiscard]] blk::BlockDevice& device() { return dev_; }
  [[nodiscard]] std::uint64_t outstanding_refs() const { return outstanding_refs_; }

 private:
  using Lru = std::list<BufferHead>;

  Result<BufferHead*> lookup_or_create(std::uint64_t blockno);
  void evict_if_needed();
  void set_clean(BufferHead* bh) {
    if (bh->dirty) {
      bh->dirty = false;
      nr_dirty_ -= 1;
      demote(bh);
    }
  }
  /// Move a clean, unreferenced drop-behind buffer to the LRU's cold end.
  void demote(BufferHead* bh);
  /// Remove a cached buffer from the index and the LRU.
  void drop(Lru::iterator it);
  /// A device write error: park it in the writeback error sequence for
  /// the next fsync/sync to report.
  void record_wb_error() { wb_err_.record(Err::Io); }

  blk::BlockDevice& dev_;
  std::size_t capacity_;
  std::size_t nr_dirty_ = 0;
  ErrSeq wb_err_;
  // Each cached buffer lives in its LRU node, so the list is intrusive: a
  // hit is one index probe and a splice, and eviction walks buffers, not
  // block numbers to look up.
  Lru lru_;  // front = most recent
  std::unordered_map<std::uint64_t, Lru::iterator> index_;
  sim::SimMutex lock_;
  std::uint64_t outstanding_refs_ = 0;
  BufferCacheStats stats_;
};

}  // namespace bsim::kern
