// Per-inode page cache (address space) with writepage / writepages
// writeback — the mechanism behind the paper's §6.5.2 observation that
// BentoFS (which inherits the FUSE driver's batched ->writepages path)
// outperforms the VFS C baseline (per-page ->writepage) on large writes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "kernel/errno.h"
#include "kernel/errseq.h"
#include "kernel/types.h"
#include "sim/sync.h"

namespace bsim::kern {

class Inode;

struct Page {
  std::unique_ptr<std::array<std::byte, kPageSize>> data;
  bool uptodate = false;
  bool dirty = false;
  /// Virtual time the page's fill from backing store completed (when
  /// PG_locked cleared). Threads run whole ops in host order, so a fill
  /// is always uptodate by the time another thread sees the page; one
  /// whose clock is still before this time waits for it.
  sim::Nanos filled_at = 0;

  [[nodiscard]] std::span<std::byte> bytes() { return {data->data(), kPageSize}; }
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {data->data(), kPageSize};
  }
};

/// A contiguous run of dirty pages handed to ->writepages.
struct PageRun {
  std::uint64_t first_pgoff = 0;
  std::vector<const Page*> pages;
};

/// Address-space operations a file system provides for cached file data.
class AddressSpaceOps {
 public:
  virtual ~AddressSpaceOps() = default;

  /// Fill one page from backing store.
  virtual Err readpage(Inode& inode, std::uint64_t pgoff,
                       std::span<std::byte> out) = 0;

  /// Batched fill of a contiguous page run (the readahead path): file
  /// systems that opt in translate the run into multi-block bios and one
  /// request-queue submission. Only called when has_readpages() is true;
  /// the default loops ->readpage.
  virtual Err readpages(Inode& inode, std::uint64_t first_pgoff,
                        std::span<const std::span<std::byte>> pages);

  [[nodiscard]] virtual bool has_readpages() const { return false; }

  /// Write one page to backing store (the unbatched path). Only called
  /// when has_writepages() is false; the default has no such path.
  virtual Err writepage(Inode& inode, std::uint64_t pgoff,
                        std::span<const std::byte> in);

  /// Batched writeback of contiguous runs. Only called when
  /// has_writepages() is true; the default, like writepage's, has no such
  /// path and completes no run.
  /// Implementations MUST set `completed_runs` to the number of leading
  /// runs that fully reached backing store (== runs.size() on success):
  /// on a mid-run failure the caller clears dirty state for exactly that
  /// prefix and keeps the remaining pages dirty for the next writeback,
  /// instead of either re-submitting runs that already reached media or
  /// dropping dirty data that never did.
  virtual Err writepages(Inode& inode, std::span<const PageRun> runs,
                         std::size_t& completed_runs);

  [[nodiscard]] virtual bool has_writepages() const { return false; }
};

struct AddressSpaceStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writeback_pages = 0;
  std::uint64_t writeback_calls = 0;
  std::uint64_t readahead_batches = 0;  // batched ->readpages calls
  std::uint64_t readahead_pages = 0;    // pages filled by those batches
  std::uint64_t ra_sequential_hits = 0;  // reads detected as stream-sequential
  std::uint64_t ra_window_max = 0;       // largest readahead window reached
};

/// Sequential-stream readahead (Linux `ra_pages`-style): the generic read
/// path detects a read that starts where the previous one ended and grows
/// a speculative window — doubling per sequential read, capped — that is
/// read beyond the request through the batched ->readpages path. Any
/// non-sequential read collapses the window to zero (readahead then only
/// covers the request itself, as before).
inline constexpr std::size_t kReadaheadInitPages = 4;   // first window: 16 KiB
inline constexpr std::size_t kReadaheadMaxPages = 32;   // cap: 128 KiB

struct ReadaheadState {
  std::uint64_t next_pgoff = ~0ULL;  // expected start of a sequential read
  std::size_t window = 0;            // current speculative window (pages)
};

/// The cached pages of one inode.
class AddressSpace {
 public:
  /// Back-pointer to the owning inode (set by the Inode constructor).
  /// Lets mark_dirty register the inode on its superblock's dirty-inode
  /// list (__mark_inode_dirty), so flusher wakes walk O(dirty) inodes
  /// instead of the whole inode cache.
  void set_owner(Inode* inode) { owner_ = inode; }

  /// Find a page, or null. Timed (radix lookup under the tree lock).
  Page* find(std::uint64_t pgoff);

  /// Untimed, stat-free presence probe: is the page resident, uptodate
  /// and its fill complete at the caller's clock? The readahead trigger
  /// rides the lookup the caller is about to pay for anyway (like
  /// PG_readahead), so it charges nothing.
  [[nodiscard]] bool resident(std::uint64_t pgoff) const;

  /// Find or allocate (not yet uptodate if fresh). Timed.
  Page& find_or_alloc(std::uint64_t pgoff);

  /// The buffered write's page walk (generic_perform_write's lookups,
  /// taken under one tree-lock hold). Page `first_pg` is found or
  /// allocated and charged exactly as find_or_alloc. The walk then steps
  /// to each next page up to `last_pg` while that page is resident and
  /// either fully overwritten (every page but the last, which is too
  /// unless `last_partial`) or uptodate; each such step is charged
  /// page_lookup_next, not a fresh descent. It stops at the first page
  /// that fails this, which the caller looks up on its own. Appends the
  /// walked pages to `out` in pgoff order. Fills, waits and copies are
  /// the caller's, outside the lock.
  void walk_for_write(std::uint64_t first_pg, std::uint64_t last_pg,
                      bool last_partial, std::vector<Page*>& out);

  /// Ensure the page is present and uptodate, reading through `aops`.
  Result<Page*> read_page(Inode& inode, AddressSpaceOps& aops,
                          std::uint64_t pgoff);

  /// Make an allocated page uptodate: read it through ->readpage, or, if
  /// another thread's fill is in flight at the caller's clock, wait for
  /// it (folio_wait_locked). Takes no lock.
  Err fill_page(Inode& inode, AddressSpaceOps& aops, std::uint64_t pgoff,
                Page& page);

  /// Ensure [pgoff, pgoff+n) are present and uptodate. The whole window
  /// is looked up before any fill starts. Missing runs go through
  /// aops.readpages when supported (one batched submission per
  /// contiguous run of misses), else through per-page ->readpage.
  Err read_pages(Inode& inode, AddressSpaceOps& aops, std::uint64_t pgoff,
                 std::size_t n);

  void mark_dirty(std::uint64_t pgoff);

  /// Write every dirty page back through `aops` (batched when supported),
  /// in pgoff order. Clears dirty bits for exactly the pages that reached
  /// backing store: a partial failure keeps the unwritten tail dirty so
  /// the next writeback retries only what is still pending.
  Err writeback(Inode& inode, AddressSpaceOps& aops);

  /// Drop pages at or beyond `from_pgoff` (truncate).
  void truncate_from(std::uint64_t from_pgoff);

  /// Zero the tail of the page containing `size` beyond it (truncate within
  /// a page keeps the page but must clear stale bytes).
  void zero_tail(std::uint64_t size);

  void drop_all();

  /// The per-file lock the generic read path holds across the lookup and
  /// copy of a resident page. A miss never takes it: it fills the page
  /// under the page's own fill time (Page::filled_at) and copies without
  /// it, so concurrent misses on one file overlap on the device.
  [[nodiscard]] sim::SimMutex& io_mutex() { return tree_lock_; }

  [[nodiscard]] std::size_t nr_pages() const { return pages_.size(); }
  [[nodiscard]] std::size_t nr_dirty() const { return dirty_pages_.size(); }
  /// Absolute virtual completion time of this mapping's latest writeback,
  /// on whichever thread ran it. fsync waits on THIS (per-inode, like
  /// waiting on PAGECACHE_TAG_WRITEBACK) rather than on everything the
  /// background flusher ever did — an unrelated file's writeback never
  /// charges this inode's fsync.
  [[nodiscard]] sim::Nanos writeback_done_at() const {
    return writeback_done_at_;
  }

  /// Writeback error sequence (mapping->wb_err): every failed writeback
  /// of this mapping — foreground, throttled, or on the flusher's clock —
  /// is recorded here; fsync reports it exactly once per open file via
  /// the FileHandle's cursor.
  [[nodiscard]] const ErrSeq& wb_err() const { return wb_err_; }

  [[nodiscard]] const AddressSpaceStats& stats() const { return stats_; }

  /// Per-file readahead state (one sequential stream per open pattern,
  /// like struct file_ra_state hanging off the mapping). Maintained by
  /// generic_file_read; update_readahead applies the stream detection and
  /// returns the speculative window to read beyond the request.
  std::size_t update_readahead(std::uint64_t first_pg, std::uint64_t last_pg);

 private:
  using PageMap = std::map<std::uint64_t, Page>;
  /// find_or_alloc's body, with the tree lock held by the caller.
  PageMap::iterator lookup_or_alloc_locked(std::uint64_t pgoff);

  Inode* owner_ = nullptr;
  PageMap pages_;  // ordered for run coalescing and the write walk
  /// Dirty-tag index (the radix tree's PAGECACHE_TAG_DIRTY): writeback
  /// walks only dirty pages, not the whole mapping — an append-fsync
  /// workload on a large file is O(dirty) per fsync, not O(file).
  std::set<std::uint64_t> dirty_pages_;
  ReadaheadState ra_;
  ErrSeq wb_err_;
  sim::Nanos writeback_done_at_ = 0;
  sim::SimMutex tree_lock_{sim::SimMutex::Kind::Spin};
  AddressSpaceStats stats_;
};

}  // namespace bsim::kern
