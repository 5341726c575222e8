#include "kernel/page_cache.h"

#include <algorithm>
#include <cstring>

#include "kernel/vfs.h"
#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::kern {

Err AddressSpaceOps::readpages(Inode& inode, std::uint64_t first_pgoff,
                               std::span<const std::span<std::byte>> pages) {
  // Default: per-page behaviour for file systems that opt in to the
  // batched entry point but not to batched I/O.
  std::uint64_t pgoff = first_pgoff;
  for (const auto& page : pages) {
    BSIM_TRY(readpage(inode, pgoff, page));
    pgoff += 1;
  }
  return Err::Ok;
}

Err AddressSpaceOps::writepage(Inode&, std::uint64_t,
                               std::span<const std::byte>) {
  return Err::NoSys;
}

Err AddressSpaceOps::writepages(Inode&, std::span<const PageRun>,
                                std::size_t& completed_runs) {
  completed_runs = 0;
  return Err::NoSys;
}

Page* AddressSpace::find(std::uint64_t pgoff) {
  sim::ScopedLock guard(tree_lock_);
  sim::charge(sim::costs().page_lookup);
  auto it = pages_.find(pgoff);
  if (it == pages_.end()) {
    stats_.misses += 1;
    return nullptr;
  }
  stats_.hits += 1;
  return &it->second;
}

bool AddressSpace::resident(std::uint64_t pgoff) const {
  auto it = pages_.find(pgoff);
  return it != pages_.end() && it->second.uptodate &&
         it->second.filled_at <= sim::now();
}

AddressSpace::PageMap::iterator AddressSpace::lookup_or_alloc_locked(
    std::uint64_t pgoff) {
  sim::charge(sim::costs().page_lookup);
  auto it = pages_.lower_bound(pgoff);
  if (it != pages_.end() && it->first == pgoff) {
    stats_.hits += 1;
    return it;
  }
  stats_.misses += 1;
  sim::charge(sim::costs().page_alloc);
  Page page;
  page.data = std::make_unique<std::array<std::byte, kPageSize>>();
  page.data->fill(std::byte{0});
  return pages_.emplace_hint(it, pgoff, std::move(page));
}

Page& AddressSpace::find_or_alloc(std::uint64_t pgoff) {
  sim::ScopedLock guard(tree_lock_);
  return lookup_or_alloc_locked(pgoff)->second;
}

void AddressSpace::walk_for_write(std::uint64_t first_pg,
                                  std::uint64_t last_pg, bool last_partial,
                                  std::vector<Page*>& out) {
  sim::ScopedLock guard(tree_lock_);
  auto it = lookup_or_alloc_locked(first_pg);
  out.push_back(&it->second);
  for (std::uint64_t pg = first_pg + 1; pg <= last_pg; ++pg) {
    ++it;
    if (it == pages_.end() || it->first != pg) return;  // absent
    const bool overwritten = pg < last_pg || !last_partial;
    if (!overwritten && !it->second.uptodate) return;
    sim::charge(sim::costs().page_lookup_next);
    stats_.hits += 1;
    out.push_back(&it->second);
  }
}

Result<Page*> AddressSpace::read_page(Inode& inode, AddressSpaceOps& aops,
                                      std::uint64_t pgoff) {
  Page& page = find_or_alloc(pgoff);
  BSIM_TRY(fill_page(inode, aops, pgoff, page));
  return &page;
}

Err AddressSpace::fill_page(Inode& inode, AddressSpaceOps& aops,
                            std::uint64_t pgoff, Page& page) {
  if (page.uptodate) {
    sim::current().wait_until(page.filled_at);
    return Err::Ok;
  }
  BSIM_TRY(aops.readpage(inode, pgoff, page.bytes()));
  page.uptodate = true;
  page.filled_at = sim::now();
  return Err::Ok;
}

Err AddressSpace::read_pages(Inode& inode, AddressSpaceOps& aops,
                             std::uint64_t pgoff, std::size_t n) {
  if (n == 0) return Err::Ok;
  // Allocate the whole window before the first fill: no tree-lock
  // acquisition follows a device wait.
  std::vector<Page*> pages;
  pages.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pages.push_back(&find_or_alloc(pgoff + i));
  }
  if (!aops.has_readpages()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!pages[i]->uptodate) {
        BSIM_TRY(fill_page(inode, aops, pgoff + i, *pages[i]));
      }
    }
    return Err::Ok;
  }
  // Fill each contiguous run of not-uptodate pages with one batched
  // ->readpages call.
  std::size_t i = 0;
  while (i < n) {
    if (pages[i]->uptodate) {
      i += 1;
      continue;
    }
    std::size_t j = i + 1;
    while (j < n && !pages[j]->uptodate) j += 1;
    std::vector<std::span<std::byte>> spans;
    spans.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) spans.push_back(pages[k]->bytes());
    sim::charge(sim::costs().readpages_batch_overhead +
                static_cast<sim::Nanos>(j - i) *
                    sim::costs().readpages_per_page);
    BSIM_TRY(aops.readpages(inode, pgoff + i, spans));
    for (std::size_t k = i; k < j; ++k) {
      pages[k]->uptodate = true;
      pages[k]->filled_at = sim::now();
    }
    stats_.readahead_batches += 1;
    stats_.readahead_pages += j - i;
    i = j;
  }
  return Err::Ok;
}

std::size_t AddressSpace::update_readahead(std::uint64_t first_pg,
                                           std::uint64_t last_pg) {
  if (first_pg == ra_.next_pgoff) {
    // Sequential stream: grow the window, doubling up to the cap.
    ra_.window = std::min<std::size_t>(
        std::max<std::size_t>(ra_.window * 2, kReadaheadInitPages),
        kReadaheadMaxPages);
    stats_.ra_sequential_hits += 1;
  } else {
    ra_.window = 0;  // new stream position: no speculation yet
  }
  stats_.ra_window_max =
      std::max<std::uint64_t>(stats_.ra_window_max, ra_.window);
  ra_.next_pgoff = last_pg + 1;
  return ra_.window;
}

void AddressSpace::mark_dirty(std::uint64_t pgoff) {
  auto it = pages_.find(pgoff);
  if (it == pages_.end()) return;
  if (!it->second.dirty) {
    it->second.dirty = true;
    dirty_pages_.insert(pgoff);
    // The inode just became dirty: register it on the superblock's
    // dirty-inode list (pruned lazily once its pages drain).
    if (dirty_pages_.size() == 1 && owner_ != nullptr) {
      owner_->sb().mark_inode_dirty(*owner_);
    }
  }
}

Err AddressSpace::writeback(Inode& inode, AddressSpaceOps& aops) {
  if (dirty_pages_.empty()) return Err::Ok;
  stats_.writeback_calls += 1;
  // Record when this mapping's writeback completed on the clock that ran
  // it (the fsync dependency when the background flusher did the work).
  const auto stamp = [this] {
    writeback_done_at_ = std::max(writeback_done_at_, sim::now());
  };

  if (aops.has_writepages()) {
    // Coalesce dirty pages into contiguous runs (the ->writepages path);
    // the dirty-tag index makes this O(dirty), like a tagged radix walk.
    std::vector<PageRun> runs;
    for (const std::uint64_t pgoff : dirty_pages_) {
      Page& page = pages_.at(pgoff);
      if (runs.empty() ||
          runs.back().first_pgoff + runs.back().pages.size() != pgoff) {
        runs.push_back(PageRun{pgoff, {}});
      }
      runs.back().pages.push_back(&page);
    }
    const std::size_t npages = dirty_pages_.size();
    sim::charge(sim::costs().writepages_batch_overhead +
                static_cast<sim::Nanos>(npages) *
                    sim::costs().writepages_per_page);
    std::size_t completed = 0;
    Err e = aops.writepages(inode, runs, completed);
    wb_err_.record(e);  // park the failure for the next fsync's cursor
    assert(completed <= runs.size());
    assert((e != Err::Ok || completed == runs.size()) &&
           "writepages returned Ok without completing every run");
    // Clear dirty state for exactly the completed prefix; pages in runs
    // that never reached backing store stay dirty (and stay in the
    // dirty-tag index) so the next writeback retries only them.
    for (std::size_t r = 0; r < completed; ++r) {
      std::uint64_t pgoff = runs[r].first_pgoff;
      for (std::size_t p = 0; p < runs[r].pages.size(); ++p, ++pgoff) {
        pages_.at(pgoff).dirty = false;
        dirty_pages_.erase(pgoff);
        stats_.writeback_pages += 1;
      }
    }
    stamp();
    return e;
  }

  // Unbatched ->writepage path: one call (and one charge) per dirty page.
  // Dirty state is retired page-by-page so a mid-loop failure leaves the
  // index consistent: written pages are clean AND out of the index, the
  // rest stay dirty.
  for (auto it = dirty_pages_.begin(); it != dirty_pages_.end();) {
    const std::uint64_t pgoff = *it;
    Page& page = pages_.at(pgoff);
    sim::charge(sim::costs().writepage_overhead);
    const Err e = aops.writepage(inode, pgoff, page.bytes());
    if (e != Err::Ok) {
      wb_err_.record(e);
      stamp();
      return e;
    }
    page.dirty = false;
    stats_.writeback_pages += 1;
    it = dirty_pages_.erase(it);
  }
  stamp();
  return Err::Ok;
}

void AddressSpace::truncate_from(std::uint64_t from_pgoff) {
  pages_.erase(pages_.lower_bound(from_pgoff), pages_.end());
  dirty_pages_.erase(dirty_pages_.lower_bound(from_pgoff),
                     dirty_pages_.end());
}

void AddressSpace::zero_tail(std::uint64_t size) {
  const std::uint64_t pgoff = size / kPageSize;
  const std::size_t within = static_cast<std::size_t>(size % kPageSize);
  if (within == 0) return;
  auto it = pages_.find(pgoff);
  if (it == pages_.end()) return;
  std::memset(it->second.data->data() + within, 0, kPageSize - within);
}

void AddressSpace::drop_all() {
  pages_.clear();
  dirty_pages_.clear();
}

}  // namespace bsim::kern
