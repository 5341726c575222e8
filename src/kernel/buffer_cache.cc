#include "kernel/buffer_cache.h"

#include <algorithm>
#include <cassert>

#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::kern {

BufferCache::BufferCache(blk::BlockDevice& dev, std::size_t capacity)
    : dev_(dev),
      capacity_(capacity),
      shard_dirty_(dev.fan_out(), 0),
      wb_err_(dev.fan_out()) {}

BufferCache::~BufferCache() = default;

Result<BufferHead*> BufferCache::bread(std::uint64_t blockno) {
  auto r = lookup_or_create(blockno);
  if (!r.ok()) return r;
  BufferHead* bh = r.value();
  if (!bh->uptodate) {
    blk::Bio bio = blk::Bio::single_read(blockno, bh->bytes());
    dev_.submit(bio);
    if (bio.io_error) {  // injected medium error (no mirror could serve it)
      brelse(bh);
      return Err::Io;
    }
    bh->uptodate = true;
    bh->filled_at = sim::now();
  } else {
    sim::current().wait_until(bh->filled_at);
  }
  return bh;
}

Result<std::vector<BufferHead*>> BufferCache::bread_batch(
    std::span<const std::uint64_t> blocknos) {
  std::vector<BufferHead*> out;
  out.reserve(blocknos.size());
  std::vector<blk::Bio> bios;
  std::vector<BufferHead*> missing;  // aligned with bios
  sim::Nanos in_flight_until = 0;    // latest fill among the hits
  for (const std::uint64_t blockno : blocknos) {
    auto r = lookup_or_create(blockno);
    if (!r.ok()) {
      for (BufferHead* bh : out) brelse(bh);
      return r.error();
    }
    BufferHead* bh = r.value();
    out.push_back(bh);
    if (!bh->uptodate) {
      // One bio per missing buffer; the queue merges adjacent blocks.
      bios.push_back(blk::Bio::single_read(blockno, bh->bytes()));
      missing.push_back(bh);
    } else {
      in_flight_until = std::max(in_flight_until, bh->filled_at);
    }
  }
  if (!bios.empty()) {
    dev_.submit(bios);
    bool failed = false;
    for (std::size_t i = 0; i < bios.size(); ++i) {
      // A bio that hit an injected medium error transferred nothing; its
      // buffer stays !uptodate so a later retry re-reads it.
      if (bios[i].io_error) {
        failed = true;
      } else {
        missing[i]->uptodate = true;
        missing[i]->filled_at = sim::now();
      }
    }
    if (failed) {
      for (BufferHead* bh : out) brelse(bh);
      return Err::Io;
    }
  }
  sim::current().wait_until(in_flight_until);
  return out;
}

void BufferCache::readahead(std::uint64_t start, std::size_t n) {
  std::vector<std::uint64_t> blocknos;
  blocknos.reserve(n);
  for (std::size_t i = 0; i < n && start + i < dev_.nblocks(); ++i) {
    blocknos.push_back(start + i);
  }
  auto r = bread_batch(blocknos);
  if (!r.ok()) return;  // best-effort: readahead failures are silent
  // Readahead holds no references once the data is resident.
  for (BufferHead* bh : r.value()) brelse(bh);
}

Result<BufferHead*> BufferCache::getblk(std::uint64_t blockno) {
  auto r = lookup_or_create(blockno);
  if (!r.ok()) return r;
  r.value()->uptodate = true;  // caller fully overwrites; see header
  r.value()->drop_behind = false;
  return r;
}

Result<BufferHead*> BufferCache::lookup_or_create(std::uint64_t blockno) {
  if (blockno >= dev_.nblocks()) return Err::Io;
  sim::ScopedLock guard(lock_);
  sim::charge(sim::costs().buffer_lookup);

  auto it = map_.find(blockno);
  if (it != map_.end()) {
    stats_.hits += 1;
    auto pos = lru_pos_.find(blockno);
    if (pos != lru_pos_.end()) lru_.erase(pos->second);
    lru_.push_front(blockno);
    lru_pos_[blockno] = lru_.begin();
    it->second->refcount += 1;
    outstanding_refs_ += 1;
    return it->second.get();
  }

  stats_.misses += 1;
  evict_if_needed();
  auto bh = std::make_unique<BufferHead>();
  bh->blockno = blockno;
  bh->cache = this;
  bh->refcount = 1;
  outstanding_refs_ += 1;
  BufferHead* raw = bh.get();
  map_.emplace(blockno, std::move(bh));
  lru_.push_front(blockno);
  lru_pos_[blockno] = lru_.begin();
  return raw;
}

void BufferCache::brelse(BufferHead* bh) {
  assert(bh != nullptr && bh->cache == this);
  assert(bh->refcount > 0 && "brelse without matching bread/getblk");
  bh->refcount -= 1;
  assert(outstanding_refs_ > 0);
  outstanding_refs_ -= 1;
  demote(bh);
}

void BufferCache::drop(std::uint64_t blockno) {
  auto pos = lru_pos_.find(blockno);
  lru_.erase(pos->second);
  lru_pos_.erase(pos);
  map_.erase(blockno);
}

void BufferCache::demote(BufferHead* bh) {
  if (!bh->drop_behind || bh->dirty || bh->refcount > 0) return;
  auto pos = lru_pos_.find(bh->blockno);
  if (pos != lru_pos_.end()) lru_.splice(lru_.end(), lru_, pos->second);
}

Err BufferCache::sync_dirty_buffer(BufferHead* bh) {
  assert(bh != nullptr && bh->cache == this);
  blk::Bio bio = blk::Bio::single_write(bh->blockno, bh->bytes());
  dev_.submit(bio);
  // A write command that never executed (crash-model kill point) did not
  // write the buffer back: it must stay dirty.
  if (bio.io_error) {
    record_wb_error(bh->blockno);
    return Err::Io;
  }
  if (bio.applied) {
    set_clean(bh);
    stats_.writebacks += 1;
  }
  return Err::Ok;
}

Err BufferCache::sync_dirty_buffers(std::span<BufferHead* const> bhs) {
  const blk::Ticket t = sync_dirty_buffers_async(bhs);
  dev_.wait(t);
  return t.failed ? Err::Io : Err::Ok;
}

blk::Ticket BufferCache::sync_dirty_buffers_async(
    std::span<BufferHead* const> bhs) {
  if (bhs.empty()) return blk::Ticket{};
  std::vector<blk::Bio> bios;
  bios.reserve(bhs.size());
  for (BufferHead* bh : bhs) {
    assert(bh != nullptr && bh->cache == this);
    bios.push_back(blk::Bio::single_write(bh->blockno, bh->bytes()));
  }
  if (dev_.plugged()) {
    // Deferred: the device only accumulates the batch, so media effects
    // (and with them `applied`) land at unplug. Keep the bios and the
    // buffer list alive until then; dirty state is retired when the plug
    // closes (BufferCache::unplug), with the same applied-aware rule.
    plug_held_.push_back(PluggedBatch{std::move(bios), {}});
    PluggedBatch& pb = plug_held_.back();
    pb.bhs.assign(bhs.begin(), bhs.end());
    for (BufferHead* bh : pb.bhs) bh->plug_held = true;
    return dev_.submit_async(pb.bios);
  }
  const blk::Ticket t = dev_.submit_async(bios);
  // Media effects land at submission; only the wait is deferred. Clear
  // dirty state for exactly the bios whose write command executed — an
  // early kill leaves the tail of the batch dirty for the next sync.
  retire_batch(bhs, bios);
  return t;
}

blk::Ticket BufferCache::write_run(
    std::uint64_t start, std::span<const std::span<const std::byte>> srcs) {
  assert(!dev_.plugged() && "write_run bios read live buffer bytes");
  if (srcs.empty()) return blk::Ticket{};
  // One bio per block, as a buffer batch submits them: the queue merges
  // the run into one multi-block command.
  std::vector<blk::Bio> bios;
  bios.reserve(srcs.size());
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    assert(!map_.contains(start + i) && "write_run under a cached block");
    bios.push_back(blk::Bio::single_write(start + i, srcs[i]));
  }
  const blk::Ticket t = dev_.submit_async(bios);
  for (const blk::Bio& bio : bios) {
    if (bio.io_error) record_wb_error(bio.vecs.front().blockno);
  }
  return t;
}

void BufferCache::retire_batch(std::span<BufferHead* const> bhs,
                               std::span<const blk::Bio> bios) {
  assert(bhs.size() == bios.size());
  for (std::size_t i = 0; i < bhs.size(); ++i) {
    if (bios[i].io_error) {
      // A device write error (io_error discriminates it from the crash
      // model's silent swallow, which leaves io_error clear): the buffer
      // stays dirty AND the failure is parked in the shard's error
      // sequence for the next fsync/sync to report.
      record_wb_error(bios[i].vecs.front().blockno);
      continue;
    }
    if (!bios[i].applied) continue;
    set_clean(bhs[i]);
    stats_.writebacks += 1;
  }
}

blk::Ticket BufferCache::unplug() {
  const blk::Ticket t = dev_.unplug();
  if (dev_.plugged()) return t;  // nested: the outermost unplug retires
  for (PluggedBatch& pb : plug_held_) {
    retire_batch(pb.bhs, pb.bios);
    for (BufferHead* bh : pb.bhs) bh->plug_held = false;
  }
  plug_held_.clear();
  return t;
}

void BufferCache::pin_journal(std::uint64_t blockno, bool pin) {
  auto it = map_.find(blockno);
  if (it == map_.end()) return;
  it->second->jdirty = pin && it->second->dirty;
}

std::vector<BufferHead*> BufferCache::collect_dirty(std::size_t shard,
                                                    std::size_t nshards) {
  // The dirty-block index is already in ascending block order; the walk
  // is O(dirty), not O(cached) — a wake on a huge, mostly-clean cache
  // never touches the clean population. A shard-filtered walk still
  // scans the whole (volume-wide) index, so N per-member flushers pay
  // N x dirty per round; splitting the index per shard would shave that
  // host-time factor but complicate the ordered full-volume walk that
  // sync_all needs.
  std::vector<BufferHead*> dirty;
  dirty.reserve(dirty_index_.size());
  for (const std::uint64_t blockno : dirty_index_) {
    stats_.dirty_scanned += 1;
    if (nshards > 1 && dev_.child_of(blockno) % nshards != shard) continue;
    auto it = map_.find(blockno);
    assert(it != map_.end() && it->second->dirty);
    // A journal-pinned buffer belongs to an uncommitted transaction:
    // writing it here would put unjournaled state on media ahead of its
    // commit record (WAL violation). The commit path writes it.
    if (it->second->jdirty) {
      stats_.jdirty_skipped += 1;
      continue;
    }
    dirty.push_back(it->second.get());
  }
  return dirty;
}

void BufferCache::sync_all() {
  // Gather the dirty set and push it through the request queue as one
  // batch, in ascending block order so adjacent blocks merge.
  std::vector<BufferHead*> dirty = collect_dirty();
  sync_dirty_buffers(dirty);
}

std::size_t BufferCache::batch_end(const std::vector<BufferHead*>& dirty,
                                   std::size_t i, std::size_t max_batch) {
  std::size_t n = std::min(max_batch, dirty.size() - i);
  const std::uint64_t width = dev_.stripe_width_blocks();
  // Stripe-aware clustering: trim the batch boundary back to a stripe-row
  // edge so no sub-batch splits a row between two submissions — each
  // member then sees its share of a row as one contiguous run instead of
  // a sliver now and the rest in the next batch. A row larger than
  // max_batch cannot be kept whole; keep the full batch then.
  if (width > 0 && i + n < dirty.size()) {
    const auto row = [&](std::size_t k) { return dirty[k]->blockno / width; };
    std::size_t j = n;
    while (j > 1 && row(i + j - 1) == row(i + j)) j -= 1;
    if (j > 1 || row(i) != row(i + 1)) {
      if (j != n) stats_.stripe_aligned_batches += 1;
      n = j;
    }
  }
  return i + n;
}

std::size_t BufferCache::flush_dirty_async(std::size_t max_batch,
                                           std::size_t queue_depth,
                                           std::size_t shard,
                                           std::size_t nshards,
                                           bool use_plug) {
  assert(max_batch > 0 && queue_depth > 0);
  const std::size_t before = nr_dirty_;
  std::vector<BufferHead*> dirty = collect_dirty(shard, nshards);

  if (use_plug && !dirty.empty()) {
    // blk_plug-style drain: every sub-batch accumulates under one plug
    // and dispatches at unplug as a single elevator pass, so batches that
    // are adjacent on disk (or on a member device) merge across batch
    // boundaries. QD management is moot — the one pass occupies all
    // channels at once.
    plug();
    std::size_t i = 0;
    while (i < dirty.size()) {
      const std::size_t end = batch_end(dirty, i, max_batch);
      (void)sync_dirty_buffers_async(
          std::span<BufferHead* const>(dirty.data() + i, end - i));
      i = end;
    }
    const blk::Ticket t = unplug();
    dev_.wait(t);
    return before - nr_dirty_;
  }

  std::vector<blk::Ticket> inflight;
  inflight.reserve(queue_depth);
  std::size_t i = 0;
  while (i < dirty.size()) {
    const std::size_t end = batch_end(dirty, i, max_batch);
    if (inflight.size() == queue_depth) {
      // Redeem the oldest ticket to keep at most `queue_depth` batches in
      // flight (wait order does not affect determinism; see bio.h).
      dev_.wait(inflight.front());
      inflight.erase(inflight.begin());
    }
    const blk::Ticket t = sync_dirty_buffers_async(
        std::span<BufferHead* const>(dirty.data() + i, end - i));
    if (t.valid()) inflight.push_back(t);
    i = end;
  }
  for (const blk::Ticket& t : inflight) dev_.wait(t);
  // Report what was actually cleaned: commands the crash model swallowed
  // leave their buffers dirty and are not writebacks.
  return before - nr_dirty_;
}

void BufferCache::issue_flush() { dev_.flush(); }

void BufferCache::invalidate() {
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second->refcount == 0 && !it->second->dirty) {
      auto pos = lru_pos_.find(it->first);
      if (pos != lru_pos_.end()) {
        lru_.erase(pos->second);
        lru_pos_.erase(pos);
      }
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

void BufferCache::invalidate(std::uint64_t first, std::uint64_t n) {
  for (std::uint64_t b = first; b < first + n; ++b) {
    auto it = map_.find(b);
    if (it != map_.end() && it->second->refcount == 0 &&
        !it->second->dirty && !it->second->plug_held) {
      drop(b);
    }
  }
}

void BufferCache::evict_if_needed() {
  if (capacity_ == 0 || map_.size() < capacity_) return;
  // Walk from the LRU end looking for an evictable (unreferenced) buffer.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const std::uint64_t blockno = *it;
    auto mit = map_.find(blockno);
    assert(mit != map_.end());
    BufferHead* bh = mit->second.get();
    if (bh->refcount > 0) continue;
    // Journal-pinned victims must not be written outside their commit
    // (WAL); plug-held victims back a deferred in-flight write. Both stay.
    if (bh->jdirty || bh->plug_held) continue;
    if (bh->dirty) {
      blk::Bio bio = blk::Bio::single_write(blockno, bh->bytes());
      dev_.submit(bio);
      set_clean(bh);
      // A write the crash model swallowed is not a writeback — but the
      // victim is still evicted: after power death the volatile copy is
      // doomed either way, and eviction must keep making progress.
      if (bio.applied) stats_.writebacks += 1;
    }
    stats_.evictions += 1;
    drop(blockno);  // not through `it`: set_clean may have demoted it
    return;
  }
  // Everything referenced: allow temporary overshoot (kernel would block).
}

const char* err_name(Err e) {
  switch (e) {
    case Err::Ok: return "OK";
    case Err::Perm: return "EPERM";
    case Err::NoEnt: return "ENOENT";
    case Err::Io: return "EIO";
    case Err::BadF: return "EBADF";
    case Err::Again: return "EAGAIN";
    case Err::NoMem: return "ENOMEM";
    case Err::Exist: return "EEXIST";
    case Err::NotDir: return "ENOTDIR";
    case Err::IsDir: return "EISDIR";
    case Err::Inval: return "EINVAL";
    case Err::FBig: return "EFBIG";
    case Err::NoSpc: return "ENOSPC";
    case Err::RoFs: return "EROFS";
    case Err::NameTooLong: return "ENAMETOOLONG";
    case Err::NotEmpty: return "ENOTEMPTY";
    case Err::NoSys: return "ENOSYS";
    case Err::Stale: return "ESTALE";
    case Err::NoDev: return "ENODEV";
    case Err::Busy: return "EBUSY";
    case Err::MFile: return "EMFILE";
  }
  return "E?";
}

}  // namespace bsim::kern
