#include "kernel/buffer_cache.h"

#include <algorithm>
#include <cassert>

#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::kern {

BufferCache::BufferCache(blk::BlockDevice& dev, std::size_t capacity)
    : dev_(dev), capacity_(capacity) {}

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
    record_wb_error();
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
  const blk::Ticket t = dev_.submit_async(bios);
  // Media effects land at submission; only the wait is deferred. Clear
  // dirty state for exactly the bios whose write command executed — an
  // early kill leaves the tail of the batch dirty for the next sync.
  for (std::size_t i = 0; i < bhs.size(); ++i) {
    if (bios[i].io_error) {
      // A device write error (io_error discriminates it from the crash
      // model's silent swallow, which leaves io_error clear): the buffer
      // stays dirty AND the failure is parked in the writeback error
      // sequence for the next fsync/sync to report.
      record_wb_error();
      continue;
    }
    if (!bios[i].applied) continue;
    set_clean(bhs[i]);
    stats_.writebacks += 1;
  }
  return t;
}

blk::Ticket BufferCache::write_run(
    std::uint64_t start, std::span<const std::span<const std::byte>> srcs) {
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
    if (bio.io_error) record_wb_error();
  }
  return t;
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
        !it->second->dirty) {
      drop(b);
    }
  }
}

void BufferCache::evict_if_needed() {
  if (capacity_ == 0 || map_.size() < capacity_) return;
  // Walk from the LRU end looking for a clean, unreferenced buffer. A
  // dirty one stays: only its owner's write (a journal commit) may put it
  // on media.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const BufferHead* bh = map_.at(*it).get();
    if (bh->refcount > 0 || bh->dirty) continue;
    stats_.evictions += 1;
    drop(*it);
    return;
  }
  // Everything referenced or dirty: allow temporary overshoot (kernel
  // would block).
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
