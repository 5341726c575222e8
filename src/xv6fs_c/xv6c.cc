// Kernel-C-style implementation: raw buffer pointers, manual brelse,
// explicit error-path cleanup — the development experience the paper's bug
// study (§2.1) is about.
#include "xv6fs_c/xv6c.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "kernel/flusher.h"
#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::xv6c {

using kern::BufferHead;
using kern::Err;
using kern::Result;
using xv6::Dinode;
using xv6::Dirent;
using xv6::DiskSuperblock;
using xv6::InodeKind;
using xv6::kBlockSize;
using xv6::kDirentsPerBlock;
using xv6::kDirNameLen;
using xv6::kInodesPerBlock;
using xv6::kLogSize;
using xv6::kMaxOpBlocks;
using xv6::kNDirect;
using xv6::kNIndirect;
using xv6::LogHeader;

namespace {
constexpr std::uint16_t kFree = static_cast<std::uint16_t>(InodeKind::Free);
constexpr std::uint16_t kDir = static_cast<std::uint16_t>(InodeKind::Dir);
constexpr std::uint16_t kFile = static_cast<std::uint16_t>(InodeKind::File);
}  // namespace

// ---- log ----
//
// When an op starts and when a transaction commits is blk::OpJournal's,
// shared with the Bento port; what a commit writes is below.

void Xv6cMount::log_begin() {
  jnl_.begin_op(io(), [&] { return log_commit(); });
}

void Xv6cMount::log_write(std::uint64_t blockno) {
  assert(jnl_.in_op() && "log_write outside a transaction");
  if (jnl_.tag(static_cast<std::uint32_t>(blockno))) {
    assert(jnl_.size() <= kLogSize);
  }
}

Err Xv6cMount::log_end() {
  return jnl_.end_op(sb_->bdev().stripe_width_blocks(),
                     [&] { return log_commit(); });
}

Err Xv6cMount::log_force() {
  return jnl_.force(io(), [&] { return log_commit(); });
}

Result<blk::Ticket> Xv6cMount::log_header_write(const LogHeader& h) {
  auto& bc = sb_->bufcache();
  auto bh = bc.getblk(dsb_.logstart);
  if (!bh.ok()) return bh.error();
  std::memcpy(bh.value()->bytes().data(), &h, sizeof(h));
  bc.mark_dirty(bh.value());
  const blk::Ticket t = bc.sync_dirty_buffers_async({&bh.value(), 1});
  bc.brelse(bh.value());
  return t;
}

Err Xv6cMount::log_commit() {
  if (jnl_.aborted()) return Err::Io;
  if (jnl_.empty()) return Err::Ok;
  auto& bc = sb_->bufcache();
  const CLogIo io = this->io();
  const std::uint64_t txn = jnl_.txn();
  jnl_.begin_commit(io, txn);
  const std::vector<std::uint32_t>& pending = jnl_.blocks();
  const auto n = static_cast<std::uint32_t>(pending.size());
  // Read each logged buffer once: its log copy is written straight from
  // it (the log area never enters the cache), and the install reuses it.
  std::vector<BufferHead*> bufs;
  bufs.reserve(n);
  const auto release = [&] {
    for (BufferHead* bh : bufs) bc.brelse(bh);
    bufs.clear();
  };
  std::vector<blk::Ticket> tickets;
  const auto fail = [&](Err e) {
    release();
    jnl_.redeem(io, tickets);
    return e;
  };
  for (const std::uint32_t blockno : pending) {
    auto bh = bc.bread(blockno);
    if (!bh.ok()) return fail(bh.error());
    bufs.push_back(bh.value());
  }
  // A failed journal write aborts the journal, which drops the running
  // transaction; its blocks stay dirty in the cache.
  const auto stage = [&](blk::TraceEv ev, std::uint32_t nblocks,
                         const blk::Ticket& t) {
    if (jnl_.stage(io, ev, txn, nblocks, tickets, t)) return true;
    release();
    return false;
  };

  // 1. The log run: one async batch straight from the buffers.
  {
    std::vector<std::span<const std::byte>> run;
    run.reserve(n);
    for (BufferHead* bh : bufs) run.push_back(bh->bytes());
    if (!stage(blk::TraceEv::JLogWrite, n,
               bc.write_run(dsb_.logstart + 1, run))) {
      return Err::Io;  // aborted: the commit record is never issued
    }
  }
  // 2. Commit record, after the log run in submission (= media) order.
  LogHeader h;
  h.n = n;
  std::copy(pending.begin(), pending.end(), h.blocks);
  {
    auto rec = log_header_write(h);
    if (!rec.ok()) return fail(rec.error());
    if (!stage(blk::TraceEv::JCommitRecord, 1, rec.value())) return Err::Io;
  }
  // 3. Install the buffers to their home locations as one async batch.
  for (BufferHead* bh : bufs) bc.mark_dirty(bh);
  jnl_.stage(io, blk::TraceEv::JCheckpoint, txn, n, tickets,
             bc.sync_dirty_buffers_async(bufs));
  release();
  // 4. Clear the header as its own batch after the install, so that it
  //    reaches media after every home write. A failed clear aborts the
  //    journal (Journal::cleared).
  {
    auto clear = log_header_write(LogHeader{});
    if (!clear.ok()) return fail(clear.error());
    if (!jnl_.cleared(io, tickets, clear.value())) return Err::Io;
  }
  log_stats_.commits += 1;
  log_stats_.blocks_logged += n;
  jnl_.close();
  jnl_.retire(io, std::move(tickets));
  return Err::Ok;
}

Err Xv6cMount::log_recover() {
  auto& bc = sb_->bufcache();
  auto bh = bc.bread(dsb_.logstart);
  if (!bh.ok()) return bh.error();
  LogHeader h;
  std::memcpy(&h, bh.value()->bytes().data(), sizeof(h));
  bc.brelse(bh.value());
  if (h.n == 0) return Err::Ok;
  for (std::uint32_t i = 0; i < h.n; ++i) {
    auto src = bc.bread(dsb_.logstart + 1 + i);
    if (!src.ok()) return src.error();
    auto dst = bc.getblk(h.blocks[i]);
    if (!dst.ok()) {
      bc.brelse(src.value());
      return dst.error();
    }
    std::memcpy(dst.value()->bytes().data(), src.value()->bytes().data(),
                kBlockSize);
    bc.mark_dirty(dst.value());
    const blk::Ticket t = bc.sync_dirty_buffers_async({&dst.value(), 1});
    bc.wait(t);
    bc.brelse(dst.value());
    bc.brelse(src.value());
    // A failed home write keeps the header on media: the mount fails and
    // the next one replays again (jbd2's "recovery failed").
    if (t.failed) return Err::Io;
  }
  // Commits write the log area behind the cache: drop what replay read.
  bc.invalidate(dsb_.logstart + 1, h.n);
  auto clear = log_header_write(LogHeader{});
  if (!clear.ok()) return clear.error();
  bc.wait(clear.value());
  // A failed clear fails the mount too: the header must not outlive the
  // mount's first commit, whose log run would overwrite what it replays.
  if (clear.value().failed) return Err::Io;
  // Replayed state sits in the volatile device cache; make sure the first
  // fsync does not skip its barrier.
  jnl_.mark_dirty();
  return Err::Ok;
}

// ---- mount ----

Err Xv6cMount::read_dsb() {
  auto& bc = sb_->bufcache();
  auto bh = bc.bread(1);
  if (!bh.ok()) return bh.error();
  std::memcpy(&dsb_, bh.value()->bytes().data(), sizeof(dsb_));
  bc.brelse(bh.value());
  return dsb_.magic == xv6::kMagic && dsb_.ninitblocks_valid() ? Err::Ok
                                                               : Err::Inval;
}

Err Xv6cMount::log_dsb() {
  auto& bc = sb_->bufcache();
  auto bh = bc.getblk(1);
  if (!bh.ok()) return bh.error();
  std::memset(bh.value()->bytes().data(), 0, kBlockSize);
  std::memcpy(bh.value()->bytes().data(), &dsb_, sizeof(dsb_));
  bc.mark_dirty(bh.value());
  log_write(1);
  bc.brelse(bh.value());
  return Err::Ok;
}

Err Xv6cMount::mount_init() {
  BSIM_TRY(read_dsb());
  BSIM_TRY(log_recover());
  BSIM_TRY(read_dsb());  // replay may have raised ninitblocks
  auto& bc = sb_->bufcache();
  xv6::FreeCounts counts;
  BSIM_TRY(xv6::count_free(
      dsb_,
      [&](std::uint32_t blockno, auto&& use) -> Err {
        auto bh = bc.bread(blockno);
        if (!bh.ok()) return bh.error();
        use(bh.value()->bytes());
        bc.brelse(bh.value());
        return Err::Ok;
      },
      counts));
  free_inodes_ = counts.inodes;
  free_blocks_ = counts.blocks;
  ialloc_hint_ = counts.ialloc_cursor;
  balloc_cursors_ = std::move(counts.balloc_cursors);
  auto root = iget(xv6::kRootInum);
  if (!root.ok()) return root.error();
  sb_->root = root.value();  // keep the mount's root reference
  return Err::Ok;
}

// ---- inodes ----

Result<kern::Inode*> Xv6cMount::iget(std::uint32_t inum) {
  if (inum == 0 || inum >= dsb_.ninodes) return Err::Stale;
  if (kern::Inode* cached = sb_->iget_cached(inum)) return cached;
  if (!dsb_.inode_initialised(inum)) return Err::Stale;  // free, no I/O

  auto& bc = sb_->bufcache();
  auto bh = bc.bread(dsb_.inode_block(inum));
  if (!bh.ok()) return bh.error();
  const auto* di = reinterpret_cast<const Dinode*>(bh.value()->bytes().data());
  const Dinode d = di[inum % kInodesPerBlock];
  bc.brelse(bh.value());
  if (d.type == kFree) return Err::Stale;

  kern::Inode& inode = sb_->inew(inum);
  auto cinode = std::make_unique<CInode>();
  cinode->inum = inum;
  cinode->d = d;
  inode.fs_priv = cinode.release();  // freed in evict_inode / put_super
  inode.iop = this;
  inode.fop = this;
  inode.aops = this;
  inode.type = d.type == kDir ? kern::FileType::Directory
                              : kern::FileType::Regular;
  inode.mode = d.mode;
  inode.nlink = d.nlink;
  inode.size = d.size;
  return &inode;
}

Err Xv6cMount::iupdate(kern::Inode& inode) {
  CInode* c = ci(inode);
  auto& bc = sb_->bufcache();
  auto bh = bc.bread(dsb_.inode_block(c->inum));
  if (!bh.ok()) return bh.error();
  auto* di = reinterpret_cast<Dinode*>(bh.value()->bytes().data());
  di[c->inum % kInodesPerBlock] = c->d;
  bc.mark_dirty(bh.value());
  log_write(dsb_.inode_block(c->inum));
  bc.brelse(bh.value());
  // Sync link count to the VFS inode; size is NOT copied back — during
  // writeback the page-cache size is authoritative and per-page iupdate
  // calls must not clobber it (c->d.size trails until all pages land).
  inode.nlink = c->d.nlink;
  return Err::Ok;
}

Result<std::uint32_t> Xv6cMount::ialloc(InodeKind kind, std::uint32_t mode) {
  sim::ScopedLock guard(alloc_lock_);
  auto& bc = sb_->bufcache();
  while (ialloc_hint_ < dsb_.ninodes) {
    // The first uninitialised block: take it without a read, zero it and
    // raise the count in this op, so that the two commit together.
    const bool fresh = !dsb_.inode_initialised(ialloc_hint_);
    const std::uint32_t iblock = dsb_.inode_block(ialloc_hint_);
    auto bh = fresh ? bc.getblk(iblock) : bc.bread(iblock);
    if (!bh.ok()) return bh.error();
    if (fresh) {
      assert(iblock == dsb_.inodestart + dsb_.ninitblocks);
      std::memset(bh.value()->bytes().data(), 0, kBlockSize);
      dsb_.ninitblocks += 1;
      if (const Err e = log_dsb(); e != Err::Ok) {
        dsb_.ninitblocks -= 1;
        bc.brelse(bh.value());
        return e;
      }
    }
    auto* di = reinterpret_cast<Dinode*>(bh.value()->bytes().data());
    const std::uint32_t inum = xv6::first_free_inode(dsb_, di, ialloc_hint_);
    if (inum == 0) {
      bc.brelse(bh.value());
      continue;
    }
    Dinode& d = di[inum % kInodesPerBlock];
    d = Dinode{};
    d.type = static_cast<std::uint16_t>(kind);
    d.nlink = 1;
    d.mode = mode;
    bc.mark_dirty(bh.value());
    log_write(iblock);
    bc.brelse(bh.value());
    free_inodes_ -= 1;
    return inum;
  }
  return Err::NoSpc;
}

Result<std::uint32_t> Xv6cMount::balloc(bool zero) {
  sim::ScopedLock guard(alloc_lock_);
  auto& bc = sb_->bufcache();
  for (std::uint32_t step = 0; step < dsb_.nbitmap; ++step) {
    const std::uint32_t bi = (balloc_hint_ + step) % dsb_.nbitmap;
    auto bh = bc.bread(dsb_.bmapstart + bi);
    if (!bh.ok()) return bh.error();
    auto bytes = bh.value()->bytes();
    const std::uint32_t i =
        xv6::first_free_bit(dsb_, bi, bytes, balloc_cursors_[bi]);
    if (i == xv6::kBitsPerBlock) {
      bc.brelse(bh.value());
      continue;
    }
    const auto blockno =
        static_cast<std::uint32_t>(bi * xv6::kBitsPerBlock + i);
    bytes[i / 8] |= std::byte{1} << (i % 8);
    bc.mark_dirty(bh.value());
    log_write(dsb_.bmapstart + bi);
    bc.brelse(bh.value());
    balloc_hint_ = bi;
    free_blocks_ -= 1;
    if (!zero) return blockno;  // the caller overwrites all of it
    auto zb = bc.getblk(blockno);
    if (!zb.ok()) return zb.error();
    std::memset(zb.value()->bytes().data(), 0, kBlockSize);
    bc.mark_dirty(zb.value());
    log_write(blockno);
    bc.brelse(zb.value());
    return blockno;
  }
  return Err::NoSpc;
}

Err Xv6cMount::bfree(std::uint32_t blockno) {
  auto& bc = sb_->bufcache();
  auto bh = bc.bread(dsb_.bitmap_block(blockno));
  if (!bh.ok()) return bh.error();
  auto bytes = bh.value()->bytes();
  const std::uint32_t i = blockno % xv6::kBitsPerBlock;
  bytes[i / 8] &= ~(std::byte{1} << (i % 8));
  bc.mark_dirty(bh.value());
  log_write(dsb_.bitmap_block(blockno));
  bc.brelse(bh.value());
  free_blocks_ += 1;
  std::uint32_t& cursor = balloc_cursors_[blockno / xv6::kBitsPerBlock];
  cursor = std::min(cursor, i);
  return Err::Ok;
}

Result<std::uint32_t> Xv6cMount::bmap(kern::Inode& inode, std::uint64_t bn,
                                      bool alloc, bool overwrite) {
  CInode* c = ci(inode);
  auto& bc = sb_->bufcache();
  if (bn >= xv6::kMaxFileBlocks) return Err::FBig;

  if (bn < kNDirect) {
    std::uint32_t addr = c->d.addrs[bn];
    if (addr == 0 && alloc) {
      auto r = balloc(!overwrite);
      if (!r.ok()) return r;
      addr = c->d.addrs[bn] = r.value();
    }
    return addr;
  }
  bn -= kNDirect;

  if (bn < kNIndirect) {
    if (c->d.indirect == 0) {
      if (!alloc) return std::uint32_t{0};
      auto r = balloc();
      if (!r.ok()) return r;
      c->d.indirect = r.value();
    }
    auto bh = bc.bread(c->d.indirect);
    if (!bh.ok()) return bh.error();
    auto* e = reinterpret_cast<std::uint32_t*>(bh.value()->bytes().data());
    std::uint32_t addr = e[bn];
    if (addr == 0 && alloc) {
      auto r = balloc(!overwrite);
      if (!r.ok()) {
        bc.brelse(bh.value());
        return r;
      }
      addr = e[bn] = r.value();
      bc.mark_dirty(bh.value());
      log_write(c->d.indirect);
    }
    bc.brelse(bh.value());
    return addr;
  }
  bn -= kNIndirect;

  if (c->d.dindirect == 0) {
    if (!alloc) return std::uint32_t{0};
    auto r = balloc();
    if (!r.ok()) return r;
    c->d.dindirect = r.value();
  }
  const std::uint64_t outer = bn / kNIndirect;
  const std::uint64_t inner = bn % kNIndirect;
  auto l1 = bc.bread(c->d.dindirect);
  if (!l1.ok()) return l1.error();
  auto* l1e = reinterpret_cast<std::uint32_t*>(l1.value()->bytes().data());
  std::uint32_t mid = l1e[outer];
  if (mid == 0) {
    if (!alloc) {
      bc.brelse(l1.value());
      return std::uint32_t{0};
    }
    auto r = balloc();
    if (!r.ok()) {
      bc.brelse(l1.value());
      return r;
    }
    mid = l1e[outer] = r.value();
    bc.mark_dirty(l1.value());
    log_write(c->d.dindirect);
  }
  bc.brelse(l1.value());
  auto l2 = bc.bread(mid);
  if (!l2.ok()) return l2.error();
  auto* l2e = reinterpret_cast<std::uint32_t*>(l2.value()->bytes().data());
  std::uint32_t addr = l2e[inner];
  if (addr == 0 && alloc) {
    auto r = balloc(!overwrite);
    if (!r.ok()) {
      bc.brelse(l2.value());
      return r;
    }
    addr = l2e[inner] = r.value();
    bc.mark_dirty(l2.value());
    log_write(mid);
  }
  bc.brelse(l2.value());
  return addr;
}

Err Xv6cMount::itrunc(kern::Inode& inode, std::uint64_t new_size) {
  CInode* c = ci(inode);
  auto& bc = sb_->bufcache();
  const std::uint64_t keep = (new_size + kBlockSize - 1) / kBlockSize;

  for (std::uint64_t bn = keep; bn < kNDirect; ++bn) {
    if (c->d.addrs[bn] != 0) {
      BSIM_TRY(bfree(c->d.addrs[bn]));
      c->d.addrs[bn] = 0;
    }
  }
  if (c->d.indirect != 0) {
    const std::uint64_t keep_ind = keep > kNDirect ? keep - kNDirect : 0;
    auto bh = bc.bread(c->d.indirect);
    if (!bh.ok()) return bh.error();
    auto* e = reinterpret_cast<std::uint32_t*>(bh.value()->bytes().data());
    bool touched = false;
    for (std::uint64_t i = keep_ind; i < kNIndirect; ++i) {
      if (e[i] != 0) {
        BSIM_TRY(bfree(e[i]));
        e[i] = 0;
        touched = true;
      }
    }
    if (touched) {
      bc.mark_dirty(bh.value());
      log_write(c->d.indirect);
    }
    bc.brelse(bh.value());
    if (keep_ind == 0) {
      BSIM_TRY(bfree(c->d.indirect));
      c->d.indirect = 0;
    }
  }
  if (c->d.dindirect != 0) {
    const std::uint64_t base = kNDirect + kNIndirect;
    const std::uint64_t keep_d = keep > base ? keep - base : 0;
    auto l1 = bc.bread(c->d.dindirect);
    if (!l1.ok()) return l1.error();
    auto* l1e = reinterpret_cast<std::uint32_t*>(l1.value()->bytes().data());
    bool l1t = false;
    for (std::uint64_t outer = 0; outer < kNIndirect; ++outer) {
      if (l1e[outer] == 0) continue;
      const std::uint64_t first = outer * kNIndirect;
      if (first + kNIndirect <= keep_d) continue;
      auto l2 = bc.bread(l1e[outer]);
      if (!l2.ok()) {
        bc.brelse(l1.value());
        return l2.error();
      }
      auto* l2e = reinterpret_cast<std::uint32_t*>(l2.value()->bytes().data());
      bool l2t = false;
      const std::uint64_t start = keep_d > first ? keep_d - first : 0;
      for (std::uint64_t inner = start; inner < kNIndirect; ++inner) {
        if (l2e[inner] != 0) {
          BSIM_TRY(bfree(l2e[inner]));
          l2e[inner] = 0;
          l2t = true;
        }
      }
      if (l2t) {
        bc.mark_dirty(l2.value());
        log_write(l1e[outer]);
      }
      bc.brelse(l2.value());
      if (start == 0) {
        BSIM_TRY(bfree(l1e[outer]));
        l1e[outer] = 0;
        l1t = true;
      }
    }
    if (l1t) {
      bc.mark_dirty(l1.value());
      log_write(c->d.dindirect);
    }
    bc.brelse(l1.value());
    if (keep_d == 0) {
      BSIM_TRY(bfree(c->d.dindirect));
      c->d.dindirect = 0;
    }
  }
  c->d.size = new_size;
  return iupdate(inode);
}

// ---- directories ----

Result<std::uint32_t> Xv6cMount::dir_scan(kern::Inode& dir,
                                          std::string_view name,
                                          std::uint64_t* off_out) {
  CInode* c = ci(dir);
  auto& bc = sb_->bufcache();
  if (c->d.type != kDir) return Err::NotDir;
  for (std::uint64_t off = 0; off < c->d.size; off += kBlockSize) {
    auto addr = bmap(dir, off / kBlockSize, false);
    if (!addr.ok()) return addr.error();
    if (addr.value() == 0) continue;
    auto bh = bc.bread(addr.value());
    if (!bh.ok()) return bh.error();
    const auto* e = reinterpret_cast<const Dirent*>(bh.value()->bytes().data());
    const std::uint64_t nents = std::min<std::uint64_t>(
        kDirentsPerBlock,
        (c->d.size - off + sizeof(Dirent) - 1) / sizeof(Dirent));
    for (std::uint64_t i = 0; i < nents; ++i) {
      sim::charge(sim::costs().dir_scan_per_entry);
      if (e[i].inum == 0) continue;
      if (name == std::string_view(e[i].name,
                                   strnlen(e[i].name, kDirNameLen))) {
        const std::uint32_t inum = e[i].inum;
        if (off_out != nullptr) *off_out = off + i * sizeof(Dirent);
        bc.brelse(bh.value());
        return inum;
      }
    }
    bc.brelse(bh.value());
  }
  return Err::NoEnt;
}

Err Xv6cMount::write_through_log(kern::Inode& inode, std::uint64_t off,
                                 std::span<const std::byte> in) {
  CInode* c = ci(inode);
  auto& bc = sb_->bufcache();
  std::uint64_t done = 0;
  while (done < in.size()) {
    const std::uint64_t pos = off + done;
    const std::uint64_t bn = pos / kBlockSize;
    const std::size_t within = static_cast<std::size_t>(pos % kBlockSize);
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize - within, in.size() - done));
    // Full-block overwrite skips the read-modify-write, and the zeroing
    // of a newly allocated block (same shortcuts as the Bento port's
    // writei; the C baseline keeps its per-page transactions — these are
    // block-layer savings, not batching).
    const bool full = chunk == kBlockSize;
    auto addr = bmap(inode, bn, /*alloc=*/true, /*overwrite=*/full);
    if (!addr.ok()) return addr.error();
    auto bh = full ? bc.getblk(addr.value()) : bc.bread(addr.value());
    if (!bh.ok()) return bh.error();
    std::memcpy(bh.value()->bytes().data() + within, in.data() + done, chunk);
    bc.mark_dirty(bh.value());
    if (c->d.type == kFile) bc.mark_drop_behind(bh.value());
    log_write(addr.value());
    bc.brelse(bh.value());
    done += chunk;
  }
  if (off + done > c->d.size) c->d.size = off + done;
  return iupdate(inode);
}

Result<std::uint64_t> Xv6cMount::dir_slot(kern::Inode& dir,
                                          std::string_view name) {
  CInode* c = ci(dir);
  auto& bc = sb_->bufcache();
  if (c->d.type != kDir) return Err::NotDir;
  // The whole directory, even past the first free slot: a hole may come
  // before the name.
  std::uint64_t slot = c->d.size;
  for (std::uint64_t off = 0; off < c->d.size; off += kBlockSize) {
    auto addr = bmap(dir, off / kBlockSize, false);
    if (!addr.ok()) return addr.error();
    if (addr.value() == 0) continue;
    auto bh = bc.bread(addr.value());
    if (!bh.ok()) return bh.error();
    const auto* e = reinterpret_cast<const Dirent*>(bh.value()->bytes().data());
    const std::uint64_t nents = std::min<std::uint64_t>(
        kDirentsPerBlock,
        (c->d.size - off + sizeof(Dirent) - 1) / sizeof(Dirent));
    for (std::uint64_t i = 0; i < nents; ++i) {
      sim::charge(sim::costs().dir_scan_per_entry);
      if (e[i].inum == 0) {
        if (slot == c->d.size) slot = off + i * sizeof(Dirent);
      } else if (name == std::string_view(e[i].name,
                                          strnlen(e[i].name, kDirNameLen))) {
        bc.brelse(bh.value());
        return Err::Exist;
      }
    }
    bc.brelse(bh.value());
  }
  return slot;
}

Err Xv6cMount::dir_link(kern::Inode& dir, std::string_view name,
                        std::uint32_t inum) {
  auto slot = dir_slot(dir, name);
  if (!slot.ok()) return slot.error();
  return dir_link_at(dir, slot.value(), name, inum);
}

Err Xv6cMount::dir_link_at(kern::Inode& dir, std::uint64_t slot,
                           std::string_view name, std::uint32_t inum) {
  if (name.size() >= kDirNameLen) return Err::NameTooLong;
  Dirent de;
  de.inum = inum;
  std::memset(de.name, 0, kDirNameLen);
  std::memcpy(de.name, name.data(), name.size());
  return write_through_log(dir, slot,
                           {reinterpret_cast<const std::byte*>(&de),
                            sizeof(de)});
}

Err Xv6cMount::dir_unlink(kern::Inode& dir, std::string_view name) {
  std::uint64_t off = 0;
  auto inum = dir_scan(dir, name, &off);
  if (!inum.ok()) return inum.error();
  const Dirent zero{};
  return write_through_log(dir, off,
                           {reinterpret_cast<const std::byte*>(&zero),
                            sizeof(zero)});
}

Result<bool> Xv6cMount::dir_empty(kern::Inode& dir) {
  CInode* c = ci(dir);
  auto& bc = sb_->bufcache();
  for (std::uint64_t off = 0; off < c->d.size; off += kBlockSize) {
    auto addr = bmap(dir, off / kBlockSize, false);
    if (!addr.ok()) return addr.error();
    if (addr.value() == 0) continue;
    auto bh = bc.bread(addr.value());
    if (!bh.ok()) return bh.error();
    const auto* e = reinterpret_cast<const Dirent*>(bh.value()->bytes().data());
    const std::uint64_t nents = std::min<std::uint64_t>(
        kDirentsPerBlock,
        (c->d.size - off + sizeof(Dirent) - 1) / sizeof(Dirent));
    for (std::uint64_t i = 0; i < nents; ++i) {
      if (e[i].inum == 0) continue;
      const std::string_view n(e[i].name, strnlen(e[i].name, kDirNameLen));
      if (n != "." && n != "..") {
        bc.brelse(bh.value());
        return false;
      }
    }
    bc.brelse(bh.value());
  }
  return true;
}

void Xv6cMount::iput_in_op(kern::Inode* inode) {
  evict_in_op_ = true;
  sb_->iput(inode);
  evict_in_op_ = false;
}

void Xv6cMount::discard(kern::Inode* inode) {
  ci(*inode)->d.nlink = 0;
  (void)iupdate(*inode);
  iput_in_op(inode);  // the last reference: evict_inode frees it
}

// ---- InodeOps ----

Result<kern::Inode*> Xv6cMount::lookup(kern::Inode& dir,
                                       std::string_view name) {
  sim::charge(sim::costs().fs_op_base);
  auto inum = dir_scan(dir, name, nullptr);
  if (!inum.ok()) return inum.error();
  return iget(inum.value());
}

Result<kern::Inode*> Xv6cMount::create(kern::Inode& dir,
                                       std::string_view name,
                                       std::uint32_t mode) {
  sim::charge(sim::costs().fs_op_base);
  log_begin();
  auto slot = dir_slot(dir, name);
  if (!slot.ok()) {
    (void)log_end();
    return slot.error();
  }
  auto inum = ialloc(InodeKind::File, mode);
  if (!inum.ok()) {
    (void)log_end();
    return inum.error();
  }
  Err e = dir_link_at(dir, slot.value(), name, inum.value());
  if (e != Err::Ok) {
    auto child = iget(inum.value());
    if (child.ok()) discard(child.value());
    (void)log_end();
    return e;
  }
  BSIM_TRY(log_end());
  return iget(inum.value());
}

Result<kern::Inode*> Xv6cMount::mkdir(kern::Inode& dir, std::string_view name,
                                      std::uint32_t mode) {
  sim::charge(sim::costs().fs_op_base);
  log_begin();
  auto slot = dir_slot(dir, name);
  if (!slot.ok()) {
    (void)log_end();
    return slot.error();
  }
  auto inum = ialloc(InodeKind::Dir, mode);
  if (!inum.ok()) {
    (void)log_end();
    return inum.error();
  }
  auto child = iget(inum.value());
  if (!child.ok()) {
    (void)log_end();
    return child.error();
  }
  CInode* cc = ci(*child.value());
  cc->d.nlink = 2;
  Err e = dir_link(*child.value(), ".", inum.value());
  if (e == Err::Ok) e = dir_link(*child.value(), "..", ci(dir)->inum);
  if (e == Err::Ok) e = dir_link_at(dir, slot.value(), name, inum.value());
  if (e != Err::Ok) {
    discard(child.value());
    (void)log_end();
    return e;
  }
  ci(dir)->d.nlink += 1;
  e = iupdate(dir);
  if (e == Err::Ok) e = iupdate(*child.value());
  if (e != Err::Ok) {
    iput_in_op(child.value());
    (void)log_end();
    return e;
  }
  BSIM_TRY(log_end());
  return child.value();
}

Err Xv6cMount::unlink(kern::Inode& dir, std::string_view name) {
  sim::charge(sim::costs().fs_op_base);
  log_begin();
  auto inum = dir_scan(dir, name, nullptr);
  if (!inum.ok()) {
    (void)log_end();
    return inum.error();
  }
  auto child = iget(inum.value());
  if (!child.ok()) {
    (void)log_end();
    return child.error();
  }
  CInode* cc = ci(*child.value());
  if (cc->d.type == kDir) {
    iput_in_op(child.value());
    (void)log_end();
    return Err::IsDir;
  }
  Err e = dir_unlink(dir, name);
  if (e == Err::Ok) {
    cc->d.nlink -= 1;
    e = iupdate(*child.value());
  }
  iput_in_op(child.value());
  if (e != Err::Ok) {
    (void)log_end();
    return e;
  }
  return log_end();
}

Err Xv6cMount::rmdir(kern::Inode& dir, std::string_view name) {
  sim::charge(sim::costs().fs_op_base);
  if (name == "." || name == "..") return Err::Inval;
  log_begin();
  auto inum = dir_scan(dir, name, nullptr);
  if (!inum.ok()) {
    (void)log_end();
    return inum.error();
  }
  auto child = iget(inum.value());
  if (!child.ok()) {
    (void)log_end();
    return child.error();
  }
  CInode* cc = ci(*child.value());
  Err e = Err::Ok;
  if (cc->d.type != kDir) {
    e = Err::NotDir;
  } else {
    auto empty = dir_empty(*child.value());
    if (!empty.ok()) e = empty.error();
    else if (!empty.value()) e = Err::NotEmpty;
  }
  if (e == Err::Ok) e = dir_unlink(dir, name);
  if (e == Err::Ok) {
    cc->d.nlink = 0;
    e = iupdate(*child.value());
  }
  if (e == Err::Ok) {
    ci(dir)->d.nlink -= 1;
    e = iupdate(dir);
  }
  iput_in_op(child.value());
  if (e != Err::Ok) {
    (void)log_end();
    return e;
  }
  return log_end();
}

Err Xv6cMount::rename(kern::Inode& old_dir, std::string_view old_name,
                      kern::Inode& new_dir, std::string_view new_name) {
  sim::charge(sim::costs().fs_op_base);
  log_begin();
  auto do_rename = [&]() -> Err {
    auto inum = dir_scan(old_dir, old_name, nullptr);
    if (!inum.ok()) return inum.error();
    auto moved = iget(inum.value());
    if (!moved.ok()) return moved.error();
    CInode* mc = ci(*moved.value());
    const bool moved_is_dir = mc->d.type == kDir;

    auto target = dir_scan(new_dir, new_name, nullptr);
    if (target.ok()) {
      if (target.value() == inum.value()) {
        iput_in_op(moved.value());
        return Err::Ok;
      }
      auto victim = iget(target.value());
      if (!victim.ok()) {
        iput_in_op(moved.value());
        return victim.error();
      }
      CInode* vc = ci(*victim.value());
      Err e = Err::Ok;
      if (vc->d.type == kDir) {
        auto empty = dir_empty(*victim.value());
        if (!empty.ok()) e = empty.error();
        else if (!empty.value()) e = Err::NotEmpty;
        else if (!moved_is_dir) e = Err::IsDir;
      } else if (moved_is_dir) {
        e = Err::NotDir;
      }
      if (e == Err::Ok) e = dir_unlink(new_dir, new_name);
      if (e == Err::Ok) {
        vc->d.nlink = vc->d.type == kDir ? 0 : vc->d.nlink - 1;
        e = iupdate(*victim.value());
      }
      if (e == Err::Ok && vc->d.type == kDir) {
        ci(new_dir)->d.nlink -= 1;
        e = iupdate(new_dir);
      }
      iput_in_op(victim.value());
      if (e != Err::Ok) {
        iput_in_op(moved.value());
        return e;
      }
    } else if (target.error() != Err::NoEnt) {
      iput_in_op(moved.value());
      return target.error();
    }

    Err e = dir_unlink(old_dir, old_name);
    if (e == Err::Ok) e = dir_link(new_dir, new_name, inum.value());
    if (e == Err::Ok && moved_is_dir && &old_dir != &new_dir) {
      e = dir_unlink(*moved.value(), "..");
      if (e == Err::Ok) {
        e = dir_link(*moved.value(), "..", ci(new_dir)->inum);
      }
      if (e == Err::Ok) {
        ci(old_dir)->d.nlink -= 1;
        ci(new_dir)->d.nlink += 1;
        e = iupdate(old_dir);
        if (e == Err::Ok) e = iupdate(new_dir);
      }
    }
    iput_in_op(moved.value());
    return e;
  };
  Err e = do_rename();
  if (e != Err::Ok) {
    (void)log_end();
    return e;
  }
  return log_end();
}

Err Xv6cMount::zero_block_tail(kern::Inode& inode, std::uint64_t from) {
  // POSIX truncate semantics: stale bytes in the boundary block must never
  // be exposed by a later extension. Caller holds an open transaction.
  auto& bc = sb_->bufcache();
  const std::size_t within = static_cast<std::size_t>(from % kBlockSize);
  if (within == 0) return Err::Ok;
  auto addr = bmap(inode, from / kBlockSize, false);
  if (!addr.ok()) return addr.error();
  if (addr.value() == 0) return Err::Ok;
  auto bh = bc.bread(addr.value());
  if (!bh.ok()) return bh.error();
  std::memset(bh.value()->bytes().data() + within, 0, kBlockSize - within);
  bc.mark_dirty(bh.value());
  log_write(addr.value());
  bc.brelse(bh.value());
  return Err::Ok;
}

Err Xv6cMount::setattr(kern::Inode& inode, const kern::SetAttr& attr) {
  sim::charge(sim::costs().fs_op_base);
  CInode* c = ci(inode);
  if (attr.set_size && attr.size < c->d.size) {
    kern::generic_truncate_pagecache(inode, attr.size);
    log_begin();
    Err te = itrunc(inode, attr.size);
    if (te != Err::Ok) {
      (void)log_end();
      return te;
    }
    BSIM_TRY(log_end());
    log_begin();
    Err ze = zero_block_tail(inode, attr.size);
    if (ze != Err::Ok) {
      (void)log_end();
      return ze;
    }
    BSIM_TRY(log_end());
  }
  log_begin();
  if (attr.set_size && attr.size >= c->d.size) {
    Err ze = zero_block_tail(inode, c->d.size);
    if (ze != Err::Ok) {
      (void)log_end();
      return ze;
    }
    c->d.size = attr.size;
  }
  if (attr.set_mode) {
    c->d.mode = attr.mode;
    inode.mode = attr.mode;
  }
  Err e = iupdate(inode);
  if (e != Err::Ok) {
    (void)log_end();
    return e;
  }
  BSIM_TRY(log_end());
  inode.size = c->d.size;
  return Err::Ok;
}

// ---- FileOps ----

Result<std::uint64_t> Xv6cMount::read(kern::Inode& inode, kern::FileHandle&,
                                      std::uint64_t off,
                                      std::span<std::byte> out) {
  // Read caching "implemented in the file system" (§6.5.1): the C version
  // wires the page cache itself.
  return kern::generic_file_read(inode, off, out);
}

Result<std::uint64_t> Xv6cMount::write(kern::Inode& inode, kern::FileHandle&,
                                       std::uint64_t off,
                                       std::span<const std::byte> in) {
  return kern::generic_file_write(inode, off, in);
}

Err Xv6cMount::fsync(kern::Inode& inode, kern::FileHandle&, bool) {
  BSIM_TRY(kern::generic_writeback(inode));
  BSIM_TRY(log_force());  // group commit may have left ops pending
  jnl_.barrier(io());
  return Err::Ok;
}

Err Xv6cMount::flush(kern::Inode& inode, kern::FileHandle&) {
  return kern::generic_writeback(inode);
}

Err Xv6cMount::readdir(kern::Inode& inode, std::uint64_t& pos,
                       const kern::DirFiller& fill) {
  sim::charge(sim::costs().fs_op_base);
  CInode* c = ci(inode);
  auto& bc = sb_->bufcache();
  if (c->d.type != kDir) return Err::NotDir;
  while (pos + sizeof(Dirent) <= c->d.size) {
    const std::uint64_t bn = pos / kBlockSize;
    auto addr = bmap(inode, bn, false);
    if (!addr.ok()) return addr.error();
    Dirent de{};
    if (addr.value() != 0) {
      auto bh = bc.bread(addr.value());
      if (!bh.ok()) return bh.error();
      std::memcpy(&de, bh.value()->bytes().data() + pos % kBlockSize,
                  sizeof(de));
      bc.brelse(bh.value());
    }
    pos += sizeof(Dirent);
    if (de.inum == 0) continue;
    kern::DirEnt out;
    out.ino = de.inum;
    out.name.assign(de.name, strnlen(de.name, kDirNameLen));
    auto child = iget(de.inum);
    if (child.ok()) {
      out.type = child.value()->type;
      sb_->iput(child.value());
    }
    if (!fill(out)) break;
  }
  return Err::Ok;
}

// ---- SuperOps ----

Err Xv6cMount::sync_fs(kern::SuperBlock&, bool) {
  BSIM_TRY(log_force());
  jnl_.barrier(io());
  return Err::Ok;
}

Err Xv6cMount::statfs(kern::SuperBlock&, kern::StatFs& out) {
  out.total_blocks = dsb_.ndata;
  out.free_blocks = free_blocks_;
  out.total_inodes = dsb_.ninodes;
  out.free_inodes = free_inodes_;
  out.block_size = kBlockSize;
  out.fs_name = "xv6_vfs";
  return Err::Ok;
}

void Xv6cMount::put_super(kern::SuperBlock&) {
  (void)log_force();  // commit the group-commit tail before unmount
  io().flush();
}

Xv6cMount::~Xv6cMount() {
  sb_->for_each_inode([](kern::Inode& inode) {
    delete ci(inode);
    inode.fs_priv = nullptr;
  });
}

void Xv6cMount::evict_inode(kern::Inode& inode) {
  inode.mapping.drop_all();
  CInode* c = ci(inode);
  if (c == nullptr) return;
  if (c->d.nlink == 0) {
    // Under an unlink, rmdir or rename (iput_in_op) the truncate and the
    // free join the caller's op: a nested log_begin would wait for that op
    // to close, which it cannot do before this returns. Otherwise each is
    // an op of its own.
    const bool own_ops = !evict_in_op_;
    if (own_ops) log_begin();
    (void)itrunc(inode, 0);
    if (own_ops) {
      (void)log_end();
      log_begin();
    }
    c->d = Dinode{};
    (void)iupdate(inode);
    free_inodes_ += 1;
    ialloc_hint_ = std::min(ialloc_hint_, c->inum);
    if (own_ops) (void)log_end();
  }
  delete c;  // manual lifetime management, C style
  inode.fs_priv = nullptr;
}

// ---- AddressSpaceOps ----

Err Xv6cMount::readpage(kern::Inode& inode, std::uint64_t pgoff,
                        std::span<std::byte> out) {
  CInode* c = ci(inode);
  auto& bc = sb_->bufcache();
  const std::uint64_t off = pgoff * kern::kPageSize;
  std::uint64_t done = 0;
  while (done < out.size() && off + done < c->d.size) {
    const std::uint64_t bn = (off + done) / kBlockSize;
    auto addr = bmap(inode, bn, false);
    if (!addr.ok()) return addr.error();
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize, out.size() - done));
    if (addr.value() == 0) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      auto bh = bc.bread(addr.value());
      if (!bh.ok()) return bh.error();
      std::memcpy(out.data() + done, bh.value()->bytes().data(), chunk);
      bc.brelse(bh.value());
    }
    done += chunk;
  }
  if (done < out.size()) {
    std::memset(out.data() + done, 0, out.size() - done);
  }
  return Err::Ok;
}

Err Xv6cMount::writepage(kern::Inode& inode, std::uint64_t pgoff,
                         std::span<const std::byte> in) {
  CInode* c = ci(inode);
  const std::uint64_t off = pgoff * kern::kPageSize;
  const std::uint64_t len = std::min<std::uint64_t>(
      kern::kPageSize, inode.size > off ? inode.size - off : 0);
  if (len == 0) return Err::Ok;
  (void)c;
  // One transaction per page: the ->writepage path the paper contrasts
  // with BentoFS's batched ->writepages.
  log_begin();
  Err e = write_through_log(inode, off,
                            in.subspan(0, static_cast<std::size_t>(len)));
  if (e != Err::Ok) {
    (void)log_end();
    return e;
  }
  return log_end();
}

// ---- registration ----

namespace {

kern::Result<std::unique_ptr<kern::SuperOps>> fill_super(
    kern::SuperBlock& sb, const blk::MountOpts& opts) {
  auto mnt = std::make_unique<Xv6cMount>(sb, opts);
  BSIM_TRY(mnt->mount_init());
  // Background writeback for the kernel (C-VFS) deployment, as on the
  // Bento mount: threshold page writeback moves off the writer's clock.
  // "-o noflusher" restores writer-context sync.
  kern::maybe_attach_flusher(sb, opts);
  Xv6cMount* m = mnt.get();
  sb.register_stats("xv6c", [m](sim::JsonWriter& w) {
    const CLogStats& s = m->log_stats();
    w.begin_object();
    w.field("struct", "CLogStats");
    w.field("commits", s.commits);
    w.field("blocks_logged", s.blocks_logged);
    w.field("absorbed", s.absorbed);
    w.field("ops_committed", s.ops_committed);
    w.field("group_commits", s.group_commits);
    w.field("pipelined_commits", s.pipelined_commits);
    w.field("empty_commits_skipped", s.empty_commits_skipped);
    w.field("flushes_skipped", s.flushes_skipped);
    w.field("slot_waits", s.slot_waits);
    w.field("slot_wait_ns", s.slot_wait_ns);
    w.field("log_aborted", s.log_aborted);
    sim::dump_histogram(w, "logwrite_lat", s.write_lat);
    sim::dump_histogram(w, "record_lat", s.record_lat);
    sim::dump_histogram(w, "checkpoint_lat", s.checkpoint_lat);
    w.end_object();
  });
  return std::unique_ptr<kern::SuperOps>(std::move(mnt));
}

}  // namespace

void register_xv6c(kern::Kernel& kernel, std::string name) {
  kernel.register_fs(std::move(name), fill_super);
}

}  // namespace bsim::xv6c
