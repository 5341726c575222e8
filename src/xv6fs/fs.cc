#include "xv6fs/fs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::xv6 {

using bento::EntryOut;
using bento::FileAttr;
using bento::Request;
using bento::SbRef;
using bento::SetAttrIn;
using bento::StatfsOut;
using kern::Err;
using kern::Result;

namespace {

/// Ensures end_op runs on every path out of a transaction scope.
class TxnGuard {
 public:
  TxnGuard(Log& log, bento::SuperBlockCap& sb, std::uint32_t reserved)
      : log_(log), sb_(sb) {
    log_.begin_op(sb_, reserved);
  }
  ~TxnGuard() {
    if (!finished_) (void)log_.end_op(sb_);
  }
  TxnGuard(const TxnGuard&) = delete;
  TxnGuard& operator=(const TxnGuard&) = delete;

  [[nodiscard]] Err finish() {
    finished_ = true;
    return log_.end_op(sb_);
  }

 private:
  Log& log_;
  bento::SuperBlockCap& sb_;
  bool finished_ = false;
};

bool name_ok(std::string_view name) {
  return !name.empty() && name.size() < kDirNameLen && name != "." &&
         name.find('/') == std::string_view::npos;
}

}  // namespace

// ---- lifecycle ----

Err Xv6FileSystem::init(const Request&, SbRef sb) {
  BSIM_TRY(read_dsb(sb.get()));
  if (dsb_.size > sb->nblocks()) return Err::Inval;
  BSIM_TRY(log_.init(sb.get(), dsb_, opts_.durability, mount_opts_));
  // Replay may have installed a newer superblock (a raised ninitblocks).
  BSIM_TRY(read_dsb(sb.get()));

  FreeCounts counts;
  BSIM_TRY(count_free(
      dsb_,
      [&](std::uint32_t blockno, auto&& use) -> Err {
        auto bh = sb->bread(blockno);
        if (!bh.ok()) return bh.error();
        use(bh.value().data());
        return Err::Ok;
      },
      counts));
  free_inodes_ = counts.inodes;
  free_blocks_ = counts.blocks;
  ialloc_hint_ = counts.ialloc_cursor;
  balloc_cursors_ = std::move(counts.balloc_cursors);
  return Err::Ok;
}

Err Xv6FileSystem::read_dsb(Cap& sb) {
  auto bh = sb.bread(1);
  if (!bh.ok()) return bh.error();
  std::memcpy(&dsb_, bh.value().data().data(), sizeof(dsb_));
  return dsb_.magic == kMagic && dsb_.ninitblocks_valid() ? Err::Ok
                                                          : Err::Inval;
}

Err Xv6FileSystem::log_dsb(Cap& sb) {
  auto bh = sb.getblk(1);
  if (!bh.ok()) return bh.error();
  auto bytes = bh.value().data();
  std::memset(bytes.data(), 0, kBlockSize);
  std::memcpy(bytes.data(), &dsb_, sizeof(dsb_));
  bh.value().set_dirty();
  log_.log_write(bh.value());
  return Err::Ok;
}

void Xv6FileSystem::destroy(const Request&, SbRef sb) {
  (void)log_.force_commit(sb.get());
  log_.release_buffers();
  sb->flush_all();
}

// ---- inode table ----

Result<Xv6FileSystem::MemInode*> Xv6FileSystem::iget(Cap& sb,
                                                     std::uint32_t inum) {
  if (inum == 0 || inum >= dsb_.ninodes) return Err::Stale;
  bento::SemGuard guard(itable_lock_);
  auto it = itable_.find(inum);
  if (it != itable_.end() && it->second->valid) return it->second.get();
  if (!dsb_.inode_initialised(inum)) return Err::Stale;  // free, no I/O

  auto bh = sb.bread(dsb_.inode_block(inum));
  if (!bh.ok()) return bh.error();
  const auto* dinodes =
      reinterpret_cast<const Dinode*>(bh.value().data().data());
  const Dinode& d = dinodes[inum % kInodesPerBlock];
  if (d.type == static_cast<std::uint16_t>(InodeKind::Free)) return Err::Stale;

  auto mi = std::make_unique<MemInode>();
  mi->inum = inum;
  mi->valid = true;
  mi->d = d;
  MemInode* raw = mi.get();
  itable_[inum] = std::move(mi);
  return raw;
}

Err Xv6FileSystem::iupdate(Cap& sb, MemInode& mi) {
  auto bh = sb.bread(dsb_.inode_block(mi.inum));
  if (!bh.ok()) return bh.error();
  auto* dinodes = reinterpret_cast<Dinode*>(bh.value().data().data());
  dinodes[mi.inum % kInodesPerBlock] = mi.d;
  bh.value().set_dirty();
  log_.log_write(bh.value());
  return Err::Ok;
}

Result<std::uint32_t> Xv6FileSystem::ialloc(Cap& sb, InodeKind kind,
                                            std::uint32_t mode) {
  bento::SemGuard guard(alloc_lock_);
  while (ialloc_hint_ < dsb_.ninodes) {
    // The cursor reaches the first uninitialised block only when every
    // inode below it is allocated: take that block without a read.
    const bool fresh = !dsb_.inode_initialised(ialloc_hint_);
    const std::uint32_t iblock = dsb_.inode_block(ialloc_hint_);
    auto bh = fresh ? sb.getblk(iblock) : sb.bread(iblock);
    if (!bh.ok()) return bh.error();
    if (fresh) {
      // Zero-fill the block and raise the count in this transaction, so
      // that the two commit together.
      assert(iblock == dsb_.inodestart + dsb_.ninitblocks);
      std::memset(bh.value().data().data(), 0, kBlockSize);
      dsb_.ninitblocks += 1;
      if (const Err e = log_dsb(sb); e != Err::Ok) {
        dsb_.ninitblocks -= 1;
        return e;
      }
    }
    auto* dinodes = reinterpret_cast<Dinode*>(bh.value().data().data());
    const std::uint32_t inum = first_free_inode(dsb_, dinodes, ialloc_hint_);
    if (inum == 0) continue;
    Dinode& d = dinodes[inum % kInodesPerBlock];
    d = Dinode{};
    d.type = static_cast<std::uint16_t>(kind);
    d.nlink = 1;
    d.mode = mode;
    bh.value().set_dirty();
    log_.log_write(bh.value());
    free_inodes_ -= 1;

    // Refresh/insert the in-core copy.
    bento::SemGuard tguard(itable_lock_);
    auto mi = std::make_unique<MemInode>();
    mi->inum = inum;
    mi->valid = true;
    mi->d = d;
    itable_[inum] = std::move(mi);
    return inum;
  }
  return Err::NoSpc;
}

Err Xv6FileSystem::ifree(Cap& sb, MemInode& mi) {
  mi.d = Dinode{};  // type Free
  BSIM_TRY(iupdate(sb, mi));
  mi.valid = false;
  free_inodes_ += 1;
  ialloc_hint_ = std::min(ialloc_hint_, mi.inum);
  return Err::Ok;
}

void Xv6FileSystem::discard(Cap& sb, std::uint32_t inum) {
  auto mi = iget(sb, inum);
  if (!mi.ok()) return;
  (void)itrunc(sb, *mi.value(), 0);
  (void)ifree(sb, *mi.value());
}

// ---- block allocation ----

Result<std::uint32_t> Xv6FileSystem::balloc(Cap& sb, bool zero) {
  bento::SemGuard guard(alloc_lock_);
  for (std::uint32_t step = 0; step < dsb_.nbitmap; ++step) {
    const std::uint32_t bi = (balloc_hint_ + step) % dsb_.nbitmap;
    auto bh = sb.bread(dsb_.bmapstart + bi);
    if (!bh.ok()) return bh.error();
    auto bytes = bh.value().data();
    const std::uint32_t i =
        first_free_bit(dsb_, bi, bytes, balloc_cursors_[bi]);
    if (i == kBitsPerBlock) continue;
    const auto blockno = static_cast<std::uint32_t>(bi * kBitsPerBlock + i);
    bytes[i / 8] |= std::byte{1} << (i % 8);
    bh.value().set_dirty();
    log_.log_write(bh.value());
    balloc_hint_ = bi;
    free_blocks_ -= 1;
    if (!zero) return blockno;

    // bzero: fresh blocks must read back as zeroes.
    auto zb = sb.getblk(blockno);
    if (!zb.ok()) return zb.error();
    std::memset(zb.value().data().data(), 0, kBlockSize);
    zb.value().set_dirty();
    log_.log_write(zb.value());
    return blockno;
  }
  return Err::NoSpc;
}

Err Xv6FileSystem::bfree(Cap& sb, std::uint32_t blockno) {
  assert(blockno >= dsb_.datastart && blockno < dsb_.size);
  auto bh = sb.bread(dsb_.bitmap_block(blockno));
  if (!bh.ok()) return bh.error();
  auto bytes = bh.value().data();
  const std::uint32_t i = blockno % kBitsPerBlock;
  assert((bytes[i / 8] & (std::byte{1} << (i % 8))) != std::byte{0} &&
         "freeing a free block");
  bytes[i / 8] &= ~(std::byte{1} << (i % 8));
  bh.value().set_dirty();
  log_.log_write(bh.value());
  free_blocks_ += 1;
  std::uint32_t& cursor = balloc_cursors_[blockno / kBitsPerBlock];
  cursor = std::min(cursor, i);
  return Err::Ok;
}

// ---- block mapping ----

Result<std::uint32_t> Xv6FileSystem::bmap(Cap& sb, MemInode& mi,
                                          std::uint64_t bn, bool alloc,
                                          bool overwrite) {
  if (bn >= kMaxFileBlocks) return Err::FBig;

  if (bn < kNDirect) {
    std::uint32_t addr = mi.d.addrs[bn];
    if (addr == 0 && alloc) {
      auto r = balloc(sb, !overwrite);
      if (!r.ok()) return r;
      addr = r.value();
      mi.d.addrs[bn] = addr;
    }
    return addr;
  }
  bn -= kNDirect;

  if (bn < kNIndirect) {
    if (mi.d.indirect == 0) {
      if (!alloc) return std::uint32_t{0};
      auto r = balloc(sb);
      if (!r.ok()) return r;
      mi.d.indirect = r.value();
    }
    auto bh = sb.bread(mi.d.indirect);
    if (!bh.ok()) return bh.error();
    auto* entries =
        reinterpret_cast<std::uint32_t*>(bh.value().data().data());
    std::uint32_t addr = entries[bn];
    if (addr == 0 && alloc) {
      auto r = balloc(sb, !overwrite);
      if (!r.ok()) return r;
      addr = r.value();
      entries[bn] = addr;
      bh.value().set_dirty();
      log_.log_write(bh.value());
    }
    return addr;
  }
  bn -= kNIndirect;

  // Double indirect (§6.1: added so 4 GB files are possible).
  if (mi.d.dindirect == 0) {
    if (!alloc) return std::uint32_t{0};
    auto r = balloc(sb);
    if (!r.ok()) return r;
    mi.d.dindirect = r.value();
  }
  const std::uint64_t outer = bn / kNIndirect;
  const std::uint64_t inner = bn % kNIndirect;

  auto l1 = sb.bread(mi.d.dindirect);
  if (!l1.ok()) return l1.error();
  auto* l1e = reinterpret_cast<std::uint32_t*>(l1.value().data().data());
  std::uint32_t mid = l1e[outer];
  if (mid == 0) {
    if (!alloc) return std::uint32_t{0};
    auto r = balloc(sb);
    if (!r.ok()) return r;
    mid = r.value();
    l1e[outer] = mid;
    l1.value().set_dirty();
    log_.log_write(l1.value());
  }
  auto l2 = sb.bread(mid);
  if (!l2.ok()) return l2.error();
  auto* l2e = reinterpret_cast<std::uint32_t*>(l2.value().data().data());
  std::uint32_t addr = l2e[inner];
  if (addr == 0 && alloc) {
    auto r = balloc(sb, !overwrite);
    if (!r.ok()) return r;
    addr = r.value();
    l2e[inner] = addr;
    l2.value().set_dirty();
    log_.log_write(l2.value());
  }
  return addr;
}

// ---- file data I/O ----

Result<std::uint32_t> Xv6FileSystem::readi(Cap& sb, MemInode& mi,
                                           std::uint64_t off,
                                           std::span<std::byte> out) {
  if (off >= mi.d.size) return std::uint32_t{0};
  const std::uint64_t want =
      std::min<std::uint64_t>(out.size(), mi.d.size - off);
  // Resolve every block once up front; a multi-block read then fetches
  // the mapped blocks as one batched submission (adjacent file blocks
  // merge into multi-block bios) and the chunk loop copies from cache.
  const std::uint64_t first_bn = off / kBlockSize;
  const std::uint64_t last_bn = (off + want - 1) / kBlockSize;
  std::vector<std::uint32_t> addrs(
      static_cast<std::size_t>(last_bn - first_bn + 1), 0);
  for (std::uint64_t bn = first_bn; bn <= last_bn; ++bn) {
    auto addr = bmap(sb, mi, bn, /*alloc=*/false);
    if (!addr.ok()) return addr.error();
    addrs[static_cast<std::size_t>(bn - first_bn)] = addr.value();
  }
  std::vector<std::size_t> slot(addrs.size(), SIZE_MAX);  // -> mapped idx
  std::vector<std::uint64_t> mapped;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (addrs[i] != 0) {
      slot[i] = mapped.size();
      mapped.push_back(addrs[i]);
    }
  }
  std::vector<bento::BufferHeadHandle> batch;
  if (mapped.size() > 1) {
    auto b = sb.bread_batch(mapped);
    if (!b.ok()) return b.error();
    batch = std::move(b.value());  // pinned until the copy loop is done
  }
  std::uint64_t done = 0;
  while (done < want) {
    const std::uint64_t pos = off + done;
    const std::uint64_t bn = pos / kBlockSize;
    const std::size_t within = static_cast<std::size_t>(pos % kBlockSize);
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize - within, want - done));
    const std::size_t idx = static_cast<std::size_t>(bn - first_bn);
    if (addrs[idx] == 0) {
      std::memset(out.data() + done, 0, chunk);  // hole
    } else if (!batch.empty()) {
      std::memcpy(out.data() + done,
                  batch[slot[idx]].data().data() + within, chunk);
    } else {
      auto bh = sb.bread(addrs[idx]);
      if (!bh.ok()) return bh.error();
      std::memcpy(out.data() + done, bh.value().data().data() + within,
                  chunk);
    }
    done += chunk;
  }
  return static_cast<std::uint32_t>(done);
}

Result<std::uint32_t> Xv6FileSystem::write_data(
    Cap& sb, MemInode& mi, std::uint64_t off, std::span<const std::byte> in) {
  if (off + in.size() > kMaxFileBlocks * kBlockSize) return Err::FBig;
  std::uint64_t done = 0;
  while (done < in.size()) {
    const std::uint64_t pos = off + done;
    const std::uint64_t bn = pos / kBlockSize;
    const std::size_t within = static_cast<std::size_t>(pos % kBlockSize);
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize - within, in.size() - done));
    // Full-block overwrite: no read-modify-write — getblk declares the
    // block fully overwritten, so an uncached overwrite costs no device
    // read (the block_write_begin full-page shortcut; on the flusher's
    // clock each avoided read was a synchronous ~12us stall per block).
    // Nor is a newly allocated block zeroed first. A partial write keeps
    // the zeroing: the rest of the block must read back as zeros.
    const bool full = chunk == kBlockSize;
    auto addr = bmap(sb, mi, bn, /*alloc=*/true, /*overwrite=*/full);
    if (!addr.ok()) return addr.error();
    auto bh = full ? sb.getblk(addr.value()) : sb.bread(addr.value());
    if (!bh.ok()) return bh.error();
    std::memcpy(bh.value().data().data() + within, in.data() + done, chunk);
    bh.value().set_dirty();
    if (mi.d.type == static_cast<std::uint16_t>(InodeKind::File)) {
      bh.value().set_drop_behind();
    }
    log_.log_write(bh.value());
    done += chunk;
  }
  if (off + done > mi.d.size) mi.d.size = off + done;
  return static_cast<std::uint32_t>(done);
}

Result<std::uint32_t> Xv6FileSystem::writei(Cap& sb, MemInode& mi,
                                            std::uint64_t off,
                                            std::span<const std::byte> in) {
  auto w = write_data(sb, mi, off, in);
  if (!w.ok()) return w;
  BSIM_TRY(iupdate(sb, mi));
  return w;
}

// Zero the on-disk bytes from `from` to the end of its block (if the
// block is allocated). Needed at truncate boundaries so stale bytes from
// reused blocks are never exposed by a later size extension.
Err Xv6FileSystem::zero_block_tail(Cap& sb, MemInode& mi,
                                   std::uint64_t from) {
  const std::size_t within = static_cast<std::size_t>(from % kBlockSize);
  if (within == 0) return Err::Ok;
  auto addr = bmap(sb, mi, from / kBlockSize, /*alloc=*/false);
  if (!addr.ok()) return addr.error();
  if (addr.value() == 0) return Err::Ok;  // hole: already zeros
  auto bh = sb.bread(addr.value());
  if (!bh.ok()) return bh.error();
  std::memset(bh.value().data().data() + within, 0, kBlockSize - within);
  bh.value().set_dirty();
  log_.log_write(bh.value());
  return Err::Ok;
}

// Frees blocks beyond `new_size`. Runs inside the caller's transaction
// (freeing even a 4 GB file touches only a handful of distinct bitmap and
// index blocks, well within kMaxOpBlocks).
Err Xv6FileSystem::itrunc(Cap& sb, MemInode& mi, std::uint64_t new_size) {
  const std::uint64_t keep = (new_size + kBlockSize - 1) / kBlockSize;

  // Direct blocks.
  for (std::uint64_t bn = keep; bn < kNDirect; ++bn) {
    if (mi.d.addrs[bn] != 0) {
      BSIM_TRY(bfree(sb, mi.d.addrs[bn]));
      mi.d.addrs[bn] = 0;
    }
  }
  // Indirect.
  if (mi.d.indirect != 0) {
    const std::uint64_t keep_ind =
        keep > kNDirect ? keep - kNDirect : 0;  // entries to retain
    auto bh = sb.bread(mi.d.indirect);
    if (!bh.ok()) return bh.error();
    auto* entries =
        reinterpret_cast<std::uint32_t*>(bh.value().data().data());
    bool touched = false;
    for (std::uint64_t i = keep_ind; i < kNIndirect; ++i) {
      if (entries[i] != 0) {
        BSIM_TRY(bfree(sb, entries[i]));
        entries[i] = 0;
        touched = true;
      }
    }
    if (touched) {
      bh.value().set_dirty();
      log_.log_write(bh.value());
    }
    if (keep_ind == 0) {
      BSIM_TRY(bfree(sb, mi.d.indirect));
      mi.d.indirect = 0;
    }
  }
  // Double indirect.
  if (mi.d.dindirect != 0) {
    const std::uint64_t base = kNDirect + kNIndirect;
    const std::uint64_t keep_d = keep > base ? keep - base : 0;
    auto l1 = sb.bread(mi.d.dindirect);
    if (!l1.ok()) return l1.error();
    auto* l1e = reinterpret_cast<std::uint32_t*>(l1.value().data().data());
    bool l1_touched = false;
    for (std::uint64_t outer = 0; outer < kNIndirect; ++outer) {
      if (l1e[outer] == 0) continue;
      const std::uint64_t first = outer * kNIndirect;
      if (first + kNIndirect <= keep_d) continue;  // fully retained
      auto l2 = sb.bread(l1e[outer]);
      if (!l2.ok()) return l2.error();
      auto* l2e = reinterpret_cast<std::uint32_t*>(l2.value().data().data());
      bool l2_touched = false;
      const std::uint64_t start =
          keep_d > first ? keep_d - first : 0;
      for (std::uint64_t inner = start; inner < kNIndirect; ++inner) {
        if (l2e[inner] != 0) {
          BSIM_TRY(bfree(sb, l2e[inner]));
          l2e[inner] = 0;
          l2_touched = true;
        }
      }
      if (l2_touched) {
        l2.value().set_dirty();
        log_.log_write(l2.value());
      }
      if (start == 0) {
        BSIM_TRY(bfree(sb, l1e[outer]));
        l1e[outer] = 0;
        l1_touched = true;
      }
    }
    if (l1_touched) {
      l1.value().set_dirty();
      log_.log_write(l1.value());
    }
    if (keep_d == 0) {
      BSIM_TRY(bfree(sb, mi.d.dindirect));
      mi.d.dindirect = 0;
    }
  }

  mi.d.size = new_size;
  return iupdate(sb, mi);
}

// ---- directories ----

Result<std::uint32_t> Xv6FileSystem::dirlookup(Cap& sb, MemInode& dir,
                                               std::string_view name) {
  if (dir.d.type != static_cast<std::uint16_t>(InodeKind::Dir)) {
    return Err::NotDir;
  }
  for (std::uint64_t off = 0; off < dir.d.size; off += kBlockSize) {
    auto addr = bmap(sb, dir, off / kBlockSize, /*alloc=*/false);
    if (!addr.ok()) return addr.error();
    if (addr.value() == 0) continue;
    auto bh = sb.bread(addr.value());
    if (!bh.ok()) return bh.error();
    const auto* entries =
        reinterpret_cast<const Dirent*>(bh.value().data().data());
    const std::uint64_t nents =
        std::min<std::uint64_t>(kDirentsPerBlock,
                                (dir.d.size - off + sizeof(Dirent) - 1) /
                                    sizeof(Dirent));
    for (std::uint64_t i = 0; i < nents; ++i) {
      sim::charge(sim::costs().dir_scan_per_entry);
      if (entries[i].inum == 0) continue;
      if (name == std::string_view(
                      entries[i].name,
                      strnlen(entries[i].name, kDirNameLen))) {
        return entries[i].inum;
      }
    }
  }
  return Err::NoEnt;
}

Result<std::uint64_t> Xv6FileSystem::dirslot(Cap& sb, MemInode& dir,
                                             std::string_view name) {
  if (dir.d.type != static_cast<std::uint16_t>(InodeKind::Dir)) {
    return Err::NotDir;
  }
  // The whole directory, even past the first free slot: a hole may come
  // before the name.
  std::uint64_t slot_off = dir.d.size;
  for (std::uint64_t off = 0; off < dir.d.size; off += kBlockSize) {
    auto addr = bmap(sb, dir, off / kBlockSize, /*alloc=*/false);
    if (!addr.ok()) return addr.error();
    if (addr.value() == 0) continue;
    auto bh = sb.bread(addr.value());
    if (!bh.ok()) return bh.error();
    const auto* entries =
        reinterpret_cast<const Dirent*>(bh.value().data().data());
    const std::uint64_t nents = std::min<std::uint64_t>(
        kDirentsPerBlock,
        (dir.d.size - off + sizeof(Dirent) - 1) / sizeof(Dirent));
    for (std::uint64_t i = 0; i < nents; ++i) {
      sim::charge(sim::costs().dir_scan_per_entry);
      if (entries[i].inum == 0) {
        if (slot_off == dir.d.size) slot_off = off + i * sizeof(Dirent);
      } else if (name == std::string_view(
                             entries[i].name,
                             strnlen(entries[i].name, kDirNameLen))) {
        return Err::Exist;
      }
    }
  }
  return slot_off;
}

Err Xv6FileSystem::dirlink(Cap& sb, MemInode& dir, std::string_view name,
                           std::uint32_t inum) {
  auto slot_off = dirslot(sb, dir, name);
  if (!slot_off.ok()) return slot_off.error();
  return dirlink_at(sb, dir, slot_off.value(), name, inum);
}

Err Xv6FileSystem::dirlink_at(Cap& sb, MemInode& dir, std::uint64_t slot_off,
                              std::string_view name, std::uint32_t inum) {
  if (name.size() >= kDirNameLen) return Err::NameTooLong;
  Dirent de;
  de.inum = inum;
  std::memset(de.name, 0, kDirNameLen);
  std::memcpy(de.name, name.data(), name.size());
  auto r = writei(sb, dir, slot_off,
                  {reinterpret_cast<const std::byte*>(&de), sizeof(de)});
  if (!r.ok()) return r.error();
  return Err::Ok;
}

Err Xv6FileSystem::dirunlink(Cap& sb, MemInode& dir, std::string_view name) {
  for (std::uint64_t off = 0; off < dir.d.size; off += kBlockSize) {
    auto addr = bmap(sb, dir, off / kBlockSize, /*alloc=*/false);
    if (!addr.ok()) return addr.error();
    if (addr.value() == 0) continue;
    auto bh = sb.bread(addr.value());
    if (!bh.ok()) return bh.error();
    auto* entries = reinterpret_cast<Dirent*>(bh.value().data().data());
    const std::uint64_t nents = std::min<std::uint64_t>(
        kDirentsPerBlock,
        (dir.d.size - off + sizeof(Dirent) - 1) / sizeof(Dirent));
    for (std::uint64_t i = 0; i < nents; ++i) {
      sim::charge(sim::costs().dir_scan_per_entry);
      if (entries[i].inum == 0) continue;
      if (name == std::string_view(
                      entries[i].name,
                      strnlen(entries[i].name, kDirNameLen))) {
        entries[i] = Dirent{};
        bh.value().set_dirty();
        log_.log_write(bh.value());
        return Err::Ok;
      }
    }
  }
  return Err::NoEnt;
}

Result<bool> Xv6FileSystem::dir_empty(Cap& sb, MemInode& dir) {
  for (std::uint64_t off = 0; off < dir.d.size; off += kBlockSize) {
    auto addr = bmap(sb, dir, off / kBlockSize, /*alloc=*/false);
    if (!addr.ok()) return addr.error();
    if (addr.value() == 0) continue;
    auto bh = sb.bread(addr.value());
    if (!bh.ok()) return bh.error();
    const auto* entries =
        reinterpret_cast<const Dirent*>(bh.value().data().data());
    const std::uint64_t nents = std::min<std::uint64_t>(
        kDirentsPerBlock,
        (dir.d.size - off + sizeof(Dirent) - 1) / sizeof(Dirent));
    for (std::uint64_t i = 0; i < nents; ++i) {
      if (entries[i].inum == 0) continue;
      const std::string_view n(entries[i].name,
                               strnlen(entries[i].name, kDirNameLen));
      if (n != "." && n != "..") return false;
    }
  }
  return true;
}

FileAttr Xv6FileSystem::attr_of(const MemInode& mi) const {
  FileAttr a;
  a.ino = mi.inum;
  a.kind = mi.d.type == static_cast<std::uint16_t>(InodeKind::Dir)
               ? kern::FileType::Directory
               : kern::FileType::Regular;
  a.mode = mi.d.mode;
  a.nlink = mi.d.nlink;
  a.size = mi.d.size;
  a.blocks = (mi.d.size + 511) / 512;
  return a;
}

// ---- namespace operations ----

Result<EntryOut> Xv6FileSystem::lookup(const Request&, SbRef sb, bento::Ino parent,
                                       std::string_view name) {
  sim::charge(sim::costs().fs_op_base);
  auto dir = iget(sb.get(), static_cast<std::uint32_t>(parent));
  if (!dir.ok()) return dir.error();
  bento::SemGuard guard(dir.value()->lock);
  auto inum = dirlookup(sb.get(), *dir.value(), name);
  if (!inum.ok()) return inum.error();
  auto child = iget(sb.get(), inum.value());
  if (!child.ok()) return child.error();
  EntryOut out;
  out.ino = inum.value();
  out.attr = attr_of(*child.value());
  return out;
}

Result<FileAttr> Xv6FileSystem::getattr(const Request&, SbRef sb,
                                        bento::Ino ino) {
  sim::charge(sim::costs().fs_op_base);
  auto mi = iget(sb.get(), static_cast<std::uint32_t>(ino));
  if (!mi.ok()) return mi.error();
  return attr_of(*mi.value());
}

Result<FileAttr> Xv6FileSystem::setattr(const Request&, SbRef sb,
                                        bento::Ino ino,
                                        const SetAttrIn& attr) {
  sim::charge(sim::costs().fs_op_base);
  auto r = iget(sb.get(), static_cast<std::uint32_t>(ino));
  if (!r.ok()) return r.error();
  MemInode& mi = *r.value();
  bento::SemGuard guard(mi.lock);

  TxnGuard txn(log_, sb.get(), kMaxOpBlocks);
  if (attr.set_size && attr.size < mi.d.size) {
    BSIM_TRY(itrunc(sb.get(), mi, attr.size));
    // POSIX: growing later must expose zeros — clear the stale tail of the
    // boundary block now.
    BSIM_TRY(zero_block_tail(sb.get(), mi, attr.size));
  }
  if (attr.set_size && attr.size >= mi.d.size) {
    BSIM_TRY(zero_block_tail(sb.get(), mi, mi.d.size));
    mi.d.size = attr.size;
  }
  if (attr.set_mode) mi.d.mode = attr.mode;
  BSIM_TRY(iupdate(sb.get(), mi));
  BSIM_TRY(txn.finish());
  return attr_of(mi);
}

Result<EntryOut> Xv6FileSystem::create(const Request&, SbRef sb,
                                       bento::Ino parent,
                                       std::string_view name,
                                       std::uint32_t mode) {
  sim::charge(sim::costs().fs_op_base);
  if (!name_ok(name)) return Err::Inval;
  auto dirr = iget(sb.get(), static_cast<std::uint32_t>(parent));
  if (!dirr.ok()) return dirr.error();
  MemInode& dir = *dirr.value();
  bento::SemGuard guard(dir.lock);

  TxnGuard txn(log_, sb.get(), 16);
  auto slot_off = dirslot(sb.get(), dir, name);
  if (!slot_off.ok()) return slot_off.error();

  auto inum = ialloc(sb.get(), InodeKind::File, mode);
  if (!inum.ok()) return inum.error();
  if (const Err e =
          dirlink_at(sb.get(), dir, slot_off.value(), name, inum.value());
      e != Err::Ok) {
    discard(sb.get(), inum.value());
    return e;
  }
  BSIM_TRY(txn.finish());

  auto child = iget(sb.get(), inum.value());
  if (!child.ok()) return child.error();
  EntryOut out;
  out.ino = inum.value();
  out.attr = attr_of(*child.value());
  return out;
}

Result<EntryOut> Xv6FileSystem::mkdir(const Request&, SbRef sb,
                                      bento::Ino parent,
                                      std::string_view name,
                                      std::uint32_t mode) {
  sim::charge(sim::costs().fs_op_base);
  if (!name_ok(name)) return Err::Inval;
  auto dirr = iget(sb.get(), static_cast<std::uint32_t>(parent));
  if (!dirr.ok()) return dirr.error();
  MemInode& dir = *dirr.value();
  bento::SemGuard guard(dir.lock);

  TxnGuard txn(log_, sb.get(), 24);
  auto slot_off = dirslot(sb.get(), dir, name);
  if (!slot_off.ok()) return slot_off.error();

  auto inum = ialloc(sb.get(), InodeKind::Dir, mode);
  if (!inum.ok()) return inum.error();
  auto childr = iget(sb.get(), inum.value());
  if (!childr.ok()) return childr.error();
  MemInode& child = *childr.value();

  child.d.nlink = 2;  // "." plus the parent entry
  Err e = dirlink(sb.get(), child, ".", inum.value());
  if (e == Err::Ok) e = dirlink(sb.get(), child, "..", dir.inum);
  if (e == Err::Ok) {
    e = dirlink_at(sb.get(), dir, slot_off.value(), name, inum.value());
  }
  if (e != Err::Ok) {
    discard(sb.get(), inum.value());
    return e;
  }
  dir.d.nlink += 1;  // the child's ".."
  BSIM_TRY(iupdate(sb.get(), dir));
  BSIM_TRY(iupdate(sb.get(), child));
  BSIM_TRY(txn.finish());

  EntryOut out;
  out.ino = inum.value();
  out.attr = attr_of(child);
  return out;
}

Err Xv6FileSystem::unlink(const Request&, SbRef sb, bento::Ino parent,
                          std::string_view name) {
  sim::charge(sim::costs().fs_op_base);
  auto dirr = iget(sb.get(), static_cast<std::uint32_t>(parent));
  if (!dirr.ok()) return dirr.error();
  MemInode& dir = *dirr.value();
  bento::SemGuard guard(dir.lock);

  TxnGuard txn(log_, sb.get(), 8);
  auto inum = dirlookup(sb.get(), dir, name);
  if (!inum.ok()) return inum.error();
  auto childr = iget(sb.get(), inum.value());
  if (!childr.ok()) return childr.error();
  MemInode& child = *childr.value();
  if (child.d.type == static_cast<std::uint16_t>(InodeKind::Dir)) {
    return Err::IsDir;
  }
  BSIM_TRY(dirunlink(sb.get(), dir, name));
  assert(child.d.nlink > 0);
  child.d.nlink -= 1;
  BSIM_TRY(iupdate(sb.get(), child));
  return txn.finish();
  // Block reclamation happens in forget() when the kernel drops the inode.
}

Err Xv6FileSystem::rmdir(const Request&, SbRef sb, bento::Ino parent,
                         std::string_view name) {
  sim::charge(sim::costs().fs_op_base);
  if (name == "." || name == "..") return Err::Inval;
  auto dirr = iget(sb.get(), static_cast<std::uint32_t>(parent));
  if (!dirr.ok()) return dirr.error();
  MemInode& dir = *dirr.value();
  bento::SemGuard guard(dir.lock);

  TxnGuard txn(log_, sb.get(), 8);
  auto inum = dirlookup(sb.get(), dir, name);
  if (!inum.ok()) return inum.error();
  auto childr = iget(sb.get(), inum.value());
  if (!childr.ok()) return childr.error();
  MemInode& child = *childr.value();
  if (child.d.type != static_cast<std::uint16_t>(InodeKind::Dir)) {
    return Err::NotDir;
  }
  auto empty = dir_empty(sb.get(), child);
  if (!empty.ok()) return empty.error();
  if (!empty.value()) return Err::NotEmpty;

  BSIM_TRY(dirunlink(sb.get(), dir, name));
  child.d.nlink = 0;
  BSIM_TRY(iupdate(sb.get(), child));
  assert(dir.d.nlink > 0);
  dir.d.nlink -= 1;  // child's ".." is gone
  BSIM_TRY(iupdate(sb.get(), dir));
  return txn.finish();
}

Err Xv6FileSystem::rename(const Request&, SbRef sb, bento::Ino old_parent,
                          std::string_view old_name, bento::Ino new_parent,
                          std::string_view new_name) {
  sim::charge(sim::costs().fs_op_base);
  if (!name_ok(new_name)) return Err::Inval;
  auto oldr = iget(sb.get(), static_cast<std::uint32_t>(old_parent));
  if (!oldr.ok()) return oldr.error();
  auto newr = iget(sb.get(), static_cast<std::uint32_t>(new_parent));
  if (!newr.ok()) return newr.error();
  MemInode& odir = *oldr.value();
  MemInode& ndir = *newr.value();

  // Lock both parents in inum order (no-deadlock discipline).
  MemInode* first = odir.inum <= ndir.inum ? &odir : &ndir;
  MemInode* second = odir.inum <= ndir.inum ? &ndir : &odir;
  bento::SemGuard g1(first->lock);
  const bool same_dir = first == second;
  if (!same_dir) second->lock.acquire();

  Err result = Err::Ok;
  {
    TxnGuard txn(log_, sb.get(), 24);
    auto do_rename = [&]() -> Err {
      auto inum = dirlookup(sb.get(), odir, old_name);
      if (!inum.ok()) return inum.error();
      auto movedr = iget(sb.get(), inum.value());
      if (!movedr.ok()) return movedr.error();
      MemInode& moved = *movedr.value();
      const bool moved_is_dir =
          moved.d.type == static_cast<std::uint16_t>(InodeKind::Dir);

      // Displace an existing target.
      auto target = dirlookup(sb.get(), ndir, new_name);
      if (target.ok()) {
        if (target.value() == inum.value()) return Err::Ok;  // same file
        auto victimr = iget(sb.get(), target.value());
        if (!victimr.ok()) return victimr.error();
        MemInode& victim = *victimr.value();
        const bool victim_is_dir =
            victim.d.type == static_cast<std::uint16_t>(InodeKind::Dir);
        if (victim_is_dir) {
          auto empty = dir_empty(sb.get(), victim);
          if (!empty.ok()) return empty.error();
          if (!empty.value()) return Err::NotEmpty;
          if (!moved_is_dir) return Err::IsDir;
        } else if (moved_is_dir) {
          return Err::NotDir;
        }
        BSIM_TRY(dirunlink(sb.get(), ndir, new_name));
        victim.d.nlink = victim_is_dir ? 0 : victim.d.nlink - 1;
        BSIM_TRY(iupdate(sb.get(), victim));
        if (victim_is_dir) {
          ndir.d.nlink -= 1;
          BSIM_TRY(iupdate(sb.get(), ndir));
        }
      } else if (target.error() != Err::NoEnt) {
        return target.error();
      }

      BSIM_TRY(dirunlink(sb.get(), odir, old_name));
      BSIM_TRY(dirlink(sb.get(), ndir, new_name, inum.value()));

      if (moved_is_dir && odir.inum != ndir.inum) {
        // Rewire "..": the moved directory's parent changed.
        BSIM_TRY(dirunlink(sb.get(), moved, ".."));
        BSIM_TRY(dirlink(sb.get(), moved, "..", ndir.inum));
        odir.d.nlink -= 1;
        ndir.d.nlink += 1;
        BSIM_TRY(iupdate(sb.get(), odir));
        BSIM_TRY(iupdate(sb.get(), ndir));
      }
      return Err::Ok;
    };
    result = do_rename();
    if (result == Err::Ok) result = txn.finish();
  }
  if (!same_dir) second->lock.release();
  return result;
}

void Xv6FileSystem::forget(const Request&, SbRef sb, bento::Ino ino) {
  auto r = iget(sb.get(), static_cast<std::uint32_t>(ino));
  if (!r.ok()) return;
  MemInode& mi = *r.value();
  if (mi.d.nlink == 0) {
    // One transaction covers both the truncate and the inode free.
    TxnGuard txn(log_, sb.get(), kMaxOpBlocks);
    (void)itrunc(sb.get(), mi, 0);
    (void)ifree(sb.get(), mi);
    (void)txn.finish();
  }
  bento::SemGuard guard(itable_lock_);
  itable_.erase(static_cast<std::uint32_t>(ino));
}

// ---- file I/O ----

bento::Result<std::uint32_t> Xv6FileSystem::read(const Request&, SbRef sb,
                                                 bento::Ino ino, std::uint64_t,
                                                 std::uint64_t off,
                                                 std::span<std::byte> out) {
  sim::charge(sim::costs().fs_op_base);
  auto r = iget(sb.get(), static_cast<std::uint32_t>(ino));
  if (!r.ok()) return r.error();
  MemInode& mi = *r.value();
  // Readers share the inode lock: concurrent misses on one file overlap
  // on the device, and a writer still waits for the last of them.
  bento::SharedSemGuard guard(mi.lock);
  return readi(sb.get(), mi, off, out);
}

bento::Result<std::uint32_t> Xv6FileSystem::write(
    const Request&, SbRef sb, bento::Ino ino, std::uint64_t, std::uint64_t off,
    std::span<const std::byte> in) {
  sim::charge(sim::costs().fs_op_base);
  auto r = iget(sb.get(), static_cast<std::uint32_t>(ino));
  if (!r.ok()) return r.error();
  MemInode& mi = *r.value();
  bento::SemGuard guard(mi.lock);

  // Chunk into transactions that fit the log (metadata headroom of 16).
  constexpr std::uint64_t kDataPerTxn =
      static_cast<std::uint64_t>(kMaxOpBlocks - 16) * kBlockSize;
  std::uint32_t total = 0;
  std::uint64_t done = 0;
  while (done < in.size()) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(kDataPerTxn, in.size() - done);
    TxnGuard txn(log_, sb.get(), kMaxOpBlocks);
    auto w = writei(sb.get(), mi, off + done,
                    in.subspan(static_cast<std::size_t>(done),
                               static_cast<std::size_t>(chunk)));
    if (!w.ok()) return w.error();
    BSIM_TRY(txn.finish());
    total += w.value();
    done += chunk;
  }
  return total;
}

bento::Result<std::uint32_t> Xv6FileSystem::read_bulk(
    const Request&, SbRef sb, bento::Ino ino, std::uint64_t off,
    std::span<const std::span<std::byte>> pages) {
  sim::charge(sim::costs().fs_op_base);
  auto r = iget(sb.get(), static_cast<std::uint32_t>(ino));
  if (!r.ok()) return r.error();
  MemInode& mi = *r.value();
  bento::SharedSemGuard guard(mi.lock);

  // Unaligned callers fall back to per-page readi (each of which batches
  // internally). The ->readpages shape — block-aligned, one block per
  // page — resolves the run once, fetches it in one batched submission,
  // and copies straight out of the pinned handles.
  bool aligned = off % kBlockSize == 0;
  for (const auto& page : pages) aligned = aligned && page.size() == kBlockSize;
  if (!aligned) {
    std::uint32_t total = 0;
    std::uint64_t pos = off;
    for (const auto& page : pages) {
      auto n = readi(sb.get(), mi, pos, page);
      if (!n.ok()) return n.error();
      total += n.value();
      pos += n.value();
      if (n.value() < page.size()) break;  // EOF
    }
    return total;
  }

  if (off >= mi.d.size) return std::uint32_t{0};
  std::vector<std::size_t> page_slot(pages.size(), SIZE_MAX);
  std::vector<std::uint64_t> mapped;
  std::size_t npages = 0;  // pages at least partially inside the file
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const std::uint64_t pos = off + i * kBlockSize;
    if (pos >= mi.d.size) break;
    npages = i + 1;
    auto addr = bmap(sb.get(), mi, pos / kBlockSize, /*alloc=*/false);
    if (!addr.ok()) return addr.error();
    if (addr.value() != 0) {
      page_slot[i] = mapped.size();
      mapped.push_back(addr.value());
    }
  }
  auto batch = sb.get().bread_batch(mapped);
  if (!batch.ok()) return batch.error();
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < npages; ++i) {
    const std::uint64_t pos = off + i * kBlockSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize, mi.d.size - pos));
    if (page_slot[i] == SIZE_MAX) {
      std::memset(pages[i].data(), 0, chunk);  // hole
    } else {
      std::memcpy(pages[i].data(),
                  batch.value()[page_slot[i]].data().data(), chunk);
    }
    total += static_cast<std::uint32_t>(chunk);
  }
  return total;
}

bento::Result<std::uint32_t> Xv6FileSystem::write_bulk(
    const Request&, SbRef sb, bento::Ino ino, std::uint64_t off,
    std::span<const std::span<const std::byte>> pages) {
  sim::charge(sim::costs().fs_op_base);
  auto r = iget(sb.get(), static_cast<std::uint32_t>(ino));
  if (!r.ok()) return r.error();
  MemInode& mi = *r.value();
  bento::SemGuard guard(mi.lock);

  // The ->writepages advantage: many pages per transaction instead of a
  // transaction per page, and one inode update per transaction.
  constexpr std::size_t kPagesPerTxn = kMaxOpBlocks - 16;
  std::uint32_t total = 0;
  std::size_t i = 0;
  std::uint64_t pos = off;
  while (i < pages.size()) {
    const std::size_t n = std::min(kPagesPerTxn, pages.size() - i);
    TxnGuard txn(log_, sb.get(), kMaxOpBlocks);
    for (std::size_t j = 0; j < n; ++j) {
      auto w = write_data(sb.get(), mi, pos, pages[i + j]);
      if (!w.ok()) {
        // The pages written so far, and their blocks, stay in the file.
        (void)iupdate(sb.get(), mi);
        return w.error();
      }
      pos += w.value();
      total += w.value();
    }
    BSIM_TRY(iupdate(sb.get(), mi));
    BSIM_TRY(txn.finish());
    i += n;
  }
  return total;
}

Err Xv6FileSystem::fsync(const Request& req, SbRef sb, bento::Ino,
                         std::uint64_t, bool) {
  sim::charge(sim::costs().fs_op_base);
  return Xv6FileSystem::sync_fs(req, sb.reborrow());
}

// ---- directories ----

Err Xv6FileSystem::readdir(const Request&, SbRef sb, bento::Ino ino,
                           std::uint64_t& pos, const bento::DirFiller& fill) {
  sim::charge(sim::costs().fs_op_base);
  auto r = iget(sb.get(), static_cast<std::uint32_t>(ino));
  if (!r.ok()) return r.error();
  MemInode& dir = *r.value();
  if (dir.d.type != static_cast<std::uint16_t>(InodeKind::Dir)) {
    return Err::NotDir;
  }
  bento::SemGuard guard(dir.lock);

  while (pos + sizeof(Dirent) <= dir.d.size) {
    Dirent de;
    auto n = readi(sb.get(), dir, pos,
                   {reinterpret_cast<std::byte*>(&de), sizeof(de)});
    if (!n.ok()) return n.error();
    pos += sizeof(Dirent);
    if (de.inum == 0) continue;
    kern::DirEnt out;
    out.ino = de.inum;
    out.name.assign(de.name, strnlen(de.name, kDirNameLen));
    // Entry type requires the child inode; "." and ".." are directories.
    auto child = iget(sb.get(), de.inum);
    out.type = child.ok() && child.value()->d.type ==
                                 static_cast<std::uint16_t>(InodeKind::Dir)
                   ? kern::FileType::Directory
                   : kern::FileType::Regular;
    if (!fill(out)) break;
  }
  return Err::Ok;
}

// ---- whole-fs ----

bento::Result<StatfsOut> Xv6FileSystem::statfs(const Request&, SbRef) {
  sim::charge(sim::costs().fs_op_base);
  StatfsOut out;
  out.total_blocks = dsb_.ndata;
  out.free_blocks = free_blocks_;
  out.total_inodes = dsb_.ninodes;
  out.free_inodes = free_inodes_;
  out.block_size = kBlockSize;
  return out;
}

Err Xv6FileSystem::sync_fs(const Request&, SbRef sb) {
  BSIM_TRY(log_.force_commit(sb.get()));
  log_.barrier(sb.get());
  return Err::Ok;
}

void Xv6FileSystem::dump_stats(sim::JsonWriter& w) const {
  const LogStats& s = log_.stats();
  w.begin_object();
  w.field("struct", "LogStats");
  w.field("commits", s.commits);
  w.field("blocks_logged", s.blocks_logged);
  w.field("absorbed", s.absorbed);
  w.field("recoveries", s.recoveries);
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
}

// ---- online upgrade (§4.8) ----

bento::TransferableState Xv6FileSystem::prepare_transfer(const Request& req,
                                                         SbRef sb) {
  (void)sync_fs(req, sb.reborrow());
  bento::TransferableState state;
  state.put("xv6.log", log_.snapshot());
  state.put("xv6.dsb", dsb_);
  std::unordered_map<std::uint32_t, Dinode> dinodes;
  for (const auto& [inum, mi] : itable_) {
    if (mi->valid) dinodes.emplace(inum, mi->d);
  }
  state.put("xv6.itable", std::move(dinodes));
  state.put("xv6.free_blocks", free_blocks_);
  state.put("xv6.free_inodes", free_inodes_);
  state.put("xv6.balloc_hint", balloc_hint_);
  state.put("xv6.balloc_cursors", balloc_cursors_);
  state.put("xv6.ialloc_hint", ialloc_hint_);
  state.put("xv6.prev_version", std::string(version()));
  return state;
}

Err Xv6FileSystem::restore_state(const Request&, SbRef,
                                 bento::TransferableState state) {
  auto* snap = state.get<Log::Snapshot>("xv6.log");
  auto* dsb = state.get<DiskSuperblock>("xv6.dsb");
  auto* dinodes =
      state.get<std::unordered_map<std::uint32_t, Dinode>>("xv6.itable");
  auto* fb = state.get<std::uint64_t>("xv6.free_blocks");
  auto* fi = state.get<std::uint64_t>("xv6.free_inodes");
  auto* hint = state.get<std::uint32_t>("xv6.balloc_hint");
  auto* cursors = state.get<std::vector<std::uint32_t>>("xv6.balloc_cursors");
  auto* ihint = state.get<std::uint32_t>("xv6.ialloc_hint");
  if (snap == nullptr || dsb == nullptr || dinodes == nullptr ||
      fb == nullptr || fi == nullptr || hint == nullptr ||
      cursors == nullptr || ihint == nullptr) {
    return Err::NoSys;  // caller falls back to a cold init()
  }
  log_.adopt(*snap, mount_opts_);
  dsb_ = *dsb;
  itable_.clear();
  for (const auto& [inum, d] : *dinodes) {
    auto mi = std::make_unique<MemInode>();
    mi->inum = inum;
    mi->valid = true;
    mi->d = d;
    itable_[inum] = std::move(mi);
  }
  free_blocks_ = *fb;
  free_inodes_ = *fi;
  balloc_hint_ = *hint;
  balloc_cursors_ = *cursors;
  ialloc_hint_ = *ihint;
  restored_ = true;
  return Err::Ok;
}

}  // namespace bsim::xv6
