#include "ext4/ext4.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "blockdev/opts.h"
#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::ext4 {

using kern::Err;
using kern::Result;

namespace {
constexpr std::uint16_t kFree = 0;
constexpr std::uint16_t kDir = 1;
constexpr std::uint16_t kFile = 2;
constexpr std::size_t kTxnCommitThreshold = 2048;  // blocks
}  // namespace

// ---- journal ----

void Ext4Mount::j_write(std::uint32_t blockno) {
  sim::ScopedLock guard(journal_lock_);
  // The first tagged block opens the running transaction (jseq_ is the
  // sequence its records will carry).
  if (jnl_.empty()) jio().trace(blk::TraceEv::TxnOpen, jseq_, 0);
  (void)jnl_.tag(blockno);
}

Err Ext4Mount::j_commit() {
  if (jnl_.aborted()) return Err::Io;
  auto& bc = sb_->bufcache();
  const JbdIo io = jio();

  jnl_.begin_commit(io, jseq_);
  const std::vector<std::uint32_t>& running = jnl_.blocks();
  std::vector<blk::Ticket> tickets;
  auto fail = [&](Err e) {
    jnl_.redeem(io, tickets);
    return e;
  };
  std::size_t written = 0;
  while (written < running.size()) {
    // One journal record holds as many tags as fit the descriptor block
    // (and the journal area); huge transactions split into several records.
    constexpr std::size_t kMaxTags = std::size(JDescriptor{}.blocks);
    const std::size_t n = std::min({running.size() - written,
                                    static_cast<std::size_t>(super_.jblocks) - 2,
                                    kMaxTags});
    JDescriptor desc;
    desc.magic = kJDescMagic;
    desc.seq = jseq_;
    desc.n = static_cast<std::uint32_t>(n);
    for (std::size_t i = 0; i < n; ++i) {
      desc.blocks[i] = running[written + i];
    }
    // Read each journaled buffer once: the journal copy is written
    // straight from it and the checkpoint reuses it.
    std::vector<kern::BufferHead*> homes;
    homes.reserve(n);
    const auto release = [&] {
      for (kern::BufferHead* bh : homes) bc.brelse(bh);
    };
    for (std::size_t i = 0; i < n; ++i) {
      auto bh = bc.bread(running[written + i]);
      if (!bh.ok()) {
        release();
        return fail(bh.error());
      }
      homes.push_back(bh.value());
    }
    // Descriptor + data into the journal region, submitted as ONE batch
    // that never enters the cache: the run is contiguous from jstart, so
    // the request queue merges it into a single multi-block device
    // command (JBD2 writes a transaction the same way).
    {
      std::vector<std::span<const std::byte>> jrun;
      jrun.reserve(n + 1);
      jrun.push_back(std::as_bytes(std::span(&desc, 1)));
      for (kern::BufferHead* bh : homes) jrun.push_back(bh->bytes());
      // A failed journal write aborts the journal before the commit
      // record: recovery replays nothing past the last committed seq.
      if (!jnl_.stage(io, blk::TraceEv::JLogWrite, jseq_,
                      static_cast<std::uint32_t>(n + 1), tickets,
                      bc.write_run(super_.jstart, jrun))) {
        release();
        return Err::Io;
      }
    }
    // Commit record: strictly ordered after the journal data on media
    // (media effects land at submission, in submission order); only the
    // transfer completions ride the tickets.
    {
      JCommit commit;
      commit.magic = kJCommitMagic;
      commit.seq = jseq_;
      std::array<std::byte, kBlockSize> cblock{};
      std::memcpy(cblock.data(), &commit, sizeof(commit));
      const std::span<const std::byte> crun = cblock;
      // Failed commit record: the transaction never committed — abort
      // BEFORE the checkpoint, or uncommitted state reaches home
      // locations with no durable record protecting it.
      if (!jnl_.stage(io, blk::TraceEv::JCommitRecord, jseq_, 1, tickets,
                      bc.write_run(super_.jstart + 1 + n, {&crun, 1}))) {
        release();
        return Err::Io;
      }
    }

    // Checkpoint: write home locations (device write cache; durability
    // comes from the journal + the fsync-path flush). Scattered blocks,
    // one batch: requests spread across the device's channels.
    for (kern::BufferHead* bh : homes) bc.mark_dirty(bh);
    jnl_.stage(io, blk::TraceEv::JCheckpoint, jseq_,
               static_cast<std::uint32_t>(n), tickets,
               bc.sync_dirty_buffers_async(homes));
    release();
    jseq_ += 1;
    jstats_.commits += 1;
    jstats_.blocks_journaled += n;
    written += n;
  }
  jnl_.close();
  jnl_.retire(io, std::move(tickets));
  return Err::Ok;
}

Err Ext4Mount::j_sync() {
  sim::ScopedLock guard(journal_lock_);
  BSIM_TRY(jnl_.force(jio(), [&] { return j_commit(); }));
  jnl_.barrier(jio());
  return Err::Ok;
}

Err Ext4Mount::j_recover() {
  auto& bc = sb_->bufcache();
  auto db = bc.bread(super_.jstart);
  if (!db.ok()) return db.error();
  JDescriptor desc;
  std::memcpy(&desc, db.value()->bytes().data(), sizeof(desc));
  bc.brelse(db.value());
  if (desc.magic != kJDescMagic || desc.n == 0 ||
      desc.n > super_.jblocks - 2) {
    return Err::Ok;  // empty journal
  }
  auto cb = bc.bread(super_.jstart + 1 + desc.n);
  if (!cb.ok()) return cb.error();
  JCommit commit;
  std::memcpy(&commit, cb.value()->bytes().data(), sizeof(commit));
  bc.brelse(cb.value());
  if (commit.magic != kJCommitMagic || commit.seq != desc.seq) {
    return Err::Ok;  // uncommitted transaction: discard
  }
  jstats_.recoveries += 1;
  // Replay: batched read of the contiguous journal run, then one batched
  // install of the home locations.
  std::vector<std::uint64_t> jblocks;
  jblocks.reserve(desc.n);
  for (std::uint32_t i = 0; i < desc.n; ++i) {
    jblocks.push_back(super_.jstart + 1 + i);
  }
  auto srcs = bc.bread_batch(jblocks);
  if (!srcs.ok()) return srcs.error();
  std::vector<kern::BufferHead*> homes;
  homes.reserve(desc.n);
  for (std::uint32_t i = 0; i < desc.n; ++i) {
    auto dst = bc.getblk(desc.blocks[i]);
    if (!dst.ok()) {
      for (auto* h : homes) bc.brelse(h);
      for (auto* s : srcs.value()) bc.brelse(s);
      return dst.error();
    }
    std::memcpy(dst.value()->bytes().data(), srcs.value()[i]->bytes().data(),
                kBlockSize);
    bc.mark_dirty(dst.value());
    homes.push_back(dst.value());
  }
  const Err e = bc.sync_dirty_buffers(homes);
  for (auto* h : homes) bc.brelse(h);
  for (auto* s : srcs.value()) bc.brelse(s);
  // A failed home write keeps the descriptor on media: the mount fails and
  // the next one replays again (jbd2's "recovery failed").
  if (e != Err::Ok) return e;
  // Clear the descriptor so replay is not repeated.
  auto zb = bc.getblk(super_.jstart);
  if (!zb.ok()) return zb.error();
  std::memset(zb.value()->bytes().data(), 0, kBlockSize);
  bc.mark_dirty(zb.value());
  bc.sync_dirty_buffer(zb.value());
  bc.brelse(zb.value());
  sb_->bdev().flush();
  return Err::Ok;
}

// ---- mount ----

Err Ext4Mount::read_super() {
  auto& bc = sb_->bufcache();
  auto bh = bc.bread(1);
  if (!bh.ok()) return bh.error();
  std::memcpy(&super_, bh.value()->bytes().data(), sizeof(super_));
  bc.brelse(bh.value());
  if (super_.magic != kMagic) return Err::Inval;

  groups_.resize(super_.ngroups);
  for (std::uint32_t b = 0; b < super_.gdt_blocks; ++b) {
    auto gb = bc.bread(super_.gdt_start + b);
    if (!gb.ok()) return gb.error();
    const std::uint32_t first = b * kGroupDescsPerBlock;
    const std::uint32_t n =
        std::min<std::uint32_t>(kGroupDescsPerBlock, super_.ngroups - first);
    std::memcpy(groups_.data() + first, gb.value()->bytes().data(),
                n * sizeof(GroupDesc));
    bc.brelse(gb.value());
  }
  return Err::Ok;
}

Err Ext4Mount::gdt_update(std::uint32_t g) {
  auto& bc = sb_->bufcache();
  const std::uint32_t blk = super_.gdt_start + g / kGroupDescsPerBlock;
  auto bh = bc.bread(blk);
  if (!bh.ok()) return bh.error();
  std::memcpy(bh.value()->bytes().data() +
                  (g % kGroupDescsPerBlock) * sizeof(GroupDesc),
              &groups_[g], sizeof(GroupDesc));
  bc.mark_dirty(bh.value());
  j_write(blk);
  bc.brelse(bh.value());
  return Err::Ok;
}

Err Ext4Mount::mount_init() {
  BSIM_TRY(read_super());
  BSIM_TRY(j_recover());
  // Commits write the journal area behind the cache: drop what recovery
  // read there.
  sb_->bufcache().invalidate(super_.jstart, super_.jblocks);
  auto root = iget(kRootInum);
  if (!root.ok()) return root.error();
  sb_->root = root.value();
  return Err::Ok;
}

std::uint64_t Ext4Mount::free_blocks_total() const {
  std::uint64_t total = 0;
  for (const auto& g : groups_) total += g.free_blocks;
  return total;
}

std::uint64_t Ext4Mount::free_inodes_total() const {
  std::uint64_t total = 0;
  for (const auto& g : groups_) total += g.free_inodes;
  return total;
}

// ---- inodes ----

std::uint32_t Ext4Mount::inode_block(std::uint32_t inum) const {
  const std::uint32_t g = inum / super_.inodes_per_group;
  const std::uint32_t within = inum % super_.inodes_per_group;
  return groups_[g].inode_table + within / kInodesPerBlock;
}

std::uint32_t Ext4Mount::group_of_inode(std::uint32_t inum) const {
  return inum / super_.inodes_per_group;
}

std::uint32_t Ext4Mount::group_of_block(std::uint32_t blockno) const {
  return (blockno - super_.first_group) / super_.blocks_per_group;
}

Result<kern::Inode*> Ext4Mount::iget(std::uint32_t inum) {
  if (inum == 0 || inum >= super_.ngroups * super_.inodes_per_group) {
    return Err::Stale;
  }
  if (kern::Inode* cached = sb_->iget_cached(inum)) return cached;

  auto& bc = sb_->bufcache();
  auto bh = bc.bread(inode_block(inum));
  if (!bh.ok()) return bh.error();
  const auto* di = reinterpret_cast<const Dinode*>(bh.value()->bytes().data());
  const Dinode d = di[inum % kInodesPerBlock];
  bc.brelse(bh.value());
  if (d.type == kFree) return Err::Stale;

  kern::Inode& inode = sb_->inew(inum);
  auto e = std::make_unique<EInode>();
  e->inum = inum;
  e->d = d;
  inode.fs_priv = e.release();
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

Err Ext4Mount::iupdate(kern::Inode& inode) {
  EInode* e = ei(inode);
  auto& bc = sb_->bufcache();
  auto bh = bc.bread(inode_block(e->inum));
  if (!bh.ok()) return bh.error();
  auto* di = reinterpret_cast<Dinode*>(bh.value()->bytes().data());
  di[e->inum % kInodesPerBlock] = e->d;
  bc.mark_dirty(bh.value());
  j_write(inode_block(e->inum));
  bc.brelse(bh.value());
  inode.nlink = e->d.nlink;
  return Err::Ok;
}

Result<std::uint32_t> Ext4Mount::ialloc(std::uint16_t type,
                                        std::uint32_t mode,
                                        std::uint32_t parent_group) {
  sim::ScopedLock guard(alloc_lock_);
  auto& bc = sb_->bufcache();
  // Orlov-ish: try the parent's group, then round robin.
  for (std::uint32_t step = 0; step < super_.ngroups; ++step) {
    const std::uint32_t g = (parent_group + step) % super_.ngroups;
    if (groups_[g].free_inodes == 0) continue;
    auto bh = bc.bread(groups_[g].inode_bitmap);
    if (!bh.ok()) return bh.error();
    auto bytes = bh.value()->bytes();
    sim::charge(400);  // bitmap word scan, constant-ish
    for (std::uint32_t i = 0; i < super_.inodes_per_group; ++i) {
      if ((bytes[i / 8] & (std::byte{1} << (i % 8))) != std::byte{0}) {
        continue;
      }
      bytes[i / 8] |= std::byte{1} << (i % 8);
      bc.mark_dirty(bh.value());
      j_write(groups_[g].inode_bitmap);
      bc.brelse(bh.value());
      groups_[g].free_inodes -= 1;
      BSIM_TRY(gdt_update(g));
      const std::uint32_t inum = g * super_.inodes_per_group + i;

      auto ib = bc.bread(inode_block(inum));
      if (!ib.ok()) return ib.error();
      auto* di = reinterpret_cast<Dinode*>(ib.value()->bytes().data());
      di[inum % kInodesPerBlock] = Dinode{};
      di[inum % kInodesPerBlock].type = type;
      di[inum % kInodesPerBlock].nlink = 1;
      di[inum % kInodesPerBlock].mode = mode;
      bc.mark_dirty(ib.value());
      j_write(inode_block(inum));
      bc.brelse(ib.value());
      return inum;
    }
    bc.brelse(bh.value());
  }
  return Err::NoSpc;
}

Err Ext4Mount::ifree(std::uint32_t inum) {
  sim::ScopedLock guard(alloc_lock_);
  auto& bc = sb_->bufcache();
  const std::uint32_t g = group_of_inode(inum);
  const std::uint32_t i = inum % super_.inodes_per_group;
  auto bh = bc.bread(groups_[g].inode_bitmap);
  if (!bh.ok()) return bh.error();
  bh.value()->bytes()[i / 8] &= ~(std::byte{1} << (i % 8));
  bc.mark_dirty(bh.value());
  j_write(groups_[g].inode_bitmap);
  bc.brelse(bh.value());
  groups_[g].free_inodes += 1;
  return gdt_update(g);
}

Result<std::uint32_t> Ext4Mount::balloc(std::uint32_t goal_group) {
  sim::ScopedLock guard(alloc_lock_);
  auto& bc = sb_->bufcache();
  for (std::uint32_t step = 0; step < super_.ngroups; ++step) {
    const std::uint32_t g = (goal_group + step) % super_.ngroups;
    GroupDesc& gd = groups_[g];
    if (gd.free_blocks == 0) continue;
    auto bh = bc.bread(gd.block_bitmap);
    if (!bh.ok()) return bh.error();
    auto bytes = bh.value()->bytes();
    sim::charge(400);
    const std::uint32_t base = super_.first_group + g * super_.blocks_per_group;
    const std::uint32_t first_data = gd.data_start - base;
    for (std::uint32_t i = first_data;
         i < first_data + gd.data_blocks; ++i) {
      if ((bytes[i / 8] & (std::byte{1} << (i % 8))) != std::byte{0}) {
        continue;
      }
      bytes[i / 8] |= std::byte{1} << (i % 8);
      bc.mark_dirty(bh.value());
      j_write(gd.block_bitmap);
      bc.brelse(bh.value());
      gd.free_blocks -= 1;
      BSIM_TRY(gdt_update(g));
      const std::uint32_t blockno = base + i;
      auto zb = bc.getblk(blockno);
      if (!zb.ok()) return zb.error();
      std::memset(zb.value()->bytes().data(), 0, kBlockSize);
      bc.mark_dirty(zb.value());
      j_write(blockno);
      bc.brelse(zb.value());
      return blockno;
    }
    bc.brelse(bh.value());
  }
  return Err::NoSpc;
}

Err Ext4Mount::bfree(std::uint32_t blockno) {
  sim::ScopedLock guard(alloc_lock_);
  auto& bc = sb_->bufcache();
  const std::uint32_t g = group_of_block(blockno);
  const std::uint32_t base = super_.first_group + g * super_.blocks_per_group;
  const std::uint32_t i = blockno - base;
  auto bh = bc.bread(groups_[g].block_bitmap);
  if (!bh.ok()) return bh.error();
  bh.value()->bytes()[i / 8] &= ~(std::byte{1} << (i % 8));
  bc.mark_dirty(bh.value());
  j_write(groups_[g].block_bitmap);
  bc.brelse(bh.value());
  groups_[g].free_blocks += 1;
  return gdt_update(g);
}

Result<std::uint32_t> Ext4Mount::bmap(kern::Inode& inode, std::uint64_t bn,
                                      bool alloc) {
  mstats_.bmap_calls += 1;
  EInode* e = ei(inode);
  auto& bc = sb_->bufcache();
  if (bn >= kMaxFileBlocks) return Err::FBig;
  const std::uint32_t goal = group_of_inode(e->inum) % super_.ngroups;

  if (bn < kNDirect) {
    std::uint32_t addr = e->d.addrs[bn];
    if (addr == 0 && alloc) {
      auto r = balloc(goal);
      if (!r.ok()) return r;
      addr = e->d.addrs[bn] = r.value();
    }
    return addr;
  }
  bn -= kNDirect;
  if (bn < kNIndirect) {
    if (e->d.indirect == 0) {
      if (!alloc) return std::uint32_t{0};
      auto r = balloc(goal);
      if (!r.ok()) return r;
      e->d.indirect = r.value();
    }
    auto bh = bc.bread(e->d.indirect);
    if (!bh.ok()) return bh.error();
    auto* ent = reinterpret_cast<std::uint32_t*>(bh.value()->bytes().data());
    std::uint32_t addr = ent[bn];
    if (addr == 0 && alloc) {
      auto r = balloc(goal);
      if (!r.ok()) {
        bc.brelse(bh.value());
        return r;
      }
      addr = ent[bn] = r.value();
      bc.mark_dirty(bh.value());
      j_write(e->d.indirect);
    }
    bc.brelse(bh.value());
    return addr;
  }
  bn -= kNIndirect;
  if (e->d.dindirect == 0) {
    if (!alloc) return std::uint32_t{0};
    auto r = balloc(goal);
    if (!r.ok()) return r;
    e->d.dindirect = r.value();
  }
  const std::uint64_t outer = bn / kNIndirect;
  const std::uint64_t inner = bn % kNIndirect;
  auto l1 = bc.bread(e->d.dindirect);
  if (!l1.ok()) return l1.error();
  auto* l1e = reinterpret_cast<std::uint32_t*>(l1.value()->bytes().data());
  std::uint32_t mid = l1e[outer];
  if (mid == 0) {
    if (!alloc) {
      bc.brelse(l1.value());
      return std::uint32_t{0};
    }
    auto r = balloc(goal);
    if (!r.ok()) {
      bc.brelse(l1.value());
      return r;
    }
    mid = l1e[outer] = r.value();
    bc.mark_dirty(l1.value());
    j_write(e->d.dindirect);
  }
  bc.brelse(l1.value());
  auto l2 = bc.bread(mid);
  if (!l2.ok()) return l2.error();
  auto* l2e = reinterpret_cast<std::uint32_t*>(l2.value()->bytes().data());
  std::uint32_t addr = l2e[inner];
  if (addr == 0 && alloc) {
    auto r = balloc(goal);
    if (!r.ok()) {
      bc.brelse(l2.value());
      return r;
    }
    addr = l2e[inner] = r.value();
    bc.mark_dirty(l2.value());
    j_write(mid);
  }
  bc.brelse(l2.value());
  return addr;
}

Err Ext4Mount::itrunc(kern::Inode& inode, std::uint64_t new_size) {
  EInode* e = ei(inode);
  auto& bc = sb_->bufcache();
  const std::uint64_t keep = (new_size + kBlockSize - 1) / kBlockSize;

  for (std::uint64_t bn = keep; bn < kNDirect; ++bn) {
    if (e->d.addrs[bn] != 0) {
      BSIM_TRY(bfree(e->d.addrs[bn]));
      e->d.addrs[bn] = 0;
    }
  }
  if (e->d.indirect != 0) {
    const std::uint64_t keep_ind = keep > kNDirect ? keep - kNDirect : 0;
    auto bh = bc.bread(e->d.indirect);
    if (!bh.ok()) return bh.error();
    auto* ent = reinterpret_cast<std::uint32_t*>(bh.value()->bytes().data());
    bool touched = false;
    for (std::uint64_t i = keep_ind; i < kNIndirect; ++i) {
      if (ent[i] != 0) {
        BSIM_TRY(bfree(ent[i]));
        ent[i] = 0;
        touched = true;
      }
    }
    if (touched) {
      bc.mark_dirty(bh.value());
      j_write(e->d.indirect);
    }
    bc.brelse(bh.value());
    if (keep_ind == 0) {
      BSIM_TRY(bfree(e->d.indirect));
      e->d.indirect = 0;
    }
  }
  if (e->d.dindirect != 0) {
    const std::uint64_t base = kNDirect + kNIndirect;
    const std::uint64_t keep_d = keep > base ? keep - base : 0;
    auto l1 = bc.bread(e->d.dindirect);
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
        j_write(l1e[outer]);
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
      j_write(e->d.dindirect);
    }
    bc.brelse(l1.value());
    if (keep_d == 0) {
      BSIM_TRY(bfree(e->d.dindirect));
      e->d.dindirect = 0;
    }
  }
  e->d.size = new_size;
  BSIM_TRY(iupdate(inode));
  return Err::Ok;
}

// ---- directories (in-memory hash index, htree stand-in) ----

Result<Ext4Mount::DirIndex*> Ext4Mount::dir_index(kern::Inode& dir) {
  EInode* e = ei(dir);
  DirIndex& idx = dir_indexes_[e->inum];
  if (idx.built) {
    sim::charge(250);  // hashed lookup path (htree equivalent)
    return &idx;
  }
  auto& bc = sb_->bufcache();
  for (std::uint64_t off = 0; off < e->d.size; off += kBlockSize) {
    auto addr = bmap(dir, off / kBlockSize, false);
    if (!addr.ok()) return addr.error();
    if (addr.value() == 0) continue;
    auto bh = bc.bread(addr.value());
    if (!bh.ok()) return bh.error();
    const auto* de = reinterpret_cast<const Dirent*>(bh.value()->bytes().data());
    const std::uint64_t nents = std::min<std::uint64_t>(
        kDirentsPerBlock,
        (e->d.size - off + sizeof(Dirent) - 1) / sizeof(Dirent));
    for (std::uint64_t i = 0; i < nents; ++i) {
      sim::charge(sim::costs().dir_scan_per_entry);
      if (de[i].inum == 0) continue;
      idx.entries.emplace(
          std::string(de[i].name, strnlen(de[i].name, kDirNameLen)),
          de[i].inum);
    }
    bc.brelse(bh.value());
  }
  idx.built = true;
  return &idx;
}

Result<std::uint32_t> Ext4Mount::dir_lookup(kern::Inode& dir,
                                            std::string_view name) {
  if (ei(dir)->d.type != kDir) return Err::NotDir;
  auto idx = dir_index(dir);
  if (!idx.ok()) return idx.error();
  auto it = idx.value()->entries.find(std::string(name));
  if (it == idx.value()->entries.end()) return Err::NoEnt;
  return it->second;
}

Err Ext4Mount::write_through_journal(kern::Inode& inode, std::uint64_t off,
                                     std::span<const std::byte> in) {
  EInode* e = ei(inode);
  auto& bc = sb_->bufcache();
  std::uint64_t done = 0;
  while (done < in.size()) {
    const std::uint64_t pos = off + done;
    const std::uint64_t bn = pos / kBlockSize;
    const std::size_t within = static_cast<std::size_t>(pos % kBlockSize);
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize - within, in.size() - done));
    auto addr = bmap(inode, bn, true);
    if (!addr.ok()) return addr.error();
    // Full-block overwrite skips the read-modify-write (the
    // block_write_begin full-page shortcut).
    auto bh = chunk == kBlockSize ? bc.getblk(addr.value())
                                  : bc.bread(addr.value());
    if (!bh.ok()) return bh.error();
    std::memcpy(bh.value()->bytes().data() + within, in.data() + done, chunk);
    bc.mark_dirty(bh.value());
    j_write(addr.value());  // data=journal
    bc.brelse(bh.value());
    done += chunk;
  }
  if (off + done > e->d.size) e->d.size = off + done;
  BSIM_TRY(iupdate(inode));
  if (jnl_.size() >= blk::commit_threshold(kTxnCommitThreshold,
                                           sb_->bdev().stripe_width_blocks())) {
    sim::ScopedLock guard(journal_lock_);
    BSIM_TRY(j_commit());
  }
  return Err::Ok;
}

Err Ext4Mount::dir_link(kern::Inode& dir, std::string_view name,
                        std::uint32_t inum) {
  if (name.size() >= kDirNameLen) return Err::NameTooLong;
  auto idxr = dir_index(dir);
  if (!idxr.ok()) return idxr.error();
  EInode* e = ei(dir);
  // Append a fresh slot (slot reuse would need a free list; growth by
  // append matches ext2 behaviour closely enough for the benchmarks).
  Dirent de;
  de.inum = inum;
  std::memset(de.name, 0, kDirNameLen);
  std::memcpy(de.name, name.data(), name.size());
  BSIM_TRY(write_through_journal(
      dir, e->d.size,
      {reinterpret_cast<const std::byte*>(&de), sizeof(de)}));
  idxr.value()->entries.emplace(std::string(name), inum);
  return Err::Ok;
}

Err Ext4Mount::dir_unlink(kern::Inode& dir, std::string_view name) {
  auto idxr = dir_index(dir);
  if (!idxr.ok()) return idxr.error();
  auto it = idxr.value()->entries.find(std::string(name));
  if (it == idxr.value()->entries.end()) return Err::NoEnt;

  // Find and zero the on-disk slot.
  EInode* e = ei(dir);
  auto& bc = sb_->bufcache();
  for (std::uint64_t off = 0; off < e->d.size; off += kBlockSize) {
    auto addr = bmap(dir, off / kBlockSize, false);
    if (!addr.ok()) return addr.error();
    if (addr.value() == 0) continue;
    auto bh = bc.bread(addr.value());
    if (!bh.ok()) return bh.error();
    auto* de = reinterpret_cast<Dirent*>(bh.value()->bytes().data());
    const std::uint64_t nents = std::min<std::uint64_t>(
        kDirentsPerBlock,
        (e->d.size - off + sizeof(Dirent) - 1) / sizeof(Dirent));
    bool found = false;
    for (std::uint64_t i = 0; i < nents; ++i) {
      if (de[i].inum != 0 &&
          name == std::string_view(de[i].name,
                                   strnlen(de[i].name, kDirNameLen))) {
        de[i] = Dirent{};
        bc.mark_dirty(bh.value());
        j_write(addr.value());
        found = true;
        break;
      }
    }
    bc.brelse(bh.value());
    if (found) {
      idxr.value()->entries.erase(it);
      return Err::Ok;
    }
  }
  return Err::NoEnt;
}

// ---- InodeOps ----

Result<kern::Inode*> Ext4Mount::lookup(kern::Inode& dir,
                                       std::string_view name) {
  sim::charge(sim::costs().fs_op_base);
  auto inum = dir_lookup(dir, name);
  if (!inum.ok()) return inum.error();
  return iget(inum.value());
}

Result<kern::Inode*> Ext4Mount::create(kern::Inode& dir,
                                       std::string_view name,
                                       std::uint32_t mode) {
  sim::charge(sim::costs().fs_op_base);
  auto existing = dir_lookup(dir, name);
  if (existing.ok()) return Err::Exist;
  if (existing.error() != Err::NoEnt) return existing.error();
  auto inum = ialloc(kFile, mode, group_of_inode(ei(dir)->inum));
  if (!inum.ok()) return inum.error();
  BSIM_TRY(dir_link(dir, name, inum.value()));
  return iget(inum.value());
}

Result<kern::Inode*> Ext4Mount::mkdir(kern::Inode& dir, std::string_view name,
                                      std::uint32_t mode) {
  sim::charge(sim::costs().fs_op_base);
  auto existing = dir_lookup(dir, name);
  if (existing.ok()) return Err::Exist;
  if (existing.error() != Err::NoEnt) return existing.error();
  auto inum = ialloc(kDir, mode, group_of_inode(ei(dir)->inum));
  if (!inum.ok()) return inum.error();
  auto child = iget(inum.value());
  if (!child.ok()) return child.error();
  ei(*child.value())->d.nlink = 2;
  BSIM_TRY(dir_link(*child.value(), ".", inum.value()));
  BSIM_TRY(dir_link(*child.value(), "..", ei(dir)->inum));
  BSIM_TRY(dir_link(dir, name, inum.value()));
  ei(dir)->d.nlink += 1;
  BSIM_TRY(iupdate(dir));
  BSIM_TRY(iupdate(*child.value()));
  return child.value();
}

Err Ext4Mount::unlink(kern::Inode& dir, std::string_view name) {
  sim::charge(sim::costs().fs_op_base);
  auto inum = dir_lookup(dir, name);
  if (!inum.ok()) return inum.error();
  auto child = iget(inum.value());
  if (!child.ok()) return child.error();
  EInode* c = ei(*child.value());
  Err e = Err::Ok;
  if (c->d.type == kDir) {
    e = Err::IsDir;
  } else {
    e = dir_unlink(dir, name);
    if (e == Err::Ok) {
      c->d.nlink -= 1;
      e = iupdate(*child.value());
    }
  }
  sb_->iput(child.value());
  return e;
}

Err Ext4Mount::rmdir(kern::Inode& dir, std::string_view name) {
  sim::charge(sim::costs().fs_op_base);
  if (name == "." || name == "..") return Err::Inval;
  auto inum = dir_lookup(dir, name);
  if (!inum.ok()) return inum.error();
  auto child = iget(inum.value());
  if (!child.ok()) return child.error();
  EInode* c = ei(*child.value());
  Err e = Err::Ok;
  if (c->d.type != kDir) {
    e = Err::NotDir;
  } else {
    auto idx = dir_index(*child.value());
    if (!idx.ok()) {
      e = idx.error();
    } else {
      bool empty = true;
      for (const auto& [n, ino] : idx.value()->entries) {
        if (n != "." && n != "..") {
          empty = false;
          break;
        }
      }
      if (!empty) e = Err::NotEmpty;
    }
  }
  if (e == Err::Ok) e = dir_unlink(dir, name);
  if (e == Err::Ok) {
    c->d.nlink = 0;
    e = iupdate(*child.value());
    ei(dir)->d.nlink -= 1;
    if (e == Err::Ok) e = iupdate(dir);
  }
  sb_->iput(child.value());
  return e;
}

Err Ext4Mount::rename(kern::Inode& old_dir, std::string_view old_name,
                      kern::Inode& new_dir, std::string_view new_name) {
  sim::charge(sim::costs().fs_op_base);
  auto inum = dir_lookup(old_dir, old_name);
  if (!inum.ok()) return inum.error();
  auto moved = iget(inum.value());
  if (!moved.ok()) return moved.error();
  const bool moved_is_dir = ei(*moved.value())->d.type == kDir;

  auto target = dir_lookup(new_dir, new_name);
  if (target.ok() && target.value() != inum.value()) {
    auto victim = iget(target.value());
    if (!victim.ok()) {
      sb_->iput(moved.value());
      return victim.error();
    }
    EInode* v = ei(*victim.value());
    Err e = Err::Ok;
    if (v->d.type == kDir) {
      auto idx = dir_index(*victim.value());
      if (!idx.ok()) e = idx.error();
      else {
        for (const auto& [n, ino] : idx.value()->entries) {
          if (n != "." && n != "..") {
            e = Err::NotEmpty;
            break;
          }
        }
      }
      if (e == Err::Ok && !moved_is_dir) e = Err::IsDir;
    } else if (moved_is_dir) {
      e = Err::NotDir;
    }
    if (e == Err::Ok) e = dir_unlink(new_dir, new_name);
    if (e == Err::Ok) {
      v->d.nlink = v->d.type == kDir ? 0 : v->d.nlink - 1;
      e = iupdate(*victim.value());
      if (e == Err::Ok && v->d.type == kDir) {
        ei(new_dir)->d.nlink -= 1;
        e = iupdate(new_dir);
      }
    }
    sb_->iput(victim.value());
    if (e != Err::Ok) {
      sb_->iput(moved.value());
      return e;
    }
  }

  Err e = dir_unlink(old_dir, old_name);
  if (e == Err::Ok) e = dir_link(new_dir, new_name, inum.value());
  if (e == Err::Ok && moved_is_dir && &old_dir != &new_dir) {
    e = dir_unlink(*moved.value(), "..");
    if (e == Err::Ok) e = dir_link(*moved.value(), "..", ei(new_dir)->inum);
    if (e == Err::Ok) {
      ei(old_dir)->d.nlink -= 1;
      ei(new_dir)->d.nlink += 1;
      e = iupdate(old_dir);
      if (e == Err::Ok) e = iupdate(new_dir);
    }
  }
  sb_->iput(moved.value());
  return e;
}

Err Ext4Mount::zero_block_tail(kern::Inode& inode, std::uint64_t from) {
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
  j_write(addr.value());
  bc.brelse(bh.value());
  return Err::Ok;
}

Err Ext4Mount::setattr(kern::Inode& inode, const kern::SetAttr& attr) {
  sim::charge(sim::costs().fs_op_base);
  EInode* e = ei(inode);
  if (attr.set_size && attr.size < e->d.size) {
    kern::generic_truncate_pagecache(inode, attr.size);
    BSIM_TRY(itrunc(inode, attr.size));
    BSIM_TRY(zero_block_tail(inode, attr.size));
  }
  if (attr.set_size && attr.size >= e->d.size) {
    BSIM_TRY(zero_block_tail(inode, e->d.size));
    e->d.size = attr.size;
  }
  if (attr.set_mode) {
    e->d.mode = attr.mode;
    inode.mode = attr.mode;
  }
  BSIM_TRY(iupdate(inode));
  inode.size = e->d.size;
  return Err::Ok;
}

// ---- FileOps ----

Result<std::uint64_t> Ext4Mount::read(kern::Inode& inode, kern::FileHandle&,
                                      std::uint64_t off,
                                      std::span<std::byte> out) {
  return kern::generic_file_read(inode, off, out);
}

Result<std::uint64_t> Ext4Mount::write(kern::Inode& inode, kern::FileHandle&,
                                       std::uint64_t off,
                                       std::span<const std::byte> in) {
  return kern::generic_file_write(inode, off, in);
}

Err Ext4Mount::fsync(kern::Inode& inode, kern::FileHandle&, bool) {
  BSIM_TRY(kern::generic_writeback(inode));
  return j_sync();
}

Err Ext4Mount::flush(kern::Inode& inode, kern::FileHandle&) {
  return kern::generic_writeback(inode);
}

Err Ext4Mount::readdir(kern::Inode& inode, std::uint64_t& pos,
                       const kern::DirFiller& fill) {
  sim::charge(sim::costs().fs_op_base);
  EInode* e = ei(inode);
  auto& bc = sb_->bufcache();
  if (e->d.type != kDir) return Err::NotDir;
  while (pos + sizeof(Dirent) <= e->d.size) {
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

Err Ext4Mount::sync_fs(kern::SuperBlock&, bool) { return j_sync(); }

Err Ext4Mount::statfs(kern::SuperBlock&, kern::StatFs& out) {
  out.total_blocks = 0;
  for (const auto& g : groups_) out.total_blocks += g.data_blocks;
  out.free_blocks = free_blocks_total();
  out.total_inodes =
      static_cast<std::uint64_t>(super_.ngroups) * super_.inodes_per_group;
  out.free_inodes = free_inodes_total();
  out.block_size = kBlockSize;
  out.fs_name = "ext4j";
  return Err::Ok;
}

void Ext4Mount::put_super(kern::SuperBlock&) { (void)j_sync(); }

Ext4Mount::~Ext4Mount() {
  sb_->for_each_inode([](kern::Inode& inode) {
    delete ei(inode);
    inode.fs_priv = nullptr;
  });
}

void Ext4Mount::evict_inode(kern::Inode& inode) {
  inode.mapping.drop_all();
  EInode* e = ei(inode);
  if (e == nullptr) return;
  if (e->d.nlink == 0) {
    (void)itrunc(inode, 0);
    auto& bc = sb_->bufcache();
    auto bh = bc.bread(inode_block(e->inum));
    if (bh.ok()) {
      auto* di = reinterpret_cast<Dinode*>(bh.value()->bytes().data());
      di[e->inum % kInodesPerBlock] = Dinode{};
      bc.mark_dirty(bh.value());
      j_write(inode_block(e->inum));
      bc.brelse(bh.value());
    }
    (void)ifree(e->inum);
    dir_indexes_.erase(e->inum);
  }
  delete e;
  inode.fs_priv = nullptr;
}

// ---- AddressSpaceOps ----

Err Ext4Mount::readpage(kern::Inode& inode, std::uint64_t pgoff,
                        std::span<std::byte> out) {
  EInode* e = ei(inode);
  auto& bc = sb_->bufcache();
  const std::uint64_t off = pgoff * kern::kPageSize;
  std::uint64_t done = 0;
  while (done < out.size() && off + done < e->d.size) {
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
  if (done < out.size()) std::memset(out.data() + done, 0, out.size() - done);
  return Err::Ok;
}

Err Ext4Mount::map_run(kern::Inode& inode, std::uint64_t bn,
                       std::size_t count, std::vector<std::uint32_t>& out) {
  EInode* e = ei(inode);
  auto& bc = sb_->bufcache();
  mstats_.map_runs += 1;
  mstats_.map_run_blocks += count;
  out.reserve(out.size() + count);
  std::uint64_t cur = bn;
  const std::uint64_t end = bn + count;
  if (end > kMaxFileBlocks) return Err::FBig;

  // Direct slots: straight off the in-core inode, no device access.
  while (cur < end && cur < kNDirect) {
    out.push_back(e->d.addrs[cur]);
    cur += 1;
  }

  // Single-indirect overlap: ONE bread covers every entry in the run.
  if (cur < end && cur - kNDirect < kNIndirect) {
    const std::uint64_t first = cur - kNDirect;
    const std::uint64_t stop = std::min<std::uint64_t>(end - kNDirect,
                                                       kNIndirect);
    if (e->d.indirect == 0) {
      for (std::uint64_t i = first; i < stop; ++i) out.push_back(0);
    } else {
      auto bh = bc.bread(e->d.indirect);
      if (!bh.ok()) return bh.error();
      mstats_.map_indirect_reads += 1;
      const auto* ent =
          reinterpret_cast<const std::uint32_t*>(bh.value()->bytes().data());
      for (std::uint64_t i = first; i < stop; ++i) out.push_back(ent[i]);
      bc.brelse(bh.value());
    }
    cur = kNDirect + stop;
  }

  // Double-indirect overlap: one L1 bread per run, one L2 bread per leaf
  // block the run touches (each leaf maps kNIndirect consecutive blocks).
  if (cur < end) {
    if (e->d.dindirect == 0) {
      for (; cur < end; ++cur) out.push_back(0);
      return Err::Ok;
    }
    auto l1 = bc.bread(e->d.dindirect);
    if (!l1.ok()) return l1.error();
    mstats_.map_indirect_reads += 1;
    // Copy the L1 entries we need, then release before leaf reads.
    std::vector<std::uint32_t> l1_entries(
        reinterpret_cast<const std::uint32_t*>(l1.value()->bytes().data()),
        reinterpret_cast<const std::uint32_t*>(l1.value()->bytes().data()) +
            kNIndirect);
    bc.brelse(l1.value());
    while (cur < end) {
      const std::uint64_t dbn = cur - kNDirect - kNIndirect;
      const std::uint64_t outer = dbn / kNIndirect;
      const std::uint64_t inner = dbn % kNIndirect;
      const std::uint64_t leaf_stop = std::min<std::uint64_t>(
          end, cur + (kNIndirect - inner));
      const std::uint32_t mid = l1_entries[outer];
      if (mid == 0) {
        for (; cur < leaf_stop; ++cur) out.push_back(0);
        continue;
      }
      auto l2 = bc.bread(mid);
      if (!l2.ok()) return l2.error();
      mstats_.map_indirect_reads += 1;
      const auto* ent =
          reinterpret_cast<const std::uint32_t*>(l2.value()->bytes().data());
      for (std::uint64_t i = inner; cur < leaf_stop; ++cur, ++i) {
        out.push_back(ent[i]);
      }
      bc.brelse(l2.value());
    }
  }
  return Err::Ok;
}

Err Ext4Mount::readpages(kern::Inode& inode, std::uint64_t first_pgoff,
                         std::span<const std::span<std::byte>> pages) {
  // Resolve the whole run's mapping in ONE map_run pass (each indirect
  // block read once, not once per page), fetch the mapped blocks in one
  // batched submission (extent-adjacent blocks merge into multi-block
  // bios), and copy straight out of the pinned batch handles.
  static_assert(kern::kPageSize == kBlockSize,
                "readpages maps one block per page");
  mstats_.readpages_calls += 1;
  EInode* e = ei(inode);
  auto& bc = sb_->bufcache();
  std::size_t within_size = 0;  // pages of the run below EOF
  while (within_size < pages.size() &&
         (first_pgoff + within_size) * kern::kPageSize < e->d.size) {
    within_size += 1;
  }
  std::vector<std::uint32_t> mapped;  // one entry per page, 0 = hole
  BSIM_TRY(map_run(inode, first_pgoff, within_size, mapped));
  std::vector<std::uint64_t> addrs;            // mapped blocks, run order
  std::vector<std::size_t> page_slot(pages.size(), SIZE_MAX);  // -> addrs idx
  for (std::size_t i = 0; i < within_size; ++i) {
    if (mapped[i] != 0) {
      page_slot[i] = addrs.size();
      addrs.push_back(mapped[i]);
    }
  }
  std::vector<kern::BufferHead*> batch;
  if (!addrs.empty()) {
    auto r = bc.bread_batch(addrs);
    if (!r.ok()) return r.error();
    batch = std::move(r.value());
  }
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const std::uint64_t off = (first_pgoff + i) * kern::kPageSize;
    if (off >= e->d.size || page_slot[i] == SIZE_MAX) {
      std::fill(pages[i].begin(), pages[i].end(), std::byte{0});
      continue;
    }
    const std::size_t chunk = static_cast<std::size_t>(std::min<std::uint64_t>(
        pages[i].size(), e->d.size - off));
    std::memcpy(pages[i].data(), batch[page_slot[i]]->bytes().data(), chunk);
    if (chunk < pages[i].size()) {
      std::fill(pages[i].begin() + static_cast<std::ptrdiff_t>(chunk),
                pages[i].end(), std::byte{0});
    }
  }
  for (auto* bh : batch) bc.brelse(bh);
  return Err::Ok;
}

Err Ext4Mount::writepage(kern::Inode& inode, std::uint64_t pgoff,
                         std::span<const std::byte> in) {
  const std::uint64_t off = pgoff * kern::kPageSize;
  const std::uint64_t len = std::min<std::uint64_t>(
      kern::kPageSize, inode.size > off ? inode.size - off : 0);
  if (len == 0) return Err::Ok;
  return write_through_journal(inode, off,
                               in.subspan(0, static_cast<std::size_t>(len)));
}

Err Ext4Mount::writepages(kern::Inode& inode,
                          std::span<const kern::PageRun> runs,
                          std::size_t& completed_runs) {
  completed_runs = 0;
  for (const auto& run : runs) {
    std::uint64_t pos = run.first_pgoff * kern::kPageSize;
    for (const kern::Page* page : run.pages) {
      const std::uint64_t len = std::min<std::uint64_t>(
          kern::kPageSize, inode.size > pos ? inode.size - pos : 0);
      if (len == 0) break;
      BSIM_TRY(write_through_journal(
          inode, pos, page->bytes().subspan(0, static_cast<std::size_t>(len))));
      pos += len;
    }
    completed_runs += 1;
  }
  return Err::Ok;
}

// ---- registration ----

namespace {

kern::Result<std::unique_ptr<kern::SuperOps>> fill_super(
    kern::SuperBlock& sb, const blk::MountOpts& opts) {
  auto mnt = std::make_unique<Ext4Mount>(sb, opts);
  BSIM_TRY(mnt->mount_init());
  Ext4Mount* m = mnt.get();
  sb.register_stats("ext4", [m](sim::JsonWriter& w) {
    const JournalStats& js = m->journal_stats();
    w.begin_object();
    w.field("struct", "JournalStats");
    w.field("commits", js.commits);
    w.field("blocks_journaled", js.blocks_journaled);
    w.field("recoveries", js.recoveries);
    w.field("pipelined_commits", js.pipelined_commits);
    w.field("empty_commits_skipped", js.empty_commits_skipped);
    w.field("slot_waits", js.slot_waits);
    w.field("slot_wait_ns", js.slot_wait_ns);
    w.field("jbd_aborted", js.jbd_aborted);
    sim::dump_histogram(w, "jwrite_lat", js.write_lat);
    sim::dump_histogram(w, "record_lat", js.record_lat);
    sim::dump_histogram(w, "checkpoint_lat", js.checkpoint_lat);
    w.end_object();
    const MapStats& ms = m->map_stats();
    w.begin_object();
    w.field("struct", "MapStats");
    w.field("bmap_calls", ms.bmap_calls);
    w.field("map_runs", ms.map_runs);
    w.field("map_run_blocks", ms.map_run_blocks);
    w.field("map_indirect_reads", ms.map_indirect_reads);
    w.field("readpages_calls", ms.readpages_calls);
    w.end_object();
  });
  return std::unique_ptr<kern::SuperOps>(std::move(mnt));
}

}  // namespace

void register_ext4(kern::Kernel& kernel, std::string name) {
  kernel.register_fs(std::move(name), fill_super);
}

}  // namespace bsim::ext4
