#include "xv6fs/log.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace bsim::xv6 {

using bento::BufferHeadHandle;
using bento::SuperBlockCap;
using kern::Err;

namespace {

/// Write `handles` back as one async batch.
blk::Ticket submit(SuperBlockCap& sb, std::vector<BufferHeadHandle>& handles) {
  std::vector<BufferHeadHandle*> batch;
  batch.reserve(handles.size());
  for (auto& h : handles) batch.push_back(&h);
  return sb.sync_batch_async(batch);
}

}  // namespace

Err Log::init(SuperBlockCap& sb, const DiskSuperblock& dsb,
              Durability durability, const blk::MountOpts& opts) {
  logstart_ = dsb.logstart;
  durability_ = durability;
  jnl_.reset(opts);
  held_.clear();

  // Crash recovery: a non-empty header means a committed-but-uninstalled
  // transaction; replay it (synchronously — nothing to overlap with).
  LogHeader header;
  BSIM_TRY(read_header(sb, header));
  if (header.n > 0) {
    stats_.recoveries += 1;
    auto home = replay(sb, header);
    if (!home.ok()) return home.error();
    // Commits write the log area behind the cache: drop what replay read.
    sb.invalidate(logstart_ + 1, header.n);
    if (durability_ == Durability::Strict) sb.flush_all();
    sb.wait(home.value());
    // A failed home write keeps the header on media: the mount fails and
    // the next one replays again (jbd2's "recovery failed").
    if (home.value().failed) return Err::Io;
    auto clear = write_header(sb, LogHeader{});
    if (!clear.ok()) return clear.error();
    sb.wait(clear.value());
    // A failed clear fails the mount too: the header must not outlive
    // the mount's first commit, whose log run would overwrite what it
    // replays.
    if (clear.value().failed) return Err::Io;
    if (durability_ == Durability::Strict) {
      sb.flush_all();
    } else {
      // Replayed state sits in the volatile device cache; make sure the
      // first fsync does not skip its barrier.
      jnl_.mark_dirty();
    }
  }
  return Err::Ok;
}

void Log::adopt(const Snapshot& snap, const blk::MountOpts& opts) {
  logstart_ = snap.logstart;
  durability_ = snap.durability;
  stats_ = snap.stats;
  jnl_.reset(opts);
  held_.clear();
}

void Log::begin_op(SuperBlockCap& sb, std::uint32_t reserved) {
  assert(reserved <= kMaxOpBlocks);
  (void)reserved;
  jnl_.begin_op(io(sb), [&] { return commit(sb); });
}

void Log::log_write(const BufferHeadHandle& bh) {
  assert(jnl_.in_op() && "log_write outside a transaction");
  if (jnl_.tag(static_cast<std::uint32_t>(bh.blockno()))) {
    assert(jnl_.size() <= kLogSize && "transaction overflows the log");
    if (!jnl_.aborted()) held_.push_back(bh.dup());
  }
}

Err Log::end_op(SuperBlockCap& sb) {
  return jnl_.end_op(sb.stripe_width(), [&] { return commit(sb); });
}

Err Log::force_commit(SuperBlockCap& sb) {
  return jnl_.force(io(sb), [&] { return commit(sb); });
}

Err Log::commit(SuperBlockCap& sb) {
  if (jnl_.aborted()) return Err::Io;
  if (jnl_.empty()) return Err::Ok;
  assert(held_.size() == jnl_.size());
  const LogIo io = this->io(sb);
  const std::uint64_t txn = jnl_.txn();
  jnl_.begin_commit(io, txn);
  const std::vector<std::uint32_t>& pending = jnl_.blocks();
  const auto n = static_cast<std::uint32_t>(pending.size());
  std::vector<BufferHeadHandle*> bufs;
  bufs.reserve(n);
  for (BufferHeadHandle& bh : held_) bufs.push_back(&bh);

  std::vector<blk::Ticket> tickets;
  auto fail = [&](Err e) {
    jnl_.redeem(io, tickets);
    return e;
  };
  // A failed journal write aborts the journal, which drops the running
  // transaction and the references to its buffers (they stay dirty).
  auto stage = [&](blk::TraceEv ev, std::uint32_t nblocks,
                   const blk::Ticket& t) {
    if (jnl_.stage(io, ev, txn, nblocks, tickets, t)) return true;
    held_.clear();
    return false;
  };

  // 1. Write the held buffers into the log area as ONE async batch: the
  //    log area is contiguous, so the request queue merges it into a
  //    single multi-block device command.
  if (!stage(blk::TraceEv::JLogWrite, n,
             sb.write_run(logstart_ + 1, bufs))) {
    return Err::Io;  // aborted: the commit record is never issued
  }
  if (durability_ == Durability::Strict) sb.flush_all();

  // 2. Commit point: write the header naming the logged blocks. Submitted
  //    after the log run (media order is submission order). If it fails
  //    the journal aborts BEFORE installing: home locations written with
  //    no durable commit record would be uncommitted state on media.
  LogHeader header;
  header.n = n;
  std::copy(pending.begin(), pending.end(), header.blocks);
  {
    auto rec = write_header(sb, header);
    if (!rec.ok()) return fail(rec.error());
    if (!stage(blk::TraceEv::JCommitRecord, 1, rec.value())) return Err::Io;
  }
  if (durability_ == Durability::Strict) sb.flush_all();

  // 3. Install the held buffers to their home locations as ONE async
  //    batch. Home locations are scattered, so the install typically
  //    stays several requests, spread across the device's channels.
  for (BufferHeadHandle* bh : bufs) bh->set_dirty();
  jnl_.stage(io, blk::TraceEv::JCheckpoint, txn, n, tickets,
             sb.sync_batch_async(bufs));
  if (durability_ == Durability::Strict) sb.flush_all();

  // 4. Clear the header as its own batch, submitted after the install:
  //    media order is submission order, so a device that dies partway
  //    through the install still holds the header, and recovery replays
  //    the whole transaction. In the install's batch the elevator would
  //    sort the clear (the lowest block) ahead of the home writes. A
  //    failed clear aborts the journal (Journal::cleared).
  {
    auto clear = write_header(sb, LogHeader{});
    if (!clear.ok()) return fail(clear.error());
    if (!jnl_.cleared(io, tickets, clear.value())) {
      held_.clear();
      return Err::Io;
    }
  }
  if (durability_ == Durability::Strict) sb.flush_all();

  stats_.commits += 1;
  stats_.blocks_logged += n;
  jnl_.close();
  held_.clear();
  jnl_.retire(io, std::move(tickets));
  return Err::Ok;
}

kern::Result<blk::Ticket> Log::replay(SuperBlockCap& sb,
                                      const LogHeader& header) {
  // The log-area reads are one contiguous batched run.
  std::vector<std::uint64_t> logged;
  logged.reserve(header.n);
  for (std::uint32_t i = 0; i < header.n; ++i) {
    logged.push_back(logstart_ + 1 + i);
  }
  auto srcs = sb.bread_batch(logged);
  if (!srcs.ok()) return srcs.error();
  std::vector<BufferHeadHandle> dsts;
  dsts.reserve(header.n);
  for (std::uint32_t i = 0; i < header.n; ++i) {
    auto dst = sb.getblk(header.blocks[i]);
    if (!dst.ok()) return dst.error();
    std::memcpy(dst.value().data().data(), srcs.value()[i].data().data(),
                kBlockSize);
    dst.value().set_dirty();
    dsts.push_back(std::move(dst.value()));
  }
  return submit(sb, dsts);
}

kern::Result<blk::Ticket> Log::write_header(SuperBlockCap& sb,
                                            const LogHeader& header) {
  auto bh = sb.getblk(logstart_);
  if (!bh.ok()) return bh.error();
  std::memcpy(bh.value().data().data(), &header, sizeof(header));
  bh.value().set_dirty();
  std::vector<BufferHeadHandle> one;
  one.push_back(std::move(bh.value()));
  return submit(sb, one);
}

Err Log::read_header(SuperBlockCap& sb, LogHeader& out) {
  auto bh = sb.bread(logstart_);
  if (!bh.ok()) return bh.error();
  std::memcpy(&out, bh.value().data().data(), sizeof(out));
  return Err::Ok;
}

}  // namespace bsim::xv6
