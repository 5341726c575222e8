#include "xv6fs/log.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "sim/thread.h"

namespace bsim::xv6 {

using bento::BufferHeadHandle;
using bento::SuperBlockCap;
using bento::WriteTicket;
using kern::Err;

Err Log::init(SuperBlockCap& sb, const DiskSuperblock& dsb,
              Durability durability, LogParams params) {
  dsb_ = dsb;
  durability_ = durability;
  params_ = params;
  pending_.clear();
  inflight_.clear();
  outstanding_ = 0;
  ops_in_batch_ = 0;
  commits_since_flush_ = 0;

  // Crash recovery: a non-empty header means a committed-but-uninstalled
  // transaction; replay it (synchronously — nothing to overlap with).
  LogHeader header;
  BSIM_TRY(read_header(sb, header));
  if (header.n > 0) {
    stats_.recoveries += 1;
    BSIM_TRY(install(sb, header, /*recovering=*/true));
    header = LogHeader{};
    BSIM_TRY(write_header(sb, header));
    if (durability_ == Durability::Strict) {
      sb.flush_all();
    } else {
      // Replayed state sits in the volatile device cache; make sure the
      // first fsync does not skip its barrier.
      commits_since_flush_ = 1;
    }
  }
  return Err::Ok;
}

void Log::adopt(const Snapshot& snap) {
  dsb_ = snap.dsb;
  durability_ = snap.durability;
  params_ = snap.params;
  stats_ = snap.stats;
  pending_.clear();
  inflight_.clear();
  outstanding_ = 0;
  ops_in_batch_ = 0;
  commits_since_flush_ = 0;
}

void Log::begin_op(SuperBlockCap& sb, std::uint32_t reserved) {
  assert(reserved <= kMaxOpBlocks);
  (void)reserved;
  // xv6's log-space reservation, made group-commit-safe: every open op
  // may still log up to kMaxOpBlocks, so admission requires headroom for
  // ALL of them (pending + (outstanding+1)*kMaxOpBlocks <= kLogSize —
  // exactly xv6's begin_op condition). With nothing outstanding we can
  // commit the pooled batch to make space; otherwise wait for the open
  // ops to close (xv6 sleeps on the log; here we yield virtual time and
  // re-check — the open ops only need bounded device time to finish).
  lock_.acquire();
  while (pending_.size() +
             (static_cast<std::size_t>(outstanding_) + 1) * kMaxOpBlocks >
         kLogSize) {
    if (aborted_) break;  // nothing will ever commit; admission is moot
    if (outstanding_ == 0) {
      (void)commit(sb);
    } else {
      lock_.release();
      sim::current().wait_until(sim::now() + sim::usec(10));
      lock_.acquire();
    }
  }
  // A fresh batch (nothing open, nothing pooled) opens a new transaction.
  if (outstanding_ == 0 && pending_.empty() && ops_in_batch_ == 0) {
    txn_seq_ += 1;
    sb.trace_journal(blk::TraceEv::TxnOpen, txn_seq_, 0);
  }
  outstanding_ += 1;
  lock_.release();
}

void Log::log_write(SuperBlockCap& sb, std::uint32_t blockno) {
  assert(outstanding_ > 0 && "log_write outside a transaction");
  // The journal owns this dirty buffer until the commit installs it:
  // background writeback must not land it on media ahead of the commit
  // record (the group-commit WAL invariant).
  sb.pin_journal(blockno);
  // Absorption: a block already in this transaction is not logged twice.
  if (std::find(pending_.begin(), pending_.end(), blockno) !=
      pending_.end()) {
    stats_.absorbed += 1;
    return;
  }
  assert(pending_.size() < kLogSize && "transaction overflows the log");
  pending_.push_back(blockno);
}

std::size_t Log::group_threshold(SuperBlockCap& sb) const {
  if (params_.group_dirty_blocks > 0) return params_.group_dirty_blocks;
  // Keep headroom for the next op, and align the trigger to whole stripe
  // rows so the install batch hands every member a full merged share
  // (the stripe-aware writeback clustering knob).
  std::size_t cap = kLogSize - kMaxOpBlocks;
  const std::uint64_t width = sb.stripe_width();
  if (width > 0 && width < cap) {
    cap -= cap % static_cast<std::size_t>(width);
  }
  return cap;
}

Err Log::end_op(SuperBlockCap& sb) {
  bento::SemGuard guard(lock_);
  assert(outstanding_ > 0);
  outstanding_ -= 1;
  if (outstanding_ == 0 && !pending_.empty()) {
    ops_in_batch_ += 1;
    // Group commit: keep absorbing ops until the batch is full. fsync
    // (force_commit) still commits immediately.
    if (ops_in_batch_ >= std::max<std::size_t>(params_.max_log_batch, 1) ||
        pending_.size() >= group_threshold(sb)) {
      return commit(sb);
    }
  }
  return Err::Ok;
}

Err Log::force_commit(SuperBlockCap& sb) {
  lock_.acquire();
  // fsync's durability claim covers the pooled transaction, and pooled
  // blocks are journal-pinned (invisible to flush_all's writeback), so
  // the commit below is the ONLY thing that can persist them: wait for
  // any open ops to close first rather than returning with data pinned
  // in memory (xv6 sleeps here too).
  while (outstanding_ > 0) {
    lock_.release();
    sim::current().wait_until(sim::now() + sim::usec(10));
    lock_.acquire();
  }
  if (aborted_) {
    lock_.release();
    return Err::Io;
  }
  Err e = Err::Ok;
  if (!pending_.empty()) {
    e = commit(sb);
    drain(sb);  // fsync semantics: transfers complete before returning
  } else if (inflight_.empty()) {
    // Nothing pending and nothing in flight: the commit (and its header
    // write) would be a pure no-op — skip it instead of paying for it.
    stats_.empty_commits_skipped += 1;
  } else {
    drain(sb);
  }
  lock_.release();
  return e;
}

bool Log::flush_needed() {
  if (commits_since_flush_ == 0) {
    stats_.flushes_skipped += 1;
    return false;
  }
  return true;
}

void Log::wait_oldest(SuperBlockCap& sb) {
  if (inflight_.empty()) return;
  for (const WriteTicket& t : inflight_.front()) sb.wait(t);
  inflight_.pop_front();
}

void Log::drain(SuperBlockCap& sb) {
  while (!inflight_.empty()) wait_oldest(sb);
}

Err Log::commit(SuperBlockCap& sb) {
  if (aborted_) return Err::Io;
  if (pending_.empty()) return Err::Ok;
  // Bound the pipeline. Every write of an in-flight commit was already
  // SUBMITTED (media effects land at submission, in program order), so
  // reusing the log area below cannot reorder anything on media — only
  // the transfers' completions are still outstanding, and we cap how
  // many commits' worth of those we carry.
  while (inflight_.size() >= kPipelineDepth) wait_oldest(sb);

  // Stage latencies are measured from here: each stage's histogram records
  // commit-entry -> that stage's transfer completion (ticket done time),
  // so the three nest like a waterfall.
  const sim::Nanos t0 = sim::now();
  sb.trace_journal(blk::TraceEv::TxnClose, txn_seq_,
                   static_cast<std::uint32_t>(pending_.size()));

  std::vector<WriteTicket> tickets;
  bool plugged = false;
  auto fail = [&](Err e) {
    if (plugged) tickets.push_back(sb.unplug());
    for (const WriteTicket& t : tickets) sb.wait(t);
    return e;
  };
  // Journal abort: a write INSIDE the journal protocol failed on media, so
  // this transaction can never become durable. Crucially the commit record
  // is never issued — recovery finds an empty header and replays nothing,
  // leaving the pre-abort image. The pending blocks stay journal-pinned in
  // the cache (writing them home now would put uncommitted state on disk);
  // the mount's errors= policy decides what happens to the FS.
  auto abort_commit = [&](Err e) {
    stats_.log_aborted += 1;
    aborted_ = true;
    pending_.clear();
    ops_in_batch_ = 0;
    sb.report_fs_error(e);
    return fail(e);
  };

  // 1. Copy modified blocks into the log area and submit the whole run as
  //    ONE async batch: the log area is contiguous, so the request queue
  //    merges it into a single multi-block device command.
  {
    std::vector<BufferHeadHandle> dsts;
    dsts.reserve(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      auto src = sb.bread(pending_[i]);  // cached: holds the new contents
      if (!src.ok()) return fail(src.error());
      auto dst = sb.getblk(dsb_.logstart + 1 + static_cast<std::uint32_t>(i));
      if (!dst.ok()) return fail(dst.error());
      std::memcpy(dst.value().data().data(), src.value().data().data(),
                  kBlockSize);
      dst.value().set_dirty();
      dsts.push_back(std::move(dst.value()));
    }
    std::vector<BufferHeadHandle*> batch;
    batch.reserve(dsts.size());
    for (auto& h : dsts) batch.push_back(&h);
    tickets.push_back(sb.sync_batch_async(batch));
    sb.trace_journal(blk::TraceEv::JLogWrite, txn_seq_,
                     static_cast<std::uint32_t>(pending_.size()));
    if (tickets.back().ticket.failed) return abort_commit(Err::Io);
    if (tickets.back().ticket.done > 0) {
      stats_.logwrite_lat.record(tickets.back().ticket.done - t0);
    }
  }
  if (durability_ == Durability::Strict) {
    tickets.push_back(sb.flush_all_async());
  }

  // 2. Commit point: write the header naming the logged blocks. Submitted
  //    after the log run (media order is submission order), completion
  //    rides its ticket.
  LogHeader header;
  header.n = static_cast<std::uint32_t>(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    header.blocks[i] = pending_[i];
  }
  {
    const Err e = write_header_async(sb, header, tickets);
    if (e != Err::Ok) return fail(e);  // tickets already out: redeem them
    // The commit record itself failed: the transaction never committed.
    // Abort BEFORE installing — writing home locations without a durable
    // commit record would put uncommitted state on media unprotected.
    if (tickets.back().ticket.failed) return abort_commit(Err::Io);
    sb.trace_journal(blk::TraceEv::JCommitRecord, txn_seq_, 1);
    if (tickets.back().ticket.done > 0) {
      stats_.record_lat.record(tickets.back().ticket.done - t0);
    }
  }
  if (durability_ == Durability::Strict) {
    tickets.push_back(sb.flush_all_async());
  }

  // 3+4. Install to home locations, then clear the header. In Relaxed
  //      mode (no durability ordering between them without barriers) the
  //      two ride ONE request plug: a single merged elevator pass. In
  //      Strict mode the FLUSH barrier between them is preserved, issued
  //      through the non-blocking flush so the pipeline still overlaps
  //      its completion.
  if (params_.plug && durability_ != Durability::Strict) {
    sb.plug();
    plugged = true;
  }
  {
    const Err e = install(sb, header, /*recovering=*/false, &tickets);
    if (e != Err::Ok) return fail(e);
    sb.trace_journal(blk::TraceEv::JCheckpoint, txn_seq_, header.n);
    // Under a plug the install ticket is synthetic (done = 0); the real
    // completion rides the unplug ticket, recorded below instead.
    if (tickets.back().ticket.done > 0) {
      stats_.checkpoint_lat.record(tickets.back().ticket.done - t0);
    }
  }
  if (durability_ == Durability::Strict) {
    tickets.push_back(sb.flush_all_async());
  }
  header = LogHeader{};
  {
    const Err e = write_header_async(sb, header, tickets);
    if (e != Err::Ok) return fail(e);  // fail() closes the open plug too
  }
  if (plugged) {
    plugged = false;
    tickets.push_back(sb.unplug());
    if (tickets.back().ticket.done > 0) {
      stats_.checkpoint_lat.record(tickets.back().ticket.done - t0);
    }
  }
  if (durability_ == Durability::Strict) {
    tickets.push_back(sb.flush_all_async());
  }

  stats_.commits += 1;
  stats_.blocks_logged += pending_.size();
  stats_.ops_committed += ops_in_batch_;
  if (ops_in_batch_ > 1) stats_.group_commits += 1;
  commits_since_flush_ += 1;
  pending_.clear();
  ops_in_batch_ = 0;

  if (!params_.pipeline) {
    for (const WriteTicket& t : tickets) sb.wait(t);
    return Err::Ok;
  }
  stats_.pipelined_commits += 1;
  inflight_.push_back(std::move(tickets));
  return Err::Ok;
}

Err Log::install(SuperBlockCap& sb, const LogHeader& header,
                 bool recovering, std::vector<WriteTicket>* out_tickets) {
  // Home locations are scattered, so the batch typically stays several
  // requests — but those spread across the device's channels instead of
  // serializing on one.
  std::vector<BufferHeadHandle> dsts;
  dsts.reserve(header.n);
  if (recovering) {
    // Replay from the log area into the home locations; the log-area
    // reads are one contiguous batched run.
    std::vector<std::uint64_t> log_blocks;
    log_blocks.reserve(header.n);
    for (std::uint32_t i = 0; i < header.n; ++i) {
      log_blocks.push_back(dsb_.logstart + 1 + i);
    }
    auto srcs = sb.bread_batch(log_blocks);
    if (!srcs.ok()) return srcs.error();
    for (std::uint32_t i = 0; i < header.n; ++i) {
      auto dst = sb.getblk(header.blocks[i]);
      if (!dst.ok()) return dst.error();
      std::memcpy(dst.value().data().data(),
                  srcs.value()[i].data().data(), kBlockSize);
      dst.value().set_dirty();
      dsts.push_back(std::move(dst.value()));
    }
  } else {
    // The cache already holds the new contents; write them home.
    for (std::uint32_t i = 0; i < header.n; ++i) {
      auto bh = sb.bread(header.blocks[i]);
      if (!bh.ok()) return bh.error();
      bh.value().set_dirty();
      dsts.push_back(std::move(bh.value()));
    }
  }
  std::vector<BufferHeadHandle*> batch;
  batch.reserve(dsts.size());
  for (auto& h : dsts) batch.push_back(&h);
  const WriteTicket ticket = sb.sync_batch_async(batch);
  if (out_tickets != nullptr) {
    out_tickets->push_back(ticket);  // pipelined: caller carries it
  } else {
    if (durability_ == Durability::Strict) sb.flush_all();
    sb.wait(ticket);
  }
  return Err::Ok;
}

Err Log::write_header(SuperBlockCap& sb, const LogHeader& header) {
  auto bh = sb.getblk(dsb_.logstart);
  if (!bh.ok()) return bh.error();
  std::memcpy(bh.value().data().data(), &header, sizeof(header));
  bh.value().set_dirty();
  bh.value().sync();
  return Err::Ok;
}

Err Log::write_header_async(SuperBlockCap& sb, const LogHeader& header,
                            std::vector<WriteTicket>& tickets) {
  auto bh = sb.getblk(dsb_.logstart);
  if (!bh.ok()) return bh.error();
  std::memcpy(bh.value().data().data(), &header, sizeof(header));
  bh.value().set_dirty();
  BufferHeadHandle h = std::move(bh.value());
  BufferHeadHandle* ph = &h;
  tickets.push_back(sb.sync_batch_async(std::span<BufferHeadHandle* const>(
      &ph, 1)));
  return Err::Ok;
}

Err Log::read_header(SuperBlockCap& sb, LogHeader& out) {
  auto bh = sb.bread(dsb_.logstart);
  if (!bh.ok()) return bh.error();
  std::memcpy(&out, bh.value().data().data(), sizeof(out));
  return Err::Ok;
}

}  // namespace bsim::xv6
