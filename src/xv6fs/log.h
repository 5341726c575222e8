// The xv6 write-ahead log, ported to the Bento kernel-services API.
//
// Transactions follow xv6's protocol: modified blocks are recorded via
// log_write while a transaction is open; a commit writes the new contents
// into the log area, writes the header (the commit point), installs the
// blocks to their home locations, then clears the header.
//
// The running transaction holds its buffers, as jbd2's journal_head does:
// the first log_write of a block keeps one more reference to the caller's
// buffer. The commit writes the log run straight from those buffers
// (SuperBlockCap::write_run: the log area never enters the buffer cache)
// and installs from the same references, so it looks up no logged block.
// The references go when the commit has submitted its install, when the
// journal aborts, and at mount, upgrade and unmount.
//
// Two throughput mechanisms sit on top of the base protocol (both jbd2
// techniques; see ARCHITECTURE.md write path):
//
//   Group commit — end_op does not commit the moment the op count
//   drains. Ops accumulate into one running transaction, sized like a
//   jbd2 transaction by log space and age rather than by op count: it
//   commits when its tagged blocks reach a stripe-width-aligned threshold
//   (the log minus one op's worst case), or when an op closes on a
//   transaction older than kCommitAge. fsync, sync and unmount
//   (force_commit) force it immediately. A `max_log_batch=N` mount
//   ("nogroup" is N = 1) also commits after N closed ops. Pending blocks
//   stay dirty in the cache, and nothing but the commit writes a dirty
//   buffer (no barrier and no eviction does), so no unjournaled state
//   reaches media ahead of the commit record. This policy (admission,
//   commit trigger and the force's wait for open ops) is blk::OpJournal,
//   which the C baseline (xv6fs_c/xv6c.h) runs too; this file supplies
//   the commit itself.
//
//   Pipelined commit — the commit's writes (log run, header, install,
//   clear) are submitted on async tickets held by the journal engine's
//   pipeline (blockdev/journal.h), and force_commit drains it before
//   fsync's durability barrier.
//
// Durability has two modes:
//   Relaxed — synchronous writes only, no device FLUSH barriers. This is
//             how the paper's implementation behaves on the PM981. The
//             header clear is its own batch, submitted after the install
//             batch, so it reaches media after every home write.
//   Strict  — FLUSH before the commit record and after install, making the
//             commit point durable against power loss. Each barrier is a
//             synchronous flush_all (the device FLUSH alone), so the
//             committing thread waits for it. The crash-consistency
//             property tests run in this mode.
//
// Note on the contribution: this file is "file system code" in the paper's
// sense — it runs entirely against capability types (SuperBlockCap,
// BufferHeadHandle) and never touches a kernel pointer.
#pragma once

#include <cstdint>
#include <vector>

#include "bento/kernel_services.h"
#include "blockdev/journal.h"
#include "blockdev/opts.h"
#include "kernel/errno.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "xv6fs/layout.h"

namespace bsim::xv6 {

enum class Durability { Relaxed, Strict };

struct LogStats : blk::JournalCounters {
  std::uint64_t commits = 0;
  std::uint64_t blocks_logged = 0;
  std::uint64_t recoveries = 0;   // non-empty header found at init
  std::uint64_t log_aborted = 0;  // journal aborts (failed journal write)
};

/// The journal engine's binding to the capability API.
struct LogIo {
  using Ticket = bento::WriteTicket;
  bento::SuperBlockCap& sb;
  LogStats& stats;

  static const blk::Ticket& bio(const Ticket& t) { return t.ticket; }
  void wait(const Ticket& t) const { sb.wait(t); }
  void trace(blk::TraceEv ev, std::uint64_t txn, std::uint32_t n) const {
    sb.trace_journal(ev, txn, n);
  }
  void on_abort() const {
    stats.log_aborted += 1;
    sb.report_fs_error(kern::Err::Io);
  }
  void flush() const { sb.flush_all(); }
};

class Log {
 public:
  using Journal = blk::OpJournal<LogIo>;
  static constexpr sim::Nanos kCommitAge = Journal::kCommitAge;

  Log() = default;
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// Mount-time initialization + crash recovery. The write path's tuning
  /// comes from `opts`: max_log_batch (an op cap on group commit) and
  /// pipeline ("nopipeline").
  kern::Err init(bento::SuperBlockCap& sb, const DiskSuperblock& dsb,
                 Durability durability, const blk::MountOpts& opts);

  /// Open a transaction expected to touch at most `reserved` blocks
  /// (must be <= kMaxOpBlocks).
  void begin_op(bento::SuperBlockCap& sb, std::uint32_t reserved);

  /// Record the modified block `bh` in the running transaction (with
  /// absorption); the first record of a block keeps a reference to its
  /// buffer until the commit, which is the only writer of the block.
  void log_write(const bento::BufferHeadHandle& bh);

  /// Close the operation; commits when no other operation is open AND
  /// the running transaction is full (the block threshold, or the mount's
  /// max_log_batch ops) or older than kCommitAge.
  kern::Err end_op(bento::SuperBlockCap& sb);

  /// Force a commit of any pending writes and drain the commit pipeline
  /// (fsync path): when this returns, every commit's transfers have
  /// completed — the caller only adds the durability barrier. Fails with
  /// Err::Io once the journal has aborted (a journal write failed on
  /// media); the mount's errors= policy has then been applied.
  kern::Err force_commit(bento::SuperBlockCap& sb);

  /// fsync's durability barrier, after force_commit (blk::Journal::barrier):
  /// a device FLUSH, or a wait for the last one when it covers every
  /// commit already.
  void barrier(bento::SuperBlockCap& sb) { jnl_.barrier(io(sb)); }

  /// Unmount: let go of the buffers a running transaction still holds,
  /// which is only the case when its commit failed.
  void release_buffers() { held_.clear(); }

  [[nodiscard]] const LogStats& stats() const { return stats_; }
  /// Commits whose transfers are still outstanding (tests/diagnostics).
  [[nodiscard]] std::size_t inflight_commits() const {
    return jnl_.inflight();
  }

  /// Export/import for online upgrade: the log must be empty (committed
  /// and drained) at transfer time; this carries the log's place + stats
  /// across versions. The adopting instance brings its own mount options.
  /// The superblock is the file system's to carry: it changes outside the
  /// log (ialloc raises ninitblocks), so the log keeps no copy of it.
  struct Snapshot {
    std::uint32_t logstart = 0;
    Durability durability = Durability::Relaxed;
    LogStats stats;
  };
  [[nodiscard]] Snapshot snapshot() const {
    return {logstart_, durability_, stats_};
  }
  void adopt(const Snapshot& snap, const blk::MountOpts& opts);

 private:
  kern::Err commit(bento::SuperBlockCap& sb);
  LogIo io(bento::SuperBlockCap& sb) { return {sb, stats_}; }
  /// Recovery: copy the log area into the home locations named by
  /// `header`; the batch rides the returned ticket.
  kern::Result<bento::WriteTicket> replay(bento::SuperBlockCap& sb,
                                          const LogHeader& header);
  kern::Result<bento::WriteTicket> write_header(bento::SuperBlockCap& sb,
                                                const LogHeader& header);
  kern::Err read_header(bento::SuperBlockCap& sb, LogHeader& out);

  std::uint32_t logstart_ = 0;  // the header block; the log run follows
  Durability durability_ = Durability::Relaxed;
  LogStats stats_;
  Journal jnl_{stats_, kLogSize, kMaxOpBlocks};
  /// One reference per tagged block, in jnl_.blocks() order (jbd2's
  /// journal_head list). Empty after an abort: an aborted journal never
  /// commits, so it holds nothing.
  std::vector<bento::BufferHeadHandle> held_;
};

}  // namespace bsim::xv6
