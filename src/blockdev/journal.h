// The journal commit engine under the xv6 log (xv6fs/log.h and the C
// baseline, xv6fs_c/xv6c.h) and ext4's jbd (ext4/ext4.h), after Linux's
// jbd2. The engine owns the mechanism: the running transaction, the
// bounded commit-ticket pipeline, stage recording, the abort latch and
// fsync's durability step (force, then barrier). Each file system keeps
// its on-disk format. The two xv6 file systems also share one commit
// policy, OpJournal below: when an op may start, when the running
// transaction commits and how a force waits for open ops. ext4 keeps its
// own (see ARCHITECTURE.md, "Journal engine").
//
// Pipelining only moves when tickets are redeemed: media effects land at
// submission, in program order, so a "-o nopipeline" mount (each commit
// redeems its own tickets) is the oracle of the crash differentials.
//
// Every journal write goes out on a bio-layer Ticket, from the buffer
// cache or through the Bento capability, and the engine is a template
// over the caller's I/O binding `Io`:
//   void wait(const Ticket&) const;  // redeem a ticket
//   void trace(TraceEv, uint64_t txn, uint32_t nblocks) const;
//   void on_abort() const;  // count the abort, report it to errors=
//   void flush() const;     // the device FLUSH; returns on its completion
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blockdev/bio.h"
#include "blockdev/opts.h"
#include "blockdev/trace.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/thread.h"

namespace bsim::blk {

/// What the engine counts. Each file system's stats struct extends this
/// with its format's own counters.
struct JournalCounters {
  std::uint64_t absorbed = 0;       // tags of an already-tagged block
  std::uint64_t ops_committed = 0;  // ops closed across all commits
  std::uint64_t group_commits = 0;  // commits that closed >1 op
  std::uint64_t pipelined_commits = 0;  // returned with transfers in flight
  std::uint64_t empty_commits_skipped = 0;  // forced, with nothing to do
  std::uint64_t flushes_skipped = 0;  // fsync barriers skipped (clean)
  // begin_commits that stalled on a full pipeline until its oldest commit
  // completed, and the virtual time they stalled.
  std::uint64_t slot_waits = 0;
  sim::Nanos slot_wait_ns = 0;
  // Commit entry -> each stage's transfer completion (the stages are in
  // submission order, so the histograms nest).
  sim::LatencyHistogram write_lat;       // journal run
  sim::LatencyHistogram record_lat;      // commit record (the commit point)
  sim::LatencyHistogram checkpoint_lat;  // install to home locations
};

/// The group-commit block trigger: `cap` rounded down to whole stripe
/// rows, so the checkpoint hands every member of a striped volume a full
/// merged share.
[[nodiscard]] std::size_t commit_threshold(std::size_t cap,
                                           std::uint64_t stripe_width);

/// The running transaction: tagged home blocks, in tag order, and the
/// operations closed into it.
class RunningTxn {
 public:
  explicit RunningTxn(JournalCounters& counters) : c_(&counters) {}

  /// False (and counted) when `blockno` is already tagged: absorption.
  bool tag(std::uint32_t blockno);
  /// Close one more operation into the transaction (group commit). True
  /// when the batch is full: `max_ops` operations (0: no op cap), or
  /// `max_blocks` blocks.
  bool close_op(std::size_t max_ops, std::size_t max_blocks) {
    ops_ += 1;
    return (max_ops != 0 && ops_ >= max_ops) || size() >= max_blocks;
  }

  [[nodiscard]] const std::vector<std::uint32_t>& blocks() const {
    return blocks_;
  }
  [[nodiscard]] bool empty() const { return blocks_.empty(); }
  [[nodiscard]] std::size_t size() const { return blocks_.size(); }

  /// The transaction committed: count its ops and open a new one.
  void committed();
  void clear() {
    blocks_.clear();
    tagged_.clear();
    ops_ = 0;
  }

 protected:
  JournalCounters* c_;

 private:
  std::vector<std::uint32_t> blocks_;
  std::unordered_set<std::uint32_t> tagged_;  // blocks_, for membership
  std::size_t ops_ = 0;
};

template <class Io>
class Journal : public RunningTxn {
 public:
  using Tickets = std::vector<Ticket>;
  /// Commits in flight before the next begin_commit redeems the oldest:
  /// one per device channel (DeviceParams::channels, 8). A commit's long
  /// transfer is its log run, one merged request that holds one channel
  /// for all of its blocks (an untar commit: 259 blocks, 3.9 ms). Its
  /// install is many short requests (untar: about 54 per commit) that
  /// fill gaps on the other channels. So each commit in flight keeps
  /// about one channel busy, and a device writes at its limit only with
  /// one commit per channel. A shallower pipeline leaves channels idle
  /// while the writer waits for a slot: at depth 4, 1,000 MiB of buffered
  /// sequential writes and a sync kept one device 67% busy (95% at 8).
  static constexpr std::size_t kPipelineDepth = 8;

  explicit Journal(JournalCounters& counters, bool pipeline = true)
      : RunningTxn(counters), pipeline_(pipeline) {}

  /// Mount: empty, clean, not aborted, nothing in flight.
  void reset(bool pipeline) {
    clear();
    inflight_.clear();
    unflushed_ = 0;
    flushed_at_ = 0;
    aborted_ = false;
    pipeline_ = pipeline;
  }

  [[nodiscard]] bool aborted() const { return aborted_; }
  [[nodiscard]] std::size_t inflight() const { return inflight_.size(); }

  /// Start committing the running transaction as `txn` (TC): bound the
  /// pipeline and stamp the entry time the stage latencies count from.
  /// Every write of an in-flight commit is already submitted, so reusing
  /// the journal area after this cannot reorder anything on media.
  void begin_commit(const Io& io, std::uint64_t txn) {
    const sim::Nanos start = sim::now();
    while (inflight_.size() >= kPipelineDepth) wait_oldest(io);
    t0_ = sim::now();
    if (t0_ > start) {
      c_->slot_waits += 1;
      c_->slot_wait_ns += t0_ - start;
    }
    if (!empty()) {
      io.trace(TraceEv::TxnClose, txn, static_cast<std::uint32_t>(size()));
    }
  }

  /// Stage `ev` (JW, JR or JK) went out on ticket `t`: keep `t` with
  /// this commit's `tickets`, trace the stage and record its latency. A
  /// journal write (JW, JR) that failed on media aborts the journal and
  /// returns false; the caller returns without issuing further records.
  bool stage(const Io& io, TraceEv ev, std::uint64_t txn, std::uint32_t n,
             Tickets& tickets, const Ticket& t) {
    tickets.push_back(t);
    io.trace(ev, txn, n);
    if (t.failed && ev != TraceEv::JCheckpoint) {
      abort(io, tickets);
      return false;
    }
    latency(ev, t);
    return true;
  }

  /// The header clear that ends an xv6 commit went out on `t`: keep `t`
  /// with this commit's `tickets`. It is no traced stage, but a failed
  /// clear aborts the journal as a failed JW or JR does (jbd2 aborts when
  /// it cannot update its journal superblock): the header on media still
  /// names the committed transaction, and the next commit's journal run
  /// would overwrite the blocks recovery replays. Returns false on abort.
  bool cleared(const Io& io, Tickets& tickets, const Ticket& t) {
    tickets.push_back(t);
    if (!t.failed) return true;
    abort(io, tickets);
    return false;
  }

  /// Every record of the running transaction is submitted: it now needs a
  /// durability barrier, and a new transaction opens.
  void close() {
    if (!empty()) unflushed_ += 1;
    committed();
  }

  /// Hand a closed commit's tickets to the pipeline (unpipelined: redeem
  /// them now).
  void retire(const Io& io, Tickets tickets) {
    if (!pipeline_) {
      for (const Ticket& t : tickets) io.wait(t);
      return;
    }
    if (tickets.empty()) return;
    c_->pipelined_commits += 1;
    inflight_.push_back(std::move(tickets));
  }

  /// Redeem this commit's tickets, then every in-flight commit's: the
  /// failure path.
  void redeem(const Io& io, const Tickets& tickets) {
    for (const Ticket& t : tickets) io.wait(t);
    drain(io);
  }

  /// State reached the device's volatile cache outside a commit (replay).
  void mark_dirty() { unflushed_ += 1; }

  /// fsync's commit step: commit the running transaction if it holds
  /// anything, then redeem every in-flight commit. With nothing tagged and
  /// nothing in flight there is nothing to do, and the force is counted
  /// as an empty commit skipped. Returns what `commit()` returned, else
  /// success. An aborted journal returns what `commit()` returns at
  /// once, which must be its failure.
  template <class Commit>
  auto force(const Io& io, Commit&& commit) -> decltype(commit()) {
    if (aborted_) return commit();
    decltype(commit()) result{};
    if (empty() && inflight_.empty()) {
      c_->empty_commits_skipped += 1;
      return result;
    }
    if (!empty()) result = commit();
    drain(io);
    return result;
  }

  /// fsync's durability step, after force(): FLUSH the device if a commit
  /// has closed since the last FLUSH. Otherwise that last FLUSH covers
  /// every commit, so wait for it to complete (counted in
  /// flushes_skipped). Either way no fsync returns before a FLUSH that
  /// covers its commit.
  void barrier(const Io& io) {
    if (unflushed_ == 0) {
      c_->flushes_skipped += 1;
      sim::current().wait_until(flushed_at_);
      return;
    }
    io.flush();
    unflushed_ = 0;
    flushed_at_ = sim::now();
  }

 private:
  /// Record stage `ev`'s latency from `t`, if `t` carries a batch (an
  /// empty ticket has no completion time).
  void latency(TraceEv ev, const Ticket& t) {
    const sim::Nanos done = t.done;
    if (done <= 0) return;
    (ev == TraceEv::JLogWrite       ? c_->write_lat
     : ev == TraceEv::JCommitRecord ? c_->record_lat
                                    : c_->checkpoint_lat)
        .record(done - t0_);
  }

  /// A journal write failed on media (jbd2_journal_abort): the running
  /// transaction is dropped. If it failed before its commit record, the
  /// record is never issued, so recovery replays none of it, and its
  /// blocks stay dirty in the cache, where only a commit would write
  /// them, so none reaches a home location. An aborted journal never
  /// commits again.
  void abort(const Io& io, const Tickets& tickets) {
    aborted_ = true;
    clear();
    io.on_abort();
    redeem(io, tickets);
  }

  void drain(const Io& io) {
    while (!inflight_.empty()) wait_oldest(io);
  }

  void wait_oldest(const Io& io) {
    for (const Ticket& t : inflight_.front()) io.wait(t);
    inflight_.pop_front();
  }

  bool pipeline_;
  bool aborted_ = false;
  std::deque<Tickets> inflight_;  // oldest first
  std::uint64_t unflushed_ = 0;   // commits since the last FLUSH
  sim::Nanos flushed_at_ = 0;     // completion time of the last FLUSH
  sim::Nanos t0_ = 0;             // entry time of the commit in progress
};

/// xv6's op protocol over the engine, shared by the xv6 log (xv6::Log)
/// and the C baseline (xv6c::Xv6cMount), which differ only in how they
/// write a commit. Each op declares that it logs at most `max_op_blocks`
/// blocks of a `log_blocks`-block log.
///   - An op starts only once its log space is reserved: the running
///     transaction plus the worst case of every open op, this one
///     included, fits the log. With no op open the running transaction
///     commits to make space; otherwise the op waits for the open ones to
///     close (xv6 sleeps on the log; here it yields 10 us of virtual time
///     and checks again).
///   - The last open op to close commits the running transaction when its
///     tags reach the stripe-aligned commit_threshold(log_blocks -
///     max_op_blocks), when it is kCommitAge old, or at the mount's
///     max_log_batch op cap ("nogroup" is 1; 0 means none).
///   - A force (fsync, sync, unmount) first waits for the open ops to
///     close, since a tagged block reaches media only through a commit,
///     then runs the engine's force.
template <class Io>
class OpJournal : public Journal<Io> {
 public:
  /// jbd2's default commit interval: an op that closes on a running
  /// transaction at least this old commits it.
  static constexpr sim::Nanos kCommitAge = 5 * sim::kSecond;

  OpJournal(JournalCounters& counters, std::size_t log_blocks,
            std::size_t max_op_blocks)
      : Journal<Io>(counters),
        log_blocks_(log_blocks),
        max_op_blocks_(max_op_blocks) {}

  /// Mount: the engine's reset, the mount's op cap, no op open.
  void reset(const MountOpts& opts) {
    Journal<Io>::reset(opts.pipeline);
    max_ops_ = opts.max_log_batch;
    open_ops_ = 0;
  }

  /// Admit one op (see the class comment); `commit()` commits the running
  /// transaction. The first op of a fresh transaction opens it (TO).
  template <class Commit>
  void begin_op(const Io& io, Commit&& commit) {
    lock_.lock();
    while (this->size() + (open_ops_ + 1) * max_op_blocks_ > log_blocks_) {
      if (this->aborted()) break;  // nothing will ever commit
      if (open_ops_ == 0) {
        (void)commit();
      } else {
        poll();
      }
    }
    if (open_ops_ == 0 && this->empty()) {
      txn_ += 1;
      txn_start_ = sim::now();
      io.trace(TraceEv::TxnOpen, txn_, 0);
    }
    open_ops_ += 1;
    lock_.unlock();
  }

  /// Close one op; the last one out commits a full or old transaction
  /// (see the class comment). Returns what `commit()` returned, else
  /// success.
  template <class Commit>
  auto end_op(std::uint64_t stripe_width, Commit&& commit)
      -> decltype(commit()) {
    sim::ScopedLock guard(lock_);
    assert(open_ops_ > 0);
    open_ops_ -= 1;
    if (open_ops_ == 0 && !this->empty()) {
      const bool full = this->close_op(
          max_ops_, commit_threshold(log_blocks_ - max_op_blocks_,
                                     stripe_width));
      if (full || sim::now() - txn_start_ >= kCommitAge) return commit();
    }
    return {};
  }

  /// fsync's commit step: wait for the open ops to close, then the
  /// engine's force (Journal::force). The caller adds the barrier.
  template <class Commit>
  auto force(const Io& io, Commit&& commit) -> decltype(commit()) {
    sim::ScopedLock guard(lock_);
    while (open_ops_ > 0) poll();
    return Journal<Io>::force(io, commit);
  }

  [[nodiscard]] bool in_op() const { return open_ops_ > 0; }
  /// The running transaction's sequence number (the tracepoints' txn).
  [[nodiscard]] std::uint64_t txn() const { return txn_; }

 private:
  /// Let the open ops run for 10 us, with the lock released.
  void poll() {
    lock_.unlock();
    sim::current().wait_until(sim::now() + sim::usec(10));
    lock_.lock();
  }

  const std::size_t log_blocks_;
  const std::size_t max_op_blocks_;
  std::size_t max_ops_ = 0;
  std::size_t open_ops_ = 0;
  sim::SimMutex lock_;
  std::uint64_t txn_ = 0;
  sim::Nanos txn_start_ = 0;
};

}  // namespace bsim::blk
