// Unit tests for the journal commit engine (blk::Journal), driven through
// a fake I/O binding whose tickets complete at chosen virtual times: the
// bounded commit pipeline, fsync's force and barrier, the abort latch, and
// the derivation of the pipeline depth from the device's channels.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "blockdev/device.h"
#include "blockdev/journal.h"
#include "sim/thread.h"

namespace bsim::blk {
namespace {

using sim::Nanos;

/// What the fake binding saw, in order.
struct IoLog {
  std::vector<std::uint64_t> redeemed;  // ticket ids, in wait() order
  int flushes = 0;
  int aborts = 0;
};

/// The engine's I/O binding over plain bio tickets: wait() advances the
/// caller to the ticket's completion, flush() takes `flush_lat`.
struct FakeIo {
  IoLog* log;
  Nanos flush_lat = sim::usec(800);

  void wait(const Ticket& t) const {
    log->redeemed.push_back(t.id);
    sim::current().wait_until(t.done);
  }
  void trace(TraceEv, std::uint64_t, std::uint32_t) const {}
  void on_abort() const { log->aborts += 1; }
  void flush() const {
    log->flushes += 1;
    sim::current().wait(flush_lat);
  }
};

using Jnl = Journal<FakeIo>;
constexpr std::size_t kDepth = Jnl::kPipelineDepth;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override { sim::set_current(&thread_); }
  void TearDown() override { sim::set_current(nullptr); }

  /// Commit one transaction tagging `txn` as its only block, the way a
  /// file system does: begin, three staged writes completing at `done`
  /// (the journal run `jw_failed` if asked), close, retire. Ticket ids are
  /// 3*txn+1 .. 3*txn+3. Returns false when the journal aborted.
  bool commit(std::uint64_t txn, Nanos done, bool jw_failed = false) {
    jnl_.tag(static_cast<std::uint32_t>(txn));
    jnl_.close_op(1, 1);
    jnl_.begin_commit(io_, txn);
    Jnl::Tickets tickets;
    if (!jnl_.stage(io_, TraceEv::JLogWrite, txn, 1, tickets,
                    ticket(3 * txn + 1, done, jw_failed))) {
      return false;
    }
    if (!jnl_.stage(io_, TraceEv::JCommitRecord, txn, 1, tickets,
                    ticket(3 * txn + 2, done))) {
      return false;
    }
    jnl_.stage(io_, TraceEv::JCheckpoint, txn, 1, tickets,
               ticket(3 * txn + 3, done));
    jnl_.close();
    jnl_.retire(io_, std::move(tickets));
    return true;
  }

  static blk::Ticket ticket(std::uint64_t id, Nanos done,
                            bool failed = false) {
    return blk::Ticket{.done = done, .id = id, .failed = failed};
  }

  /// The ids of commit `txn`'s three tickets.
  static std::vector<std::uint64_t> ids(std::uint64_t txn) {
    return {3 * txn + 1, 3 * txn + 2, 3 * txn + 3};
  }

  sim::SimThread thread_{0};
  IoLog log_;
  FakeIo io_{&log_};
  JournalCounters counters_;
  Jnl jnl_{counters_};
};

TEST_F(JournalTest, DepthIsHalfTheDeviceChannels) {
  // Each pipelined commit keeps two long transfers on a member (the merged
  // log run and the merged install), so this many commits fill a device.
  EXPECT_EQ(2 * kDepth, static_cast<std::size_t>(DeviceParams{}.channels));
}

TEST_F(JournalTest, PipelineHoldsDepthCommitsThenRedeemsExactlyTheOldest) {
  for (std::uint64_t txn = 0; txn < kDepth; ++txn) {
    ASSERT_TRUE(commit(txn, sim::usec(100) * static_cast<Nanos>(txn + 1)));
  }
  EXPECT_EQ(jnl_.inflight(), kDepth);
  EXPECT_EQ(counters_.pipelined_commits, kDepth);
  EXPECT_TRUE(log_.redeemed.empty());
  EXPECT_EQ(sim::now(), 0);  // nothing waited on

  // The next commit makes room by redeeming the oldest commit alone, so
  // its caller waits for that commit's completion and no later one.
  jnl_.tag(99);
  jnl_.begin_commit(io_, kDepth);
  EXPECT_EQ(log_.redeemed, ids(0));
  EXPECT_EQ(sim::now(), sim::usec(100));
  EXPECT_EQ(jnl_.inflight(), kDepth - 1);
}

TEST_F(JournalTest, AFullPipelineCountsOneSlotWaitOfTheOldestCommitsLength) {
  // Four commits go out at t = 0, each completing 100 us after the last.
  for (std::uint64_t txn = 0; txn < kDepth; ++txn) {
    ASSERT_TRUE(commit(txn, sim::usec(100) * static_cast<Nanos>(txn + 1)));
  }
  EXPECT_EQ(counters_.slot_waits, 0u);
  EXPECT_EQ(counters_.slot_wait_ns, 0);

  // The fifth begin_commit starts at t = 30 us and waits for the oldest
  // commit, which completes at 100 us: one wait of 70 us.
  sim::current().wait(sim::usec(30));
  jnl_.tag(99);
  jnl_.begin_commit(io_, kDepth);
  EXPECT_EQ(counters_.slot_waits, 1u);
  EXPECT_EQ(counters_.slot_wait_ns, sim::usec(70));

  // A begin_commit with a free slot waits for nothing and counts nothing.
  jnl_.begin_commit(io_, kDepth + 1);
  EXPECT_EQ(counters_.slot_waits, 1u);
  EXPECT_EQ(counters_.slot_wait_ns, sim::usec(70));
}

TEST_F(JournalTest, AFullPipelineWhoseOldestCommitIsDoneCountsNoSlotWait) {
  for (std::uint64_t txn = 0; txn < kDepth; ++txn) {
    ASSERT_TRUE(commit(txn, sim::usec(100) * static_cast<Nanos>(txn + 1)));
  }
  // At t = 150 us the oldest commit has completed: redeeming it to free
  // its slot takes no time, so the caller never stalled.
  sim::current().wait(sim::usec(150));
  jnl_.tag(99);
  jnl_.begin_commit(io_, kDepth);
  EXPECT_EQ(log_.redeemed, ids(0));
  EXPECT_EQ(counters_.slot_waits, 0u);
  EXPECT_EQ(counters_.slot_wait_ns, 0);
}

TEST_F(JournalTest, ForceCommitsTheRunningTxnAndDrainsEveryCommitInFlight) {
  for (std::uint64_t txn = 0; txn < kDepth; ++txn) {
    ASSERT_TRUE(commit(txn, sim::usec(100) * static_cast<Nanos>(txn + 1)));
  }
  jnl_.tag(99);
  int commits = 0;
  const bool ok = jnl_.force(io_, [&] {
    commits += 1;
    return commit(kDepth, sim::usec(50));
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(jnl_.inflight(), 0u);
  EXPECT_EQ(log_.redeemed.size(), 3 * (kDepth + 1));
  EXPECT_EQ(sim::now(), sim::usec(100) * static_cast<Nanos>(kDepth));

  // Nothing tagged, nothing in flight: the force is skipped and counted.
  jnl_.force(io_, [&] {
    commits += 1;
    return true;
  });
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(counters_.empty_commits_skipped, 1u);
}

TEST_F(JournalTest, BarrierFlushesOncePerClosedCommitElseWaitsForTheLastFlush) {
  ASSERT_TRUE(commit(0, sim::usec(100)));
  ASSERT_TRUE(commit(1, sim::usec(200)));
  jnl_.force(io_, [] { return true; });
  jnl_.barrier(io_);  // two commits closed since the last FLUSH: one FLUSH
  EXPECT_EQ(log_.flushes, 1);
  EXPECT_EQ(counters_.flushes_skipped, 0u);
  const Nanos flushed = sim::now();
  EXPECT_EQ(flushed, sim::usec(200) + io_.flush_lat);

  // No commit since: a second fsync issues no FLUSH, but does not return
  // before the FLUSH that covers every commit has completed.
  sim::SimThread other{1};
  {
    sim::ScopedThread scope(other);
    jnl_.barrier(io_);
    EXPECT_EQ(sim::now(), flushed);
  }
  EXPECT_EQ(log_.flushes, 1);
  EXPECT_EQ(counters_.flushes_skipped, 1u);

  // A new commit needs a FLUSH of its own.
  ASSERT_TRUE(commit(2, sim::usec(1000)));
  jnl_.force(io_, [] { return true; });
  jnl_.barrier(io_);
  EXPECT_EQ(log_.flushes, 2);
}

TEST_F(JournalTest, FailedJournalWriteAbortsAndLeavesNothingInFlight) {
  for (std::uint64_t txn = 0; txn + 1 < kDepth; ++txn) {
    ASSERT_TRUE(commit(txn, sim::usec(100)));
  }
  EXPECT_FALSE(commit(kDepth - 1, sim::usec(300), /*jw_failed=*/true));
  EXPECT_TRUE(jnl_.aborted());
  EXPECT_EQ(log_.aborts, 1);
  EXPECT_EQ(jnl_.inflight(), 0u);
  EXPECT_TRUE(jnl_.empty());  // the running transaction is dropped
  // The failed commit's journal write is redeemed, then every commit that
  // was in flight; its commit record was never issued.
  std::vector<std::uint64_t> want = {3 * (kDepth - 1) + 1};
  for (std::uint64_t txn = 0; txn + 1 < kDepth; ++txn) {
    for (std::uint64_t id : ids(txn)) want.push_back(id);
  }
  EXPECT_EQ(log_.redeemed, want);
}

TEST_F(JournalTest, FailedInstallDoesNotAbort) {
  jnl_.tag(1);
  jnl_.begin_commit(io_, 0);
  Jnl::Tickets tickets;
  EXPECT_TRUE(jnl_.stage(io_, TraceEv::JCheckpoint, 0, 1, tickets,
                         ticket(1, sim::usec(10), /*failed=*/true)));
  EXPECT_FALSE(jnl_.aborted());
  EXPECT_EQ(log_.aborts, 0);
}

TEST_F(JournalTest, UnpipelinedRetireRedeemsItsOwnTickets) {
  jnl_.reset(/*pipeline=*/false);
  ASSERT_TRUE(commit(0, sim::usec(100)));
  EXPECT_EQ(jnl_.inflight(), 0u);
  EXPECT_EQ(log_.redeemed, ids(0));
  EXPECT_EQ(sim::now(), sim::usec(100));
  EXPECT_EQ(counters_.pipelined_commits, 0u);
}

}  // namespace
}  // namespace bsim::blk
