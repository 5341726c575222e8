// The bio / request layer: Linux-style block-I/O descriptors between the
// kernel (caches, journals, io_uring) and the device.
//
// A Bio is one logical block request from a subsystem: an op plus a run of
// *consecutive* disk blocks, each block backed by its own memory segment
// (scatter-gather, like Linux's bio_vec array). Callers build batches of
// bios and hand them to a RequestQueue, which
//   - elevator-sorts the batch by start block (reads and writes
//     separately),
//   - merges back-to-back bios into single device requests (the
//     adjacent-block merge a real request queue performs),
//   - dispatches each merged request to a device channel, so a batch
//     occupies up to `DeviceParams::channels` channels *concurrently* in
//     virtual time, and
//   - either waits until every request completes (`submit`, synchronous at
//     the batch boundary, like submit_bio_wait) or
//     returns a Ticket the caller redeems later (`submit_async`/`wait`),
//     so one simulated thread can keep several batches in flight across
//     the device's channels (QD>1).
//
// Per-bio completion times are recorded in Bio::done_at, so tests and
// stats can observe out-of-order completion inside a batch even though the
// submitting thread only resumes at the batch barrier (or at wait()).
//
// Same-block bios within one batch are well-defined and deterministic:
// dispatch stable-sorts by start block, so bios with the SAME start block
// execute in submission order — for those, the last-submitted data wins
// on media — and bios with identical block ranges are coalesced into one
// device request (a queue-level write absorption) instead of splitting a
// merge run. Partially overlapping ranges with different start blocks
// apply in ascending-start order (deterministic, but not last-submitted-
// wins); no consumer submits those in one batch today.
//
// The scalar BlockDevice::read/write entry points are one-bio wrappers
// over this layer; every block access in the simulation funnels through
// RequestQueue::submit.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace bsim::blk {

class BlockDevice;

inline constexpr std::uint32_t kBlockSize = 4096;

enum class BioOp : std::uint8_t { Read, Write };

/// One block-sized memory segment of a bio's payload.
struct BioVec {
  std::uint64_t blockno = 0;
  std::span<std::byte> data{};          // destination (Read)
  std::span<const std::byte> wdata{};   // source (Write)
};

/// One logical block-I/O request: `op` over consecutive blocks.
struct Bio {
  BioOp op = BioOp::Read;
  std::vector<BioVec> vecs;
  /// Absolute virtual completion time, set by RequestQueue::submit.
  sim::Nanos done_at = 0;
  /// Whether the command actually executed against media. Reads are always
  /// applied; a write bio issued at or after the crash model's kill point
  /// is accepted (and timed) but never reaches media, and stays false.
  /// Dirty-state owners (the buffer cache) must not clear dirty bits for
  /// unapplied writes.
  bool applied = false;
  /// The command touched a faulted block or a fault window (the
  /// member-failure fault model; see BlockDevice::inject_read_error /
  /// inject_write_error / set_fault_schedule). The whole command fails —
  /// no data was transferred — and `applied` stays false. Redundant
  /// volumes retry the bio on a mirror; plain consumers treat it like any
  /// other I/O error.
  bool io_error = false;
  /// The failure that set io_error was TRANSIENT (an injected transient
  /// error or a scheduled fault window) rather than a sticky medium error:
  /// the request queue's retry policy may reissue the bio. Cleared before
  /// each retry attempt; left set alongside io_error on exhaustion so
  /// stats can tell the failure classes apart.
  bool retryable = false;
  /// Retry attempts the request queue made for this bio (0 on the
  /// zero-fault path).
  std::uint32_t retries = 0;
  /// Virtual time the bio entered a queue (a volume's or a request
  /// queue, whichever first; -1 = not yet queued). The Q→D queue-wait
  /// histograms are derived from this; set once, never reset.
  sim::Nanos queued_at = -1;
  /// Trace identity (0 = unassigned). Assigned at the first Q event when
  /// the device tree is traced; a volume fragment carries its logical
  /// parent's id in parent_trace_id so the analyzer can stitch fan-outs.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_trace_id = 0;

  Bio() = default;
  explicit Bio(BioOp o) : op(o) {}

  [[nodiscard]] bool empty() const { return vecs.empty(); }
  [[nodiscard]] std::size_t nblocks() const { return vecs.size(); }
  [[nodiscard]] std::uint64_t first_block() const {
    assert(!vecs.empty());
    return vecs.front().blockno;
  }
  /// One past the last block (the merge point for an adjacent bio).
  [[nodiscard]] std::uint64_t end_block() const {
    assert(!vecs.empty());
    return vecs.back().blockno + 1;
  }

  /// Append a read segment; blocks in one bio must be consecutive.
  void add_read(std::uint64_t blockno, std::span<std::byte> out) {
    assert(op == BioOp::Read);
    assert(out.size() >= kBlockSize);
    assert(vecs.empty() || blockno == end_block());
    vecs.push_back(BioVec{blockno, out.subspan(0, kBlockSize), {}});
  }

  /// Append a write segment; blocks in one bio must be consecutive.
  void add_write(std::uint64_t blockno, std::span<const std::byte> in) {
    assert(op == BioOp::Write);
    assert(in.size() >= kBlockSize);
    assert(vecs.empty() || blockno == end_block());
    vecs.push_back(BioVec{blockno, {}, in.subspan(0, kBlockSize)});
  }

  static Bio single_read(std::uint64_t blockno, std::span<std::byte> out) {
    Bio b(BioOp::Read);
    b.add_read(blockno, out);
    return b;
  }

  static Bio single_write(std::uint64_t blockno,
                          std::span<const std::byte> in) {
    Bio b(BioOp::Write);
    b.add_write(blockno, in);
    return b;
  }
};

/// Batch-level accounting; request-level counts (requests, merges,
/// blocks) live in DeviceStats, where the merged commands execute.
struct RequestQueueStats {
  std::uint64_t batches = 0;        // submit() + submit_async() calls
  std::uint64_t bios = 0;           // bios submitted
  std::uint64_t async_batches = 0;  // batches submitted without a barrier
  std::uint64_t max_inflight = 0;   // peak unredeemed async tickets
  // ---- transient-error retry policy (see RetryPolicy) ----
  std::uint64_t retries = 0;            // retry attempts issued
  std::uint64_t retry_successes = 0;    // retried bios that then completed
};

/// Bounded-retry policy for transient failures, applied per bio by the
/// request queue: a bio that fails with Bio::retryable set is reissued up
/// to `max_retries` times, each attempt `backoff` after the previous
/// failure's completion (in virtual time — the md/SCSI mid-layer requeue).
/// The default (max_retries = 0) disables retry entirely, keeping the
/// zero-fault path bit-identical.
struct RetryPolicy {
  std::uint32_t max_retries = 0;
  sim::Nanos backoff = sim::usec(50);

  bool operator==(const RetryPolicy&) const = default;
};

/// Value-batch to pointer-batch conversion (the device layer's entry
/// points and the queue's span<Bio> convenience overloads both funnel
/// through the pointer shape).
inline std::vector<Bio*> bio_ptrs(std::span<Bio> bios) {
  std::vector<Bio*> ptrs;
  ptrs.reserve(bios.size());
  for (Bio& b : bios) ptrs.push_back(&b);
  return ptrs;
}

/// Handle for an in-flight async batch. Redeem with RequestQueue::wait;
/// default-constructed tickets are empty and wait() on them is a no-op.
/// Tickets may be redeemed in any order — each one independently records
/// its batch's completion time, so wait order does not affect the clock a
/// thread ends up at after redeeming a set of tickets.
struct Ticket {
  sim::Nanos done = 0;
  std::uint64_t id = 0;  // 0 = empty
  /// At least one bio of the ticket's batch failed (io_error after any
  /// retries) — set at submission, when media effects land, so a journal
  /// can check it before issuing dependent writes without redeeming the
  /// ticket first.
  bool failed = false;

  [[nodiscard]] bool valid() const { return id != 0; }
};

/// The per-device request queue. All timed block traffic goes through
/// submit(); BlockDevice owns one (BlockDevice::queue()).
class RequestQueue {
 public:
  explicit RequestQueue(BlockDevice& dev) : dev_(&dev) {}

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Submit a batch: sort, merge, dispatch across device channels, then
  /// wait for the whole batch (timed). Returns the completion time of the
  /// last request; each bio's own completion is left in its done_at.
  /// Reads and writes in one batch must not overlap block ranges (no
  /// consumer mixes them; a batch is one direction of one subsystem).
  sim::Nanos submit(std::span<Bio> bios);
  /// Pointer-batch form (the device layer's impl hooks hand the batch
  /// over as pointers; same semantics).
  sim::Nanos submit(std::span<Bio* const> bios);

  /// One-bio convenience (the scalar read/write path).
  sim::Nanos submit(Bio& bio) { return submit(std::span<Bio>(&bio, 1)); }

  /// Non-barrier submission: sort, merge, and dispatch the batch across
  /// device channels exactly like submit(), but do NOT advance the calling
  /// thread to the batch's completion. The returned Ticket records the
  /// completion time of the batch's last request; redeem it with wait().
  /// A later submission (async or not) queues behind this batch on busy
  /// channels, which is what lets one thread hold QD>1 against the device.
  /// Media effects and the crash model's write-command count still happen
  /// at submission, in submission order.
  Ticket submit_async(std::span<Bio> bios);
  Ticket submit_async(std::span<Bio* const> bios);

  /// Redeem a ticket: advance the calling thread to the batch's completion
  /// (no-op for empty tickets or if the caller's clock is already past it).
  /// Returns the batch completion time. Tickets may be redeemed in any
  /// order and at most once each meaningfully; extra waits are harmless.
  sim::Nanos wait(const Ticket& t);

  /// Unredeemed async tickets (diagnostics). Tracked by ticket identity,
  /// so redundant waits on an already-redeemed ticket stay harmless.
  [[nodiscard]] std::uint64_t inflight() const {
    return outstanding_.size();
  }

  [[nodiscard]] const RequestQueueStats& stats() const { return stats_; }

  /// Arm (or disarm, with max_retries = 0) the transient-error retry
  /// policy. Normally set through BlockDevice::set_retry_policy, which a
  /// volume fans out to every member queue.
  void set_retry_policy(const RetryPolicy& p) { policy_ = p; }
  [[nodiscard]] const RetryPolicy& retry_policy() const { return policy_; }

 private:
  /// Sort + merge + dispatch; fills done_at, returns last completion.
  sim::Nanos start_batch(std::span<Bio* const> bios);
  void dispatch(std::vector<Bio*>& list, sim::Nanos& last_done);
  /// Reissue one transiently-failed bio per the retry policy; updates
  /// done_at/io_error in place and folds the final completion into
  /// `last_done`.
  void retry_bio(Bio& b, sim::Nanos& last_done);

  BlockDevice* dev_;
  RetryPolicy policy_;
  std::uint64_t next_ticket_ = 1;
  std::unordered_set<std::uint64_t> outstanding_;  // unredeemed ticket ids
  RequestQueueStats stats_;
};

}  // namespace bsim::blk
