// NVMe-like simulated block device (the paper's Samsung PM981 SSD).
//
// Data is stored for real (sparse, 4 KiB blocks) so file systems above it
// are functionally exercised; service times are charged to the current
// simulated thread. The device has:
//   - bounded internal parallelism (channels),
//   - distinct sequential vs random read service times,
//   - a volatile write cache: writes complete once transferred; they become
//     durable only on FLUSH (or forced destage when the cache fills),
//   - an explicit FLUSH whose cost grows with the dirty-block count.
// All timed I/O enters through the bio/request layer (blockdev/bio.h):
// RequestQueue::submit merges adjacent bios and dispatches each merged
// request to the earliest-free channel, so a batch overlaps up to
// `channels` requests in virtual time. The scalar read()/write() calls are
// one-bio wrappers kept for convenience.
// Crash tracking (for journal crash-consistency tests) can revert all
// non-durable writes, optionally keeping a caller-chosen subset to model
// partially persisted write caches.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blockdev/bio.h"
#include "blockdev/trace.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace bsim::blk {

using BlockData = std::array<std::byte, kBlockSize>;

struct DeviceParams {
  std::uint64_t nblocks = 262'144;  // 1 GiB default
  int channels = 8;                 // internal parallelism
  sim::Nanos read_lat_rand = sim::usec(80);  // 4 KiB random read, QD1
  sim::Nanos read_lat_seq = sim::usec(12);   // 4 KiB sequential read
  sim::Nanos write_xfer = sim::usec(6);      // transfer into write cache
  sim::Nanos flush_base = sim::usec(800);    // FLUSH on consumer NVMe (no PLP)
  sim::Nanos destage_per_block = sim::usec(9);  // per dirty block on FLUSH
  std::uint64_t write_cache_blocks = 4096;   // 16 MiB volatile cache
};

/// dm-flakey-style programmable fault schedule: the device alternates an
/// `up_interval` (healthy) and a `down_interval` (faulting) in virtual
/// time, starting up at arming time; while down, each bio independently
/// fails with probability `fail_p` under a seeded RNG. With both
/// intervals zero the schedule degenerates to pure per-op probability.
/// Scheduled failures are TRANSIENT (Bio::retryable), so they compose
/// with the request queue's RetryPolicy. Evaluated at the bio's predicted
/// channel-start time, so a retry backing off past the down window heals.
struct FaultSchedule {
  sim::Nanos up_interval = 0;
  sim::Nanos down_interval = 0;
  double fail_p = 1.0;
  std::uint64_t seed = 1;
};

struct DeviceStats {
  std::uint64_t reads = 0;    // blocks read
  std::uint64_t writes = 0;   // blocks written (write commands = bios)
  std::uint64_t flushes = 0;
  std::uint64_t blocks_destaged = 0;
  sim::Nanos busy = 0;
  // ---- request-level accounting (bio layer) ----
  std::uint64_t read_requests = 0;   // merged read commands issued
  std::uint64_t write_requests = 0;  // merged write commands issued
  std::uint64_t merges = 0;          // bios folded into a preceding request
  std::uint64_t seq_read_blocks = 0; // blocks priced at read_lat_seq
  std::uint64_t max_request_blocks = 0;  // largest merged request seen
  std::uint64_t read_errors = 0;     // read bios failed by injected errors
  std::uint64_t write_errors = 0;    // write bios failed by injected errors
  std::uint64_t transient_errors = 0;   // failures from inject_transient_errors
  std::uint64_t faults_scheduled = 0;   // failures from the fault schedule
  // ---- latency attribution (per op class) ----
  // Queue wait is Q→D (bio queued until its merged request starts on a
  // channel); service is D→C (channel occupancy of the request, charged
  // once per bio sharing it). Sampled per bio so merged bios each count.
  sim::LatencyHistogram read_wait;
  sim::LatencyHistogram write_wait;
  sim::LatencyHistogram read_service;
  sim::LatencyHistogram write_service;
  sim::LatencyHistogram flush_lat;   // FLUSH submit→complete (incl. barrier)
};

class BlockDevice {
 public:
  explicit BlockDevice(DeviceParams params);
  virtual ~BlockDevice();

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  [[nodiscard]] std::uint64_t nblocks() const { return params_.nblocks; }
  [[nodiscard]] std::uint32_t block_size() const { return kBlockSize; }
  [[nodiscard]] virtual const DeviceStats& stats() const { return stats_; }
  [[nodiscard]] const DeviceParams& params() const { return params_; }
  [[nodiscard]] virtual std::uint64_t dirty_blocks() const {
    return dirty_.size();
  }

  // ---- fan-out introspection (striped volumes; see blockdev/striped.h) --
  /// Number of physical member devices behind this one (1 for a plain
  /// device). Per-device subsystems (the background flusher) size
  /// themselves by this.
  [[nodiscard]] virtual std::size_t fan_out() const { return 1; }
  /// Member device `i` (this device itself for a plain device).
  [[nodiscard]] virtual BlockDevice& fan_child(std::size_t i) {
    (void)i;
    return *this;
  }
  /// Which member device owns logical block `blockno` (0 for plain).
  [[nodiscard]] virtual std::size_t child_of(std::uint64_t blockno) const {
    (void)blockno;
    return 0;
  }
  /// Geometry hint for writeback clustering: the number of logical blocks
  /// in one full stripe row (`fan_out() * chunk_blocks` for a RAID0
  /// volume), or 0 when the device has no striping geometry. Journal
  /// group commit sizes its transactions to a multiple of this so every
  /// member receives a merged request instead of fragment slivers — the
  /// s_stripe mount hint in Linux terms.
  [[nodiscard]] virtual std::uint64_t stripe_width_blocks() const {
    return 0;
  }

  /// The device's request queue — the submission path every cache,
  /// journal, and async-syscall layer batches through. Plain devices
  /// only: a striped volume routes through submit()/submit_async(), which
  /// fan out to one queue per member device.
  [[nodiscard]] RequestQueue& queue() { return queue_; }

  /// Batched submission (timed): the batch dispatches through the
  /// device-specific path (submit_impl) and the caller waits for it.
  sim::Nanos submit(std::span<Bio> bios);

  /// One-bio convenience over the batched submission.
  sim::Nanos submit(Bio& bio) { return submit(std::span<Bio>(&bio, 1)); }

  /// Non-barrier batched submission (QD>1): the batch dispatches now,
  /// with its media effects, crash-model write counting, done_at and
  /// applied, but the caller redeems the returned ticket later (wait).
  Ticket submit_async(std::span<Bio> bios);
  sim::Nanos wait(const Ticket& t);

  // ---- blktrace-style tracing (see blockdev/trace.h) ----
  /// Arm tracing on this device tree: allocate a shared ring of `capacity`
  /// events and register this device (and, for a volume, every member as
  /// "<name>/<i>") in its device table. Armed once, at mount time, by the
  /// "-o trace=N" mount option; re-arming replaces the previous tracer.
  /// Tracing never touches the simulated clock.
  void arm_trace(std::size_t capacity, const std::string& name = "dev");
  [[nodiscard]] Tracer* tracer() const { return tracer_.get(); }
  /// Emit one event against this device's slot (no-op when not traced).
  /// Journal layers use this for their stage events; the bio path emits
  /// through the same helper internally.
  void trace_event(TraceEv ev, std::uint64_t id, std::uint64_t block,
                   std::uint32_t nblocks, TraceOp op);
  /// Attach a (shared) tracer and register this device under `name`.
  /// Aggregate volumes override to also register every member device as
  /// "<name>/<i>". Public so a volume can install into BlockDevice-typed
  /// members; arm_trace is the normal entry point.
  virtual void install_tracer(const std::shared_ptr<Tracer>& t,
                              const std::string& name);

  /// Read one block into `out` (timed). One-bio convenience wrapper.
  void read(std::uint64_t blockno, std::span<std::byte> out);

  /// Write one block from `in` into the volatile write cache (timed).
  /// One-bio convenience wrapper.
  void write(std::uint64_t blockno, std::span<const std::byte> in);

  /// FUA write: one block forced to media before completion, bypassing
  /// the volatile cache (priced as the transfer plus the block's
  /// destage). Used for md-style metadata — a parity volume's
  /// write-intent bitmap — that must be durable BEFORE dependent writes
  /// are issued, without flushing the whole cache. Does not participate
  /// in the kill_after write-command count (it is volume-internal
  /// metadata, not a logical write), but a dead device still swallows it.
  sim::Nanos write_fua(std::uint64_t blockno, std::span<const std::byte> in);

  /// FLUSH: destage the write cache and make everything durable (timed).
  void flush();

  /// FLUSH without advancing the calling thread: applies all media/state
  /// effects and returns the absolute completion time. flush() is
  /// wait_until(flush_nowait()); a striped volume flushes its members in
  /// parallel by taking the max of their completions.
  sim::Nanos flush_nowait();

  /// Untimed access for mkfs-style tooling and tests.
  virtual void read_untimed(std::uint64_t blockno, std::span<std::byte> out);
  virtual void write_untimed(std::uint64_t blockno,
                             std::span<const std::byte> in);

  // ---- Crash simulation ----
  /// Start recording pre-images of non-durable writes.
  virtual void enable_crash_tracking();
  /// Kill the device after `n` more write commands: later writes and
  /// flushes are accepted (and timed) but never change media state — the
  /// instant-power-death model used by the torn-commit crash sweep.
  /// A write command is one *bio*: a multi-block bio applies atomically,
  /// but distinct bios in one batch can straddle the kill point.
  virtual void kill_after(std::uint64_t n);
  /// Immediate power death, no countdown: from now on writes and flushes
  /// are accepted (and timed) but never change media state. kill_after's
  /// arming reaches this state lazily at the (n+1)'th write command; an
  /// aggregate volume calls power_off on every member at its own counting
  /// point so the whole volume dies at one instant.
  virtual void power_off() { dead_ = true; }
  [[nodiscard]] virtual bool dead() const { return dead_; }
  // ---- Fault injection (member-failure fault model) ----
  /// Mark `blockno` unreadable: any read bio touching it fails with
  /// Bio::io_error set (no data transferred, full latency still charged —
  /// a medium error, not power loss). The mark persists until the block
  /// is successfully rewritten, like a remapped-on-write bad sector.
  /// Distinct from kill_after/power_off, which silently swallow WRITES.
  virtual void inject_read_error(std::uint64_t blockno) {
    bad_reads_.insert(blockno);
  }
  [[nodiscard]] std::size_t injected_read_errors() const {
    return bad_reads_.size();
  }
  /// Mark `blockno` unwritable: any write bio touching it fails with
  /// Bio::io_error set (full latency charged, no media change, dirty
  /// state untouched — the write never happened). Sticky — a failed
  /// sector stays failed — until clear_write_error removes the mark
  /// (tests model repair/remap explicitly). Not retryable: the request
  /// queue's retry policy only reissues transient failures.
  virtual void inject_write_error(std::uint64_t blockno) {
    bad_writes_.insert(blockno);
  }
  virtual void clear_write_error(std::uint64_t blockno) {
    bad_writes_.erase(blockno);
  }
  [[nodiscard]] std::size_t injected_write_errors() const {
    return bad_writes_.size();
  }
  /// Fail the next `k` bios (either direction) with a TRANSIENT error
  /// (Bio::retryable set), then heal — a controller hiccup rather than a
  /// medium defect. Counts down per bio, in dispatch order; an aggregate
  /// volume arms every member independently.
  virtual void inject_transient_errors(std::uint64_t k) {
    transient_remaining_ += k;
  }
  /// Arm the programmable fault schedule (see FaultSchedule). The up
  /// window starts now; re-arming replaces the previous schedule and
  /// reseeds the RNG. An aggregate volume arms every member with a seed
  /// derived per member, so replicas do not fail in lockstep.
  virtual void set_fault_schedule(const FaultSchedule& s);
  virtual void clear_fault_schedule() { fault_sched_armed_ = false; }
  /// Arm the request queue's transient-error retry policy (see
  /// RetryPolicy). An aggregate volume fans the policy to every member
  /// queue — retries happen where the fault fired, under the volume's
  /// routing.
  virtual void set_retry_policy(const RetryPolicy& p) {
    queue_.set_retry_policy(p);
  }

  /// Simulate power loss: every write since the last flush() is reverted,
  /// except that each non-durable block independently survives with
  /// probability `survive_p` (0 = lose all volatile state). Deterministic
  /// under the given rng. Clears the dirty set; the device is then "clean".
  virtual void crash(double survive_p, sim::Rng& rng);

 protected:
  /// For aggregate devices that expose the logical geometry in `params`
  /// but keep no backing store of their own (StripedDevice).
  struct NoBacking {};
  BlockDevice(DeviceParams params, NoBacking);

  // ---- device-specific submission paths ----
  // The public submit/submit_async/wait/flush_nowait entry points are
  // non-virtual; subclasses (striped / mirrored volumes) override these
  // impl hooks instead, which take the batch as pointers.
  virtual sim::Nanos submit_impl(std::span<Bio* const> bios) {
    return queue_.submit(bios);
  }
  virtual Ticket submit_async_impl(std::span<Bio* const> bios) {
    return queue_.submit_async(bios);
  }
  virtual sim::Nanos wait_impl(const Ticket& t) { return queue_.wait(t); }
  virtual sim::Nanos flush_nowait_impl();

  /// First contact of a bio with this device's submission path: stamp
  /// queued_at (once — a volume stamps before fan-out and members keep the
  /// original time) and, when traced, assign a trace id and emit Q (plus X
  /// linking a fragment to its logical parent).
  void note_bio_queued(Bio& b);

  // ---- trace state (shared ring across a volume tree; see arm_trace) ----
  std::shared_ptr<Tracer> tracer_;
  std::uint16_t trace_dev_ = 0;  // this device's slot in the tracer

 private:
  friend class RequestQueue;

  BlockData& slot(std::uint64_t blockno);
  sim::Nanos service(sim::Nanos latency, sim::Nanos not_before = 0);
  /// Execute one merged request (same-op bios covering consecutive
  /// blocks): price it, occupy a channel, apply data. Returns the absolute
  /// completion time; does NOT wait (the queue owns the batch barrier).
  /// `start_out`, when non-null, receives the time the request began
  /// occupying its channel (completion minus service latency) — the D
  /// timestamp and the Q→D/D→C histogram split point. `not_before` delays
  /// the channel start (the retry path's virtual-time backoff).
  sim::Nanos do_request(std::span<Bio* const> bios,
                        sim::Nanos* start_out = nullptr,
                        sim::Nanos not_before = 0);
  /// Evaluate the fault model for one bio whose request starts at `at`:
  /// sticky per-block errors (direction-specific), then the transient
  /// countdown, then the fault schedule. Sets io_error (and retryable for
  /// the transient classes) and returns true when the bio must fail.
  bool fault_check(Bio& b, sim::Nanos at);
  [[nodiscard]] bool scheduled_fault_at(sim::Nanos at);
  /// Whether any fault source is armed — gates fault_check so the
  /// zero-fault path takes no new branches and consumes no RNG.
  [[nodiscard]] bool faults_armed() const {
    return !bad_reads_.empty() || !bad_writes_.empty() ||
           transient_remaining_ > 0 || fault_sched_armed_;
  }

  DeviceParams params_;
  std::vector<std::unique_ptr<BlockData>> blocks_;
  std::vector<sim::Nanos> channel_free_;
  // Non-durable blocks -> pre-image (only populated when crash tracking is
  // on; otherwise the map holds nullptr values and acts as a dirty set).
  std::unordered_map<std::uint64_t, std::unique_ptr<BlockData>> dirty_;
  std::unordered_set<std::uint64_t> bad_reads_;  // injected medium errors
  std::unordered_set<std::uint64_t> bad_writes_;  // injected write errors
  std::uint64_t transient_remaining_ = 0;  // inject_transient_errors countdown
  bool fault_sched_armed_ = false;
  FaultSchedule fault_sched_;
  sim::Nanos fault_sched_t0_ = 0;  // up window starts here
  sim::Rng fault_rng_{1};
  bool crash_tracking_ = false;
  bool dead_ = false;
  std::uint64_t kill_countdown_ = 0;
  bool kill_armed_ = false;
  std::uint64_t last_block_read_ = ~0ULL;
  DeviceStats stats_;
  RequestQueue queue_{*this};
};

}  // namespace bsim::blk
