// AggregateDevice: the common base of every multi-member volume (striped,
// mirrored, parity). One place owns the machinery that used to be
// duplicated per volume type:
//
//   - ownership of the member BlockDevices (each with its own
//     RequestQueue, so every member elevator-sorts and merges its share
//     independently) plus optional cold hot-spare devices;
//   - async ticket fan-out/fan-in: a volume submission hands each member
//     its batch through submit_async, collects (member, Ticket) pairs, and
//     redeems them on wait() — the caller's single submit()/submit_async()
//     therefore holds QD>1 across members in virtual time;
//   - the logical-write-bio crash model: kill_after(n) counts LOGICAL
//     write bios in the single-device queue's stable first-block sort
//     order, so a volume crash sweep selects the SAME n bios as the same
//     trace on one device; at expiry every member is power_off()'d at one
//     instant. kill_after_child(i, n) arms a per-member kill instead;
//     crash()/enable_crash_tracking() fan out in member-index order
//     (deterministic rng consumption);
//   - per-member DeviceStats aggregation (stats() is a live re-aggregated
//     view, like a plain device's);
//   - member health (fail_member fail-stop), online rebuild (resync
//     cursor on a dedicated sim thread, poked forward by foreground
//     submissions, bounded by a lead window), hot spares (a spare is
//     swapped into a failed slot and rebuilt automatically), and a
//     background scrub pass — all shared; subclasses supply only the
//     redundancy policy (where rebuild source data comes from, what a
//     scrub step verifies).
//
// Subclasses implement route_policy(): given the batch already classified
// by the kill model (surviving writes, killed writes, reads), submit it to
// the members in whatever order and grouping the volume's geometry
// demands. Everything else — entry points, ticket bookkeeping, crash
// fan-out, stats — lives here.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blockdev/device.h"
#include "sim/thread.h"

namespace bsim::blk {

/// Volume-level counters every aggregate maintains; subclasses fold these
/// into their own volume_stats() structs (whose field names the tests
/// already use) and add their policy-specific counters on top.
struct AggregateVolumeStats {
  std::uint64_t batches = 0;        // submit() + submit_async() calls
  std::uint64_t bios = 0;           // logical bios submitted
  std::uint64_t async_batches = 0;
  std::uint64_t max_inflight = 0;   // peak unredeemed volume tickets
  // ---- rebuild ----
  std::uint64_t rebuilds_started = 0;
  std::uint64_t rebuilds_completed = 0;
  std::uint64_t rebuilds_aborted = 0;   // member failed mid-rebuild
  std::uint64_t rebuild_copied = 0;     // member blocks written by resync
  std::uint64_t rebuild_throttle_yields = 0;  // backpressure pauses
  // ---- hot spares ----
  std::uint64_t spares_deployed = 0;    // spare swapped into a failed slot
  // ---- scrub ----
  std::uint64_t scrub_steps = 0;        // scrub work units executed
  std::uint64_t scrub_mismatches = 0;   // inconsistencies detected
  std::uint64_t scrub_repairs = 0;      // inconsistencies repaired
};

class AggregateDevice : public BlockDevice {
 public:
  ~AggregateDevice() override;

  // ---- member introspection ----
  [[nodiscard]] std::size_t members() const { return children_.size(); }
  [[nodiscard]] BlockDevice& member(std::size_t i) { return *children_[i]; }
  [[nodiscard]] bool healthy(std::size_t i) const { return healthy_[i]; }
  [[nodiscard]] std::size_t healthy_members() const;
  /// Degraded: at least one member is failed or still rebuilding.
  [[nodiscard]] bool degraded() const {
    return healthy_members() < children_.size();
  }
  [[nodiscard]] std::size_t spares_available() const { return spares_.size(); }
  [[nodiscard]] std::uint64_t inflight() const { return outstanding_.size(); }
  [[nodiscard]] const AggregateVolumeStats& aggregate_stats() const {
    return astats_;
  }

  // ---- member failure + online rebuild + hot spares ----
  /// Fail-stop member `i`: from now on it serves no I/O and receives no
  /// writes; the volume runs degraded on the survivors. Aborts an
  /// in-flight rebuild that was using `i` as target or source. If a hot
  /// spare is available (and redundancy permits), the spare is swapped
  /// into the slot and a rebuild starts automatically.
  void fail_member(std::size_t i);
  /// Begin resyncing failed member `i` from the volume's redundancy. The
  /// copy runs on the rebuild thread's clock, poked forward by foreground
  /// submissions; drive it to completion with finish_rebuild().
  void start_rebuild(std::size_t i);
  [[nodiscard]] bool rebuild_active() const {
    return rebuild_target_.has_value();
  }
  [[nodiscard]] std::optional<std::size_t> rebuild_target() const {
    return rebuild_target_;
  }
  /// Next member-local block the resync will copy.
  [[nodiscard]] std::uint64_t rebuild_cursor() const { return rebuild_cursor_; }
  /// Run the resync to completion and advance the calling thread past it
  /// (the "wait for md to finish" barrier). No-op when no rebuild is on.
  void finish_rebuild();

  // ---- scrub ----
  /// Begin one background verification pass over the volume's redundancy
  /// (parity check / replica compare, with repair). Advances on foreground
  /// pokes like a rebuild; finish_scrub() drives it to completion.
  void start_scrub();
  [[nodiscard]] bool scrub_active() const { return scrub_on_; }
  void finish_scrub();

  // ---- crash model ----
  void enable_crash_tracking() override;
  void kill_after(std::uint64_t n) override;
  /// Cut power to ONE member after `n` more of ITS write commands
  /// (member bios, counted in that member queue's dispatch order).
  void kill_after_child(std::size_t child, std::uint64_t n);
  void power_off() override;
  /// Default: the volume is dead when ANY member is (no redundancy).
  /// Redundant volumes override with their own survival rule.
  [[nodiscard]] bool dead() const override;
  void crash(double survive_p, sim::Rng& rng) override;

  // ---- fault-model fan-out (members inherit the volume's faults; the
  // per-block inject_read_error/inject_write_error routing is geometry-
  // specific and lives in the subclasses) ----
  /// Arm every member: each independently fails its next `k` accesses.
  void inject_transient_errors(std::uint64_t k) override;
  /// Arm every member with a per-member derived seed, so replicas do not
  /// fail in lockstep and redundancy/retry have something to work with.
  void set_fault_schedule(const FaultSchedule& s) override;
  void clear_fault_schedule() override;
  /// Retries run where faults fire: on every member's request queue.
  void set_retry_policy(const RetryPolicy& p) override;

  [[nodiscard]] std::uint64_t dirty_blocks() const override;
  [[nodiscard]] const DeviceStats& stats() const override;

  /// Register the volume AND every member in the shared trace: the volume
  /// takes `name`, member `i` takes "<name>/<i>" (recursively for nested
  /// volumes, e.g. RAID10's mirrors). Volume-level Q/C events land on the
  /// volume slot; member queues emit their own Q/M/D/C per fragment.
  void install_tracer(const std::shared_ptr<Tracer>& t,
                      const std::string& name) override;

 protected:
  using ChildTickets = std::vector<std::pair<std::size_t, Ticket>>;

  explicit AggregateDevice(DeviceParams logical_params)
      : BlockDevice(logical_params, NoBacking{}) {}

  /// Install the member (and spare) devices. Must be called exactly once,
  /// from the subclass constructor body (after geometry validation).
  void adopt_children(std::vector<std::unique_ptr<BlockDevice>> children,
                      std::vector<std::unique_ptr<BlockDevice>> spares = {},
                      std::size_t rebuild_batch = 64,
                      sim::Nanos rebuild_lead = 2 * sim::kMillisecond);

  // ---- submission skeleton (BlockDevice impl hooks) ----
  sim::Nanos submit_impl(std::span<Bio* const> bios) override;
  Ticket submit_async_impl(std::span<Bio* const> bios) override;
  sim::Nanos wait_impl(const Ticket& t) override;
  sim::Nanos flush_nowait_impl() override;

  /// Policy hook: submit one batch, already classified by the kill model.
  /// `writes` are the surviving write bios in stable first-block order;
  /// when `fire` is set the implementation must call mark_volume_dead()
  /// after submitting them and then submit `killed` (which every member,
  /// now powered off, swallows); `reads` are in submission order and may
  /// be routed before or after the writes as the geometry demands.
  virtual void route_policy(const std::vector<Bio*>& writes,
                            const std::vector<Bio*>& killed, bool fire,
                            const std::vector<Bio*>& reads,
                            ChildTickets& tickets, sim::Nanos& last_done) = 0;

  /// The kill expired mid-batch: power dies across the whole volume AT
  /// THIS INSTANT — every member swallows all later write commands and
  /// flushes (accepted and timed, never applied), the same moment the
  /// single-device countdown would flip dead_.
  void mark_volume_dead();

  /// Serving members receive writes/flushes: healthy ones plus a rebuild
  /// target (which absorbs foreground writes while resyncing).
  [[nodiscard]] bool serves_writes(std::size_t i) const {
    return healthy_[i] || rebuild_target_ == i;
  }

  /// Whether the whole-volume kill fired (every member powered off at one
  /// instant) — distinct from individual member death.
  [[nodiscard]] bool volume_killed() const { return volume_dead_; }

  // ---- redundancy-policy hooks ----
  /// Fill rebuild_buf_[0..n) with the content of member-local blocks
  /// [start, start+n) of the rebuild target, reading peers through their
  /// queues (timed on the calling — rebuild — thread). Return false when
  /// no source can serve the range (the rebuild aborts). Default: no
  /// redundancy, no source.
  virtual bool rebuild_source_read(std::uint64_t start, std::uint64_t n);
  /// Whether the surviving members can regenerate failed member `target`.
  virtual bool has_rebuild_source(std::size_t /*target*/) const {
    return false;
  }
  /// Total member-local work units in one scrub pass (0: no scrub).
  virtual std::uint64_t scrub_extent() const { return 0; }
  /// Verify (and repair) the work unit at `cursor`; returns units consumed
  /// (>= 1). Timed on the calling — scrub — thread.
  virtual std::uint64_t scrub_step(std::uint64_t cursor);
  virtual void on_scrub_complete() {}
  /// Member content or health changed outside route_policy: fail_member,
  /// rebuild start and finish, power loss, crash. A volume that remembers
  /// what its members hold forgets it here. Default: nothing remembered.
  virtual void forget_member_state() {}

  /// Advance the resync/scrub while their clocks stay within the lead
  /// window of `horizon` (called from every foreground submission).
  void rebuild_poke(sim::Nanos horizon);
  void scrub_poke(sim::Nanos horizon);

  std::vector<std::unique_ptr<BlockDevice>> children_;
  std::vector<bool> healthy_;
  std::vector<BlockData> rebuild_buf_;
  AggregateVolumeStats astats_;

 private:
  void pokes();
  ChildTickets route_batch(std::span<Bio* const> bios, sim::Nanos& last_done);
  void rebuild_copy_step();
  void complete_rebuild();
  void abort_rebuild();
  void scrub_step_once();
  /// Swap a spare into failed slot `i` and start rebuilding it.
  void maybe_deploy_spare(std::size_t i);

  // Logical-bio kill model (see class comment).
  bool kill_armed_ = false;
  std::uint64_t kill_countdown_ = 0;
  bool volume_dead_ = false;

  // Online rebuild.
  std::optional<std::size_t> rebuild_target_;
  std::uint64_t rebuild_cursor_ = 0;
  std::size_t rebuild_batch_ = 64;
  sim::Nanos rebuild_lead_ = 2 * sim::kMillisecond;
  sim::SimThread rebuild_thread_{-16};

  // Scrub pass.
  bool scrub_on_ = false;
  std::uint64_t scrub_cursor_ = 0;
  sim::SimThread scrub_thread_{-17};

  // Hot spares (cold standby) and retired members (kept alive so stale
  // references held across a spare swap stay valid).
  std::vector<std::unique_ptr<BlockDevice>> spares_;
  std::vector<std::unique_ptr<BlockDevice>> retired_;

  std::uint64_t next_ticket_ = 1;
  std::unordered_map<std::uint64_t, ChildTickets> outstanding_;
  mutable DeviceStats agg_;  // stats() aggregation scratch
};

}  // namespace bsim::blk
