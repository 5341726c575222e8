// Redundant volumes: RAID1 mirroring of N member BlockDevices behind the
// ordinary BlockDevice interface.
//
// The shared aggregate machinery — member ownership, async ticket
// fan-out/fan-in, the logical-write-bio crash model, member health,
// online rebuild, hot spares, scrub scaffolding, stats aggregation —
// lives in AggregateDevice (blockdev/aggregate.h); this class keeps only
// the mirroring policy. Writes are replicated to every serving member —
// each member owns its own RequestQueue (independent elevator/merge), the
// volume hands each member its copy of the batch through `submit_async`,
// so one caller transfers to all replicas concurrently in virtual time (a
// mirrored write costs what a single-device write costs, not N of them).
// Reads are balanced across the healthy members by a per-bio policy:
//   - round-robin (`policy=rr`, default): cycle through healthy members;
//   - shortest-queue (`policy=sq`): pick the member with the lowest
//     expected completion time — outstanding volume-submitted work PLUS
//     an EWMA of the member's observed per-bio completion latency
//     (Bio::done_at), with cumulative DeviceStats::busy as the
//     tie-break. The latency term makes an intrinsically slow replica
//     (degraded flash, a rebuilding member) repel reads even when queue
//     depths are momentarily equal.
// With all members healthy an N-way mirror therefore serves ~N× the
// random-read bandwidth of one device.
//
// Member-failure fault model — distinct from the power-loss crash model:
//   - fail_member(i): fail-stop. The member vanishes from now on (its
//     content freezes); no further reads or writes are routed to it. The
//     volume keeps serving from the survivors ("degraded mode"). With a
//     hot spare configured ("spare=N"), the spare takes over the slot and
//     rebuilds automatically.
//   - BlockDevice::inject_read_error(b) on a member: reads of that block
//     fail on that member only (Bio::io_error). The volume retries the
//     bio on another healthy member (read_error_failovers) and only
//     propagates io_error when every healthy member fails it.
//
// Online rebuild (machinery in AggregateDevice): the resync source is the
// healthy peer with the lowest observed completion-latency EWMA — the
// same signal the sq read policy uses — so a slow replica is not made
// slower by also feeding the resync. A scrub pass compares the replicas
// block-for-block and repairs divergent copies from the first healthy
// member.
//
// Stacking: RAID10 = StripedDevice constructed over MirroredDevice
// members (see StripedDevice's prebuilt-children constructor). The mirror
// reports fan_out() == 1 — it IS one logical device (one flusher, one
// buffer shard); per-stripe fan-out comes from the striping layer above.
#pragma once

#include <memory>
#include <vector>

#include "blockdev/aggregate.h"

namespace bsim::blk {

enum class MirrorReadPolicy : std::uint8_t { RoundRobin, ShortestQueue };

struct MirrorParams {
  std::size_t nmirrors = 2;
  MirrorReadPolicy policy = MirrorReadPolicy::RoundRobin;
  /// Hot spares kept on cold standby (deployed on fail_member).
  std::size_t nspares = 0;
  /// One replica-verification pass starts with the first submission.
  bool auto_scrub = false;
  /// Blocks copied per rebuild step (one read + one write submission).
  std::size_t rebuild_batch = 64;
  /// Backpressure: how far the rebuild clock may run ahead of the thread
  /// that poked it before the rebuild yields to foreground I/O.
  sim::Nanos rebuild_lead = 2 * sim::kMillisecond;
};

struct MirrorVolumeStats {
  std::uint64_t batches = 0;        // submit() + submit_async() calls
  std::uint64_t bios = 0;           // logical bios submitted
  std::uint64_t replicated_writes = 0;  // member write bios produced
  std::uint64_t balanced_reads = 0;     // read bios routed by policy
  std::uint64_t sequential_affinity_reads = 0;  // kept on the stream member
  std::uint64_t degraded_reads = 0;   // reads served while degraded
  std::uint64_t degraded_writes = 0;  // writes served while degraded
  std::uint64_t redirected_reads = 0;   // policy pick unavailable/failed
  std::uint64_t read_error_failovers = 0;  // io_error retried on a mirror
  std::uint64_t async_batches = 0;
  std::uint64_t max_inflight = 0;   // peak unredeemed volume tickets
  // ---- rebuild (maintained by AggregateDevice) ----
  std::uint64_t rebuilds_started = 0;
  std::uint64_t rebuilds_completed = 0;
  std::uint64_t rebuilds_aborted = 0;   // member failed mid-rebuild
  std::uint64_t rebuild_copied = 0;     // blocks copied by the resync
  std::uint64_t rebuild_write_intercepts = 0;  // writes ahead of cursor
  std::uint64_t rebuild_throttle_yields = 0;   // backpressure pauses
};

class MirroredDevice final : public AggregateDevice {
 public:
  /// Uniform members: every member stores the FULL logical image, so
  /// `member_params.nblocks` is both the member and the volume size.
  MirroredDevice(MirrorParams mp, DeviceParams member_params);
  /// Heterogeneous members (e.g. one slow replica in policy tests). All
  /// members must be the same size. Spares are shaped like the first.
  MirroredDevice(MirrorParams mp, std::vector<DeviceParams> member_params);
  ~MirroredDevice() override;

  [[nodiscard]] const MirrorParams& mirror() const { return mirror_; }
  [[nodiscard]] const MirrorVolumeStats& volume_stats() const {
    const AggregateVolumeStats& a = aggregate_stats();
    vstats_.batches = a.batches;
    vstats_.bios = a.bios;
    vstats_.async_batches = a.async_batches;
    vstats_.max_inflight = a.max_inflight;
    vstats_.rebuilds_started = a.rebuilds_started;
    vstats_.rebuilds_completed = a.rebuilds_completed;
    vstats_.rebuilds_aborted = a.rebuilds_aborted;
    vstats_.rebuild_copied = a.rebuild_copied;
    vstats_.rebuild_throttle_yields = a.rebuild_throttle_yields;
    return vstats_;
  }

  // Deliberately NOT the fan_out() protocol: a mirror is one logical
  // device to per-device subsystems (flusher sharding, buffer shards);
  // replicas are an internal redundancy detail.
  [[nodiscard]] std::size_t fan_out() const override { return 1; }
  [[nodiscard]] BlockDevice& fan_child(std::size_t i) override {
    (void)i;
    return *this;
  }

  /// Observed completion-latency EWMA for member `i` (shortest-queue
  /// policy input and resync-source selector; 0 until the member has
  /// served anything).
  [[nodiscard]] sim::Nanos member_latency_ewma(std::size_t i) const {
    return lat_ewma_[i];
  }

  void read_untimed(std::uint64_t blockno, std::span<std::byte> out) override;
  void write_untimed(std::uint64_t blockno,
                     std::span<const std::byte> in) override;

  /// Replicas die independently only through the whole-volume kill, so
  /// the volume is dead when every member is (a single dead member would
  /// be a fail_member'd one, which is degradation, not death).
  [[nodiscard]] bool dead() const override;
  void inject_read_error(std::uint64_t blockno) override;
  void inject_write_error(std::uint64_t blockno) override;
  void clear_write_error(std::uint64_t blockno) override;

 protected:
  void route_policy(const std::vector<Bio*>& writes,
                    const std::vector<Bio*>& killed, bool fire,
                    const std::vector<Bio*>& reads, ChildTickets& tickets,
                    sim::Nanos& last_done) override;

  // ---- redundancy hooks (AggregateDevice) ----
  /// Any healthy peer can regenerate a replica.
  [[nodiscard]] bool has_rebuild_source(std::size_t target) const override;
  /// Resync source: the healthy peer with the lowest latency EWMA (ties
  /// and never-observed members fall back to index order), with failover
  /// to the next candidate on a medium error.
  bool rebuild_source_read(std::uint64_t start, std::uint64_t n) override;
  /// Scrub: compare the replicas block-for-block; repair divergent copies
  /// from the first healthy member.
  [[nodiscard]] std::uint64_t scrub_extent() const override {
    return nblocks();
  }
  std::uint64_t scrub_step(std::uint64_t cursor) override;

 private:
  /// Pick the member to serve a read bio: sequential affinity first (a
  /// read continuing a stream stays on the member whose "head" is already
  /// there, like md's read_balance, so mirrored sequential streams keep
  /// the device's sequential pricing), then the configured policy.
  [[nodiscard]] std::size_t pick_read_member(std::uint64_t first_block);
  [[nodiscard]] std::size_t first_healthy() const;

  void submit_writes(const std::vector<Bio*>& parents, ChildTickets& tickets,
                     sim::Nanos& last_done);
  void submit_reads(const std::vector<Bio*>& parents, ChildTickets& tickets,
                    sim::Nanos& last_done);
  void note_submission(std::size_t member, const Ticket& t);
  /// Fold one observed bio completion (done_at - submission time) into the
  /// member's latency EWMA (alpha = 1/8, like md's io-latency averaging).
  void note_latency(std::size_t member, sim::Nanos sample);

  static DeviceParams volume_params(const std::vector<DeviceParams>& members);

  MirrorParams mirror_;
  /// Estimated absolute time each member's queue drains what WE submitted
  /// (shortest-queue policy input; per-member DeviceStats break ties).
  std::vector<sim::Nanos> busy_until_;
  /// EWMA of observed per-member completion latency (Bio::done_at minus
  /// submission time). The sq policy adds this to the outstanding-work
  /// estimate, so a member that is intrinsically slow (not merely busy)
  /// repels reads even at equal queue depth (ROADMAP follow-up).
  std::vector<sim::Nanos> lat_ewma_;
  /// One past the last block of the latest read routed to each member
  /// (the sequential-affinity "head position").
  std::vector<std::uint64_t> last_read_end_;
  std::size_t rr_next_ = 0;

  mutable MirrorVolumeStats vstats_;
};

}  // namespace bsim::blk
