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
// Reads are balanced across the healthy members per bio: a read that
// continues a stream stays on the member already serving it (sequential
// affinity), and every other read goes round-robin over the healthy
// members. With all members healthy an N-way mirror therefore serves ~N×
// the random-read bandwidth of one device.
//
// Member-failure fault model — distinct from the power-loss crash model:
//   - fail_member(i): fail-stop. The member vanishes from now on (its
//     content freezes); no further reads or writes are routed to it. The
//     volume keeps serving from the survivors ("degraded mode"). With a
//     hot spare configured (MirrorParams::nspares), the spare takes over
//     the slot and rebuilds automatically.
//   - BlockDevice::inject_read_error(b) on a member: reads of that block
//     fail on that member only (Bio::io_error). The volume retries the
//     bio on another healthy member (read_error_failovers) and only
//     propagates io_error when every healthy member fails it.
//
// Online rebuild (machinery in AggregateDevice): the resync source is the
// healthy peer with the lowest observed read-completion-latency EWMA, so
// a slow replica is not made slower by also feeding the resync. A scrub
// pass compares the replicas block-for-block and repairs divergent copies
// from the first healthy member.
//
// Stacking: RAID10 = StripedDevice constructed over MirroredDevice
// members (see StripedDevice's prebuilt-children constructor).
#pragma once

#include <memory>
#include <vector>

#include "blockdev/aggregate.h"

namespace bsim::blk {

struct MirrorParams {
  std::size_t nmirrors = 2;
  /// Hot spares kept on cold standby (deployed on fail_member).
  std::size_t nspares = 0;
  /// Blocks copied per rebuild step (one read + one write submission).
  std::size_t rebuild_batch = 64;
  /// Backpressure: how far the rebuild clock may run ahead of the thread
  /// that poked it before the rebuild yields to foreground I/O.
  sim::Nanos rebuild_lead = 2 * sim::kMillisecond;
};

/// The mirroring policy's own counters (submission, rebuild, spare and
/// scrub accounting shared by every volume lives in AggregateVolumeStats).
struct MirrorVolumeStats {
  std::uint64_t replicated_writes = 0;  // member write bios produced
  std::uint64_t balanced_reads = 0;     // read bios routed by policy
  std::uint64_t sequential_affinity_reads = 0;  // kept on the stream member
  std::uint64_t degraded_reads = 0;   // reads served while degraded
  std::uint64_t degraded_writes = 0;  // writes served while degraded
  std::uint64_t redirected_reads = 0;   // policy pick unavailable/failed
  std::uint64_t read_error_failovers = 0;  // io_error retried on a mirror
  std::uint64_t rebuild_write_intercepts = 0;  // writes ahead of cursor
};

class MirroredDevice final : public AggregateDevice {
 public:
  /// Uniform members: every member stores the FULL logical image, so
  /// `member_params.nblocks` is both the member and the volume size.
  MirroredDevice(MirrorParams mp, DeviceParams member_params);
  /// Heterogeneous members (e.g. one slow replica in rebuild tests). All
  /// members must be the same size. Spares are shaped like the first.
  MirroredDevice(MirrorParams mp, std::vector<DeviceParams> member_params);
  ~MirroredDevice() override;

  [[nodiscard]] const MirrorParams& mirror() const { return mirror_; }
  [[nodiscard]] const MirrorVolumeStats& volume_stats() const {
    return vstats_;
  }

  /// Observed read-completion-latency EWMA for member `i` (the
  /// resync-source selector; 0 until the member has served a read).
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
  /// the device's sequential pricing), then round-robin.
  [[nodiscard]] std::size_t pick_read_member(std::uint64_t first_block);
  [[nodiscard]] std::size_t first_healthy() const;

  void submit_writes(const std::vector<Bio*>& parents, ChildTickets& tickets,
                     sim::Nanos& last_done);
  void submit_reads(const std::vector<Bio*>& parents, ChildTickets& tickets,
                    sim::Nanos& last_done);
  /// Fold one observed bio completion (done_at - submission time) into the
  /// member's latency EWMA (alpha = 1/8, like md's io-latency averaging).
  void note_latency(std::size_t member, sim::Nanos sample);

  static DeviceParams volume_params(const std::vector<DeviceParams>& members);

  MirrorParams mirror_;
  /// EWMA of observed per-member read-completion latency (Bio::done_at
  /// minus submission time): the resync source is the lowest.
  std::vector<sim::Nanos> lat_ewma_;
  /// One past the last block of the latest read routed to each member
  /// (the sequential-affinity "head position").
  std::vector<std::uint64_t> last_read_end_;
  std::size_t rr_next_ = 0;

  MirrorVolumeStats vstats_;
};

}  // namespace bsim::blk
