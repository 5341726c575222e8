// Multi-device striped volumes: a RAID0 aggregate of N BlockDevices
// behind the ordinary BlockDevice interface.
//
// The shared aggregate machinery — per-member RequestQueues, async ticket
// fan-out/fan-in, the logical-write-bio crash model, per-member stats
// aggregation — lives in AggregateDevice (blockdev/aggregate.h); this
// class keeps only the striping policy: the chunk math and the splitting
// of logical bios into per-member fragments. A caller's single
// submit()/submit_async() holds QD>1 *across devices*: all members
// transfer concurrently in virtual time, while each member's media effects
// still land at submission, in deterministic program order (child 0 first,
// then child 1, …; within a child, the child queue's documented
// write-sorted order).
//
// Geometry (Raid0): logical blocks are grouped into chunks of
// `chunk_blocks`; chunk c lives on child c % N at child-chunk c / N.
// A logical run that crosses a chunk boundary is split there; within a
// chunk the child blocks stay consecutive, so a long sequential logical
// run becomes N long sequential child runs that merge per child.
//
// Crash model (see AggregateDevice):
//   - kill_after(n) counts *logical* write bios, in the same write-sorted
//     order the single-device queue counts them, so a striped crash sweep
//     stays comparable bio-for-bio with the same op trace on one device;
//   - kill_after_child(i, n) arms the per-member kill instead: member i
//     stops persisting after n more *fragment* write commands while the
//     other members keep going — power loss of one member mid-batch, the
//     failure mode only multi-device volumes have.
#pragma once

#include <memory>
#include <vector>

#include "blockdev/aggregate.h"

namespace bsim::blk {

struct StripeParams {
  std::size_t ndevices = 2;
  std::uint64_t chunk_blocks = 16;  // 64 KiB chunks
};

/// The striping policy's own counters (submission accounting shared by
/// every volume lives in AggregateVolumeStats).
struct StripeVolumeStats {
  std::uint64_t fragments = 0;      // child bios produced by splitting
  std::uint64_t boundary_splits = 0;  // bios that crossed a stripe boundary
};

class StripedDevice final : public AggregateDevice {
 public:
  /// Uniform members: `child_params.nblocks` is the PER-CHILD size
  /// (rounded down to a whole number of chunks).
  StripedDevice(StripeParams sp, DeviceParams child_params);
  /// Heterogeneous members (e.g. one slow member in fault tests). All
  /// children must have the same usable size.
  StripedDevice(StripeParams sp, std::vector<DeviceParams> child_params);
  /// Prebuilt members: stacking volumes, e.g. RAID10 = a stripe whose
  /// members are MirroredDevices, RAID50 = a stripe of ParityDevices.
  /// Each child is addressed purely through the BlockDevice interface
  /// (its own submit_async fans further down).
  StripedDevice(StripeParams sp,
                std::vector<std::unique_ptr<BlockDevice>> children);
  ~StripedDevice() override;

  [[nodiscard]] const StripeParams& stripe() const { return stripe_; }
  [[nodiscard]] const StripeVolumeStats& volume_stats() const {
    return vstats_;
  }

  // ---- geometry ----
  /// The member that holds logical `blockno`.
  [[nodiscard]] std::size_t child_of(std::uint64_t blockno) const;
  /// The member-local block number logical `blockno` maps to.
  [[nodiscard]] std::uint64_t child_block_of(std::uint64_t blockno) const;
  /// One full stripe row in logical blocks (the writeback-clustering
  /// geometry hint).
  [[nodiscard]] std::uint64_t stripe_width_blocks() const override {
    return stripe_.chunk_blocks * children_.size();
  }

  void read_untimed(std::uint64_t blockno, std::span<std::byte> out) override;
  void write_untimed(std::uint64_t blockno,
                     std::span<const std::byte> in) override;

  /// Route the injected medium error to the member that owns the block
  /// (the base-class default would mark it in the aggregate's own unused
  /// backing state and never fire).
  void inject_read_error(std::uint64_t blockno) override {
    children_[child_of(blockno)]->inject_read_error(child_block_of(blockno));
  }
  void inject_write_error(std::uint64_t blockno) override {
    children_[child_of(blockno)]->inject_write_error(child_block_of(blockno));
  }
  void clear_write_error(std::uint64_t blockno) override {
    children_[child_of(blockno)]->clear_write_error(child_block_of(blockno));
  }

 protected:
  /// Striping submits the surviving writes and the reads together: each
  /// member receives its fragments of the whole batch as ONE async
  /// submission (one elevator pass per member).
  void route_policy(const std::vector<Bio*>& writes,
                    const std::vector<Bio*>& killed, bool fire,
                    const std::vector<Bio*>& reads, ChildTickets& tickets,
                    sim::Nanos& last_done) override;

 private:
  /// Split `parents` into per-child fragment batches and submit each
  /// child's batch async (child index order). Appends tickets.
  void submit_fragments(const std::vector<Bio*>& parents,
                        ChildTickets& tickets, sim::Nanos& last_done);
  static DeviceParams volume_params(const StripeParams& sp,
                                    const std::vector<DeviceParams>& children);

  StripeParams stripe_;
  StripeVolumeStats vstats_;
};

}  // namespace bsim::blk
