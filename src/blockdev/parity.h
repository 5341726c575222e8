// Parity redundancy: RAID5 volumes (left-symmetric rotating parity) as
// the third AggregateDevice subclass.
//
// Geometry. `ndata` data columns plus one parity column live on
// ndata + 1 members; parity rotates left-symmetrically like md's default
// raid5 layout: in stripe row r the parity chunk sits on member
// p = (n-1) - (r % n), and data column d sits on member (p + 1 + d) % n.
// Every member block mb therefore belongs to one "parity line" — the
// ndata data blocks plus the parity block stored at the same mb on the
// other members — and the XOR over a line is zero when consistent, which
// is also the reconstruction rule: any one member's block equals the XOR
// of the other members' blocks at the same mb.
//
// Write paths.
//   - Full-stripe reconstruct-write: a batch that covers every data
//     column of a line (stripe-row-aligned runs, which the journal's
//     stripe-aware group commit and the flusher's clustering produce)
//     computes parity from the new data alone — no reads, ~ndata× one
//     device's sequential write bandwidth.
//   - Read-modify-write: a partial line reads the old data of the
//     written columns plus the old parity (timed, charged to the
//     submitting thread — the RMW penalty), then XORs the delta in.
//   - Degraded: a line whose RMW sources are unreadable falls back to
//     reconstruct-write from the surviving columns; with the parity
//     member gone, data writes proceed unprotected (the region stays
//     marked in the intent bitmap).
//   - Stripe cache: a bounded LRU (kStripeCacheLines lines, md's default
//     stripe_cache_size) of the columns, data and parity, whose content
//     the array itself last wrote. A write batch that completes without
//     error marks its written columns and its new parity; reads never
//     populate it. A pre-image the cache marks resident is not read
//     through the member queue: its bytes are taken untimed from the
//     member, which is exactly what the timed read would return, since
//     media effects land at submission. So the cache holds no bytes and
//     cannot go stale; it changes only virtual time and read counts. The
//     RMW-versus-reconstruct choice counts only the reads each plan still
//     needs after hits (md's rmw/rcw count). The whole cache is dropped
//     on a degraded batch, on any I/O error or unapplied write, on power
//     loss and crash, on fail_member, rebuild, scrub repair, resync(),
//     write_untimed() and a medium-error heal rewrite: after any of these
//     the first RMW pays its reads again, as a freshly assembled md array
//     does.
//
// Write hole. A parity update is two writes (data + parity) that cannot
// be atomic across members: power loss between them leaves the line's
// XOR broken, and a LATER member failure would then reconstruct garbage
// — the classic RAID5 write hole. It is closed md-style with a
// write-intent bitmap: member-local region bits, replicated on every
// member and written with FUA (BlockDevice::write_fua) BEFORE the first
// data write into a region; bits stay set ("sticky") until a scrub or
// resync() verifies the region. After a crash, resync() recomputes
// parity for every marked region from the surviving data, so degraded
// reads are trustworthy again.
//
// Reads route straight to the owning data member (striped-style
// fragments); a failed or unreadable column is reconstructed by XOR of
// the other members, and a medium error additionally rewrites the
// reconstructed block in place (self-healing, like md's read-error
// rewrite). A background scrub pass (AggregateDevice scaffolding)
// XOR-checks whole lines and repairs stale parity.
//
// Rebuild/self-healing: fail_member + start_rebuild resync a replaced
// member by XOR-reconstructing its blocks from the survivors; hot spares
// (ParityParams::nspares) deploy and rebuild automatically on fail_member.
//
// Stacking: RAID50 = StripedDevice over ParityDevice members.
// stripe_width_blocks() exposes the data row so writeback clustering
// aligns to full stripes.
#pragma once

#include <deque>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blockdev/aggregate.h"

namespace bsim::blk {

struct ParityParams {
  /// Data columns; the volume has ndata + 1 members (4 -> "4+1").
  std::size_t ndata = 4;
  std::uint64_t chunk_blocks = 16;  // 64 KiB chunks
  /// Hot spares kept on cold standby (deployed on fail_member).
  std::size_t nspares = 0;
  /// Blocks regenerated per rebuild step.
  std::size_t rebuild_batch = 64;
  sim::Nanos rebuild_lead = 2 * sim::kMillisecond;
};

/// The parity policy's own counters (submission, rebuild, spare and scrub
/// accounting shared by every volume lives in AggregateVolumeStats).
struct ParityVolumeStats {
  std::uint64_t fragments = 0;      // member data bios produced
  // ---- write-path selection ----
  std::uint64_t full_stripe_writes = 0;  // lines via reconstruct-write
  std::uint64_t rmw_writes = 0;          // lines via read-modify-write
  std::uint64_t rmw_read_blocks = 0;     // old data/parity blocks read
  std::uint64_t stripe_cache_hits = 0;   // pre-images served without a read
  std::uint64_t parity_writes = 0;       // parity blocks written
  std::uint64_t bitmap_updates = 0;      // FUA intent-bitmap writes
  // ---- degraded / self-healing ----
  std::uint64_t degraded_reads = 0;      // read bios needing reconstruction
  std::uint64_t degraded_writes = 0;     // write bios served while degraded
  std::uint64_t reconstructed_blocks = 0;  // blocks rebuilt by XOR
  std::uint64_t read_error_failovers = 0;  // medium errors healed by XOR
};

class ParityDevice final : public AggregateDevice {
 public:
  /// Member-local blocks reserved for the write-intent bitmap (replicated
  /// at the head of every member).
  static constexpr std::uint64_t kBitmapBlocks = 1;
  /// Stripe rows covered by one intent bit.
  static constexpr std::uint64_t kRegionRows = 64;
  /// Parity lines the stripe cache tracks (md's stripe_cache_size default).
  static constexpr std::size_t kStripeCacheLines = 256;

  /// Uniform members: `member_params.nblocks` is the PER-MEMBER size; the
  /// logical volume is ndata * (member blocks - bitmap, rounded down to
  /// whole chunks).
  ParityDevice(ParityParams pp, DeviceParams member_params);
  /// Heterogeneous members (fault/latency tests). All members must have
  /// the same usable size. Spares are shaped like the first.
  ParityDevice(ParityParams pp, std::vector<DeviceParams> member_params);
  /// The member shape of a volume of LOGICAL size `volume.nblocks`: a data
  /// column rounded up to whole chunks, plus the intent-bitmap head.
  [[nodiscard]] static DeviceParams member_shape(const ParityParams& pp,
                                                 DeviceParams volume);
  ~ParityDevice() override;

  [[nodiscard]] const ParityParams& parity() const { return parity_; }
  [[nodiscard]] const ParityVolumeStats& volume_stats() const {
    return vstats_;
  }

  /// One full stripe row of DATA blocks (the writeback-clustering and
  /// group-commit alignment hint: a run covering this much, row-aligned,
  /// takes the no-read reconstruct-write path).
  [[nodiscard]] std::uint64_t stripe_width_blocks() const override {
    return parity_.chunk_blocks * parity_.ndata;
  }

  // ---- geometry (exposed for tests) ----
  /// Member holding logical block `blockno`'s data.
  [[nodiscard]] std::size_t data_member_of(std::uint64_t blockno) const;
  /// Member-local block `blockno` maps to.
  [[nodiscard]] std::uint64_t child_block_of(std::uint64_t blockno) const;
  /// Member holding the parity of stripe row `row`.
  [[nodiscard]] std::size_t parity_member_of(std::uint64_t row) const;
  [[nodiscard]] std::uint64_t row_of(std::uint64_t blockno) const {
    return blockno / stripe_width_blocks();
  }

  void read_untimed(std::uint64_t blockno, std::span<std::byte> out) override;
  /// Untimed writes (mkfs, oracle image construction) keep parity
  /// consistent: the parity line is updated in the same call.
  void write_untimed(std::uint64_t blockno,
                     std::span<const std::byte> in) override;

  void inject_read_error(std::uint64_t blockno) override {
    children_[data_member_of(blockno)]->inject_read_error(
        child_block_of(blockno));
  }
  void inject_write_error(std::uint64_t blockno) override {
    children_[data_member_of(blockno)]->inject_write_error(
        child_block_of(blockno));
  }
  void clear_write_error(std::uint64_t blockno) override {
    children_[data_member_of(blockno)]->clear_write_error(
        child_block_of(blockno));
  }

  /// Crash recovery (array assembly after power loss): recompute parity
  /// for every stripe row in a region marked in the write-intent bitmap,
  /// then clear the bitmap. Untimed — the offline step run before the
  /// file system mounts, like md's bitmap-driven resync.
  void resync();
  /// Marked (not yet verified) intent regions — write-hole exposure.
  [[nodiscard]] std::size_t dirty_regions() const;

  /// Lines the stripe cache currently tracks.
  [[nodiscard]] std::size_t stripe_cache_lines() const {
    return stripe_cache_.size();
  }
  /// Forget every line, so the next RMW reads its pre-images again.
  void drop_stripe_cache() { stripe_cache_.clear(); }

  /// An array with at most one lost member serves all I/O; it is dead
  /// only through the whole-volume kill (or every member gone).
  [[nodiscard]] bool dead() const override;

 protected:
  void route_policy(const std::vector<Bio*>& writes,
                    const std::vector<Bio*>& killed, bool fire,
                    const std::vector<Bio*>& reads, ChildTickets& tickets,
                    sim::Nanos& last_done) override;

  // ---- redundancy hooks (AggregateDevice) ----
  [[nodiscard]] bool has_rebuild_source(std::size_t target) const override;
  /// XOR-reconstruct the target's member-local blocks from the other
  /// members (bitmap blocks are copied verbatim from a healthy replica).
  bool rebuild_source_read(std::uint64_t start, std::uint64_t n) override;
  /// Scrub: XOR-check whole parity lines, repair parity from data, and
  /// clear verified intent regions.
  [[nodiscard]] std::uint64_t scrub_extent() const override {
    return rows_ * parity_.chunk_blocks;
  }
  std::uint64_t scrub_step(std::uint64_t cursor) override;
  void on_scrub_complete() override;
  void forget_member_state() override { drop_stripe_cache(); }

 private:
  /// The stripe cache (see the header comment): member-local line block ->
  /// bitmask of resident columns, bit d for data column d and bit ndata
  /// for the parity. Least recently marked lines are evicted first.
  class StripeCache {
   public:
    explicit StripeCache(std::size_t capacity) : capacity_(capacity) {}
    [[nodiscard]] std::uint64_t resident(std::uint64_t mb) const {
      const auto it = index_.find(mb);
      return it == index_.end() ? 0 : it->second->second;
    }
    /// OR `cols` into the line's mask and make it the most recent line.
    void mark(std::uint64_t mb, std::uint64_t cols);
    void clear() {
      lru_.clear();
      index_.clear();
    }
    [[nodiscard]] std::size_t size() const { return lru_.size(); }

   private:
    using Line = std::pair<std::uint64_t, std::uint64_t>;  // (mb, mask)
    std::size_t capacity_;
    std::list<Line> lru_;  // front: most recently marked
    std::unordered_map<std::uint64_t, std::list<Line>::iterator> index_;
  };

  /// How one touched line's parity gets updated (or why it does not).
  enum class LinePlan {
    Full,         // parity from new data alone (covers every column)
    Rmw,          // read old data of written columns + old parity
    Reconstruct,  // read old data of the unwritten columns
    Skip,         // parity member unavailable: data goes unprotected
  };

  /// One parity line touched by a write batch: which data columns get new
  /// content, and which parent bios depend on the line's parity update.
  struct LineUpdate {
    std::vector<std::span<const std::byte>> newdata;  // per column; empty=no
    std::vector<Bio*> writers;         // parents touching the line
    std::vector<Bio*> parity_reliant;  // parents with a dropped data write
    std::size_t written = 0;
    LinePlan plan = LinePlan::Skip;
    // Prefetched pre-images (RMW / reconstruct sources), arena-backed.
    BlockData* old_parity = nullptr;
    std::vector<BlockData*> olddata;  // per column; null = not needed
    bool ok = true;  // prefetch served (else parity is skipped this round)
  };

  [[nodiscard]] std::uint64_t nmembers() const { return children_.size(); }
  /// Member-local data blocks (excludes the bitmap head).
  [[nodiscard]] std::uint64_t member_usable() const {
    return rows_ * parity_.chunk_blocks;
  }
  [[nodiscard]] std::uint64_t region_of_mb(std::uint64_t mb) const {
    return (mb - kBitmapBlocks) / parity_.chunk_blocks / kRegionRows;
  }

  void submit_write_lines(const std::vector<Bio*>& parents,
                          ChildTickets& tickets, sim::Nanos& last_done);
  /// Route killed writes: data fragments only — every member is powered
  /// off, so RMW reads and parity updates are pointless work the real
  /// array never got to do.
  void submit_dead_writes(const std::vector<Bio*>& parents,
                          ChildTickets& tickets, sim::Nanos& last_done);
  void submit_reads(const std::vector<Bio*>& parents, ChildTickets& tickets,
                    sim::Nanos& last_done);
  /// Mark the intent regions the batch touches; FUA-writes the bitmap
  /// block to every serving member before returning.
  void mark_regions(const std::map<std::uint64_t, LineUpdate>& lines);
  /// Timed XOR reconstruction of one member-local block of member `m`
  /// from the other members' queues. `bio_done` is max-ed with the peer
  /// completions. Returns false on a medium error.
  bool reconstruct_block_timed(std::size_t m, std::uint64_t mb,
                               std::span<std::byte> out, ChildTickets& tickets,
                               sim::Nanos& last_done, sim::Nanos& bio_done);
  /// Untimed XOR reconstruction (recovery/oracle paths).
  void reconstruct_block_untimed(std::size_t m, std::uint64_t mb,
                                 std::span<std::byte> out);
  void recompute_row_untimed(std::uint64_t row);
  void write_bitmap_page(bool timed);

  static DeviceParams volume_params(const ParityParams& pp,
                                    const std::vector<DeviceParams>& members);

  ParityParams parity_;
  std::uint64_t rows_ = 0;
  /// The running scrub pass skipped verification somewhere (degraded, a
  /// faulted read, a lost repair): on_scrub_complete keeps the intent
  /// bits. Reset when the pass's completion is processed.
  bool scrub_skipped_ = false;
  std::vector<bool> region_dirty_;   // in-memory intent bitmap
  BlockData bitmap_page_;            // on-media image (replicated)
  StripeCache stripe_cache_{kStripeCacheLines};
  ParityVolumeStats vstats_;
};

}  // namespace bsim::blk
