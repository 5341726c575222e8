// A Strata-style NVM operation log prepended to a Bento file system
// (paper §3): "prepending an operation log stored in NVM can dramatically
// improve write performance while reducing vulnerability to application-
// level bugs. These operation logs can be replicated for high
// availability [Assise]."
//
// NvmLogFs stacks *above* any FileSystem on the same superblock (a
// StackedFs: what it does not override is forwarded with a reborrowed
// capability — the same-trust-domain composition Challenge 6 asks
// about). The fast path:
//
//   write(ino, off, data)  → append one checksummed record to the NVM log
//                            (cacheline-cost stores) + update a DRAM
//                            extent overlay. No block I/O.
//   fsync                  → one NVM persist barrier (~0.5 us). No journal
//                            commit, no device FLUSH. This is Strata's
//                            headline: small synchronous writes at
//                            persistence-domain latency.
//   read/getattr           → lower result overlaid with pending extents.
//   digest                 → when the log passes its watermark (or at
//                            sync_fs/unmount), pending extents are written
//                            through to the lower FS in bulk, the lower
//                            FS syncs them, and only then is the log
//                            truncated. Sequential bulk writes amortize
//                            the block stack exactly as Strata's digests
//                            do.
//
// Recovery: init() replays the log from NVM — records carry a checksum,
// so a torn tail (crash mid-append or before the barrier) is detected and
// dropped; everything up to the last persisted record is recovered
// (tested with NvmRegion::crash()).
//
// Namespace operations pass through to the lower FS synchronously: Strata
// logs those too, but data-path latency is what the paper's motivation
// cites, and passthrough keeps the lower FS the single namespace
// authority (documented simplification; see DESIGN.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bento/stacked.h"
#include "blockdev/nvm.h"

namespace bsim::bento {

class NvmLogFs final : public StackedFs {
 public:
  struct Options {
    /// Digest when the log holds this many bytes.
    std::size_t digest_watermark = 16ull << 20;
  };

  /// `lower` runs against the same superblock; `nvm` is the persistence
  /// domain for the log (shared so a post-crash instance can recover it).
  NvmLogFs(std::unique_ptr<FileSystem> lower,
           std::shared_ptr<blk::NvmRegion> nvm, Options opts);
  NvmLogFs(std::unique_ptr<FileSystem> lower,
           std::shared_ptr<blk::NvmRegion> nvm)
      : NvmLogFs(std::move(lower), std::move(nvm), Options{}) {}
  ~NvmLogFs() override;

  [[nodiscard]] std::string_view version() const override {
    return "nvmlog-v1";
  }

  kern::Err init(const Request& req, SbRef sb) override;
  void destroy(const Request& req, SbRef sb) override;

  Result<EntryOut> lookup(const Request& req, SbRef sb, Ino parent,
                          std::string_view name) override;
  Result<FileAttr> getattr(const Request& req, SbRef sb, Ino ino) override;
  Result<FileAttr> setattr(const Request& req, SbRef sb, Ino ino,
                           const SetAttrIn& attr) override;
  kern::Err unlink(const Request& req, SbRef sb, Ino parent,
                   std::string_view name) override;
  kern::Err rename(const Request& req, SbRef sb, Ino old_parent,
                   std::string_view old_name, Ino new_parent,
                   std::string_view new_name) override;

  Result<std::uint32_t> read(const Request& req, SbRef sb, Ino ino,
                             std::uint64_t fh, std::uint64_t off,
                             std::span<std::byte> out) override;
  Result<std::uint32_t> write(const Request& req, SbRef sb, Ino ino,
                              std::uint64_t fh, std::uint64_t off,
                              std::span<const std::byte> in) override;
  Result<std::uint32_t> write_bulk(
      const Request& req, SbRef sb, Ino ino, std::uint64_t off,
      std::span<const std::span<const std::byte>> pages) override;
  kern::Err fsync(const Request& req, SbRef sb, Ino ino, std::uint64_t fh,
                  bool datasync) override;
  Result<StatfsOut> statfs(const Request& req, SbRef sb) override;
  kern::Err sync_fs(const Request& req, SbRef sb) override;

  /// Write all pending extents through to the lower FS, sync it, and
  /// truncate the log. Public so tests and the ablation can digest
  /// deterministically.
  kern::Err digest(const Request& req, SbRef sb);

  struct Stats {
    std::uint64_t log_appends = 0;
    std::uint64_t log_bytes = 0;
    std::uint64_t digests = 0;
    std::uint64_t digested_bytes = 0;
    std::uint64_t recovered_records = 0;
    std::uint64_t torn_records_dropped = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void dump_stats(sim::JsonWriter& w) const override;
  [[nodiscard]] std::size_t pending_bytes() const;

 private:
  /// One file's pending data: non-overlapping extents, offset-ordered.
  struct Pending {
    std::map<std::uint64_t, std::vector<std::byte>> extents;
    std::uint64_t size_floor = 0;  // file size implied by logged writes
  };

  /// Insert `data` at `off`, splitting/trimming older overlapping extents
  /// (last write wins).
  static void overlay_insert(Pending& p, std::uint64_t off,
                             std::span<const std::byte> data);

  kern::Err append_record(Ino ino, std::uint64_t off,
                          std::span<const std::byte> data, std::uint16_t op);
  /// Scatter-gather append: one record (header + checksum) covering all
  /// `segs` as a contiguous payload at `off` — the bulk-write fast path.
  kern::Err append_record_gather(Ino ino, std::uint64_t off,
                                 std::span<const std::span<const std::byte>> segs,
                                 std::uint16_t op);
  /// Drop pending extents at/after `size` and trim a straddler (the
  /// in-memory effect of a truncate; shared by setattr and replay).
  static void apply_truncate(Pending& p, std::uint64_t size);
  void replay_log();
  void truncate_log();
  void drop_pending(Ino ino);

  std::shared_ptr<blk::NvmRegion> nvm_;
  Options opts_;
  std::map<Ino, Pending> pending_;
  std::size_t log_tail_ = 0;   // next append offset in the NVM region
  std::uint64_t next_seq_ = 1;
  Stats stats_;
};

}  // namespace bsim::bento
