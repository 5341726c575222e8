// A composable data-provenance file system (paper §3): "the ability to
// track all of the data sources and executable images that could have
// affected a particular output file", with invalidation queries and
// retention/garbage-collection of old versions that are part of the
// provenance of live outputs.
//
// ProvenanceFs stacks over any Bento FileSystem (inode numbers pass
// through 1:1) and observes the information flow through it:
//
//   - each process has a *read set*: the file versions it has read since
//     it was registered, plus the executable image it runs;
//   - when a process writes a file, every member of its read set (and its
//     image) becomes an *input* of the file's current version;
//   - overwriting a file starts a new version; the old version's contents
//     are retained (snapshotted from the lower FS) while any live file's
//     lineage can still reach it, and reclaimed by gc() once nothing does.
//
// Queries (paper §3's scenarios):
//   sources_of(ino)     — direct inputs of the latest version;
//   lineage_of(ino)     — the transitive input closure;
//   tainted_by(source)  — every live file whose lineage includes the
//                         source, i.e. "what derived data needs to be
//                         regenerated" when a source goes bad;
//   read_version()      — retained bytes of a historical version.
//
// The provenance graph is kept in memory beside the mount, like the
// in-memory caches the paper's online-upgrade section discusses; it is
// surfaced through prepare_transfer()/restore_state() so an upgrade keeps
// the graph, and a running plain file system can be upgraded to one with
// provenance tracking (tested in provenance_test.cc and upgrade_test.cc).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bento/stacked.h"

namespace bsim::bento {

/// A provenance node: a specific version of a file, or an executable image.
struct ProvSource {
  enum class Kind : std::uint8_t { FileVersion, Image };
  Kind kind = Kind::FileVersion;
  Ino ino = 0;             // FileVersion only
  std::uint64_t seq = 0;   // FileVersion only
  std::string image;       // Image only

  auto operator<=>(const ProvSource&) const = default;

  static ProvSource file(Ino ino, std::uint64_t seq) {
    return {Kind::FileVersion, ino, seq, {}};
  }
  static ProvSource img(std::string name) {
    return {Kind::Image, 0, 0, std::move(name)};
  }
};

/// The provenance graph and version store, independent of the FS plumbing
/// so it can be unit-tested and transferred across online upgrades.
class ProvenanceStore {
 public:
  /// Associate a process with its executable image. Unregistered pids are
  /// tracked with an empty image and an empty initial read set.
  void register_process(std::uint32_t pid, std::string image);
  /// Forget a process's read set (exit/exec).
  void forget_process(std::uint32_t pid);

  /// A read of `ino` by `pid`: adds the file's current version to the
  /// process read set.
  void on_read(std::uint32_t pid, Ino ino);
  /// A write of `ino` by `pid`. `snapshot` supplies the pre-write contents
  /// of the file, fetched lazily iff the store must retain the outgoing
  /// version (someone has read it or depends on it).
  using SnapshotFn = std::function<std::vector<std::byte>()>;
  void on_write(std::uint32_t pid, Ino ino, const SnapshotFn& snapshot);
  /// Close a version: the next write to `ino` starts a new one. Hooked to
  /// fsync and release (a "publish" of the output).
  void version_barrier(Ino ino);
  /// The file is gone from the namespace; its versions become GC
  /// candidates (subject to lineage reachability).
  void on_unlink(Ino ino);

  // ---- queries ----
  [[nodiscard]] std::uint64_t current_seq(Ino ino) const;
  /// Direct inputs of the latest version of `ino`.
  [[nodiscard]] std::set<ProvSource> sources_of(Ino ino) const;
  /// Direct inputs of a specific version.
  [[nodiscard]] std::set<ProvSource> sources_of(Ino ino,
                                                std::uint64_t seq) const;
  /// Transitive closure of sources_of over file-version edges.
  [[nodiscard]] std::set<ProvSource> lineage_of(Ino ino) const;
  /// Live files whose lineage (any live version) includes any version of
  /// `source_ino` — the invalidation query.
  [[nodiscard]] std::set<Ino> tainted_by(Ino source_ino) const;
  /// Live files whose lineage includes the image.
  [[nodiscard]] std::set<Ino> tainted_by_image(std::string_view image) const;
  /// Retained contents of version `seq` of `ino`, if still held.
  [[nodiscard]] std::optional<std::vector<std::byte>> read_version(
      Ino ino, std::uint64_t seq) const;

  /// Drop retained snapshots (and dead files' version records) that no
  /// live file's lineage can reach. Returns bytes reclaimed.
  std::uint64_t gc();

  [[nodiscard]] std::uint64_t retained_bytes() const { return retained_bytes_; }
  [[nodiscard]] std::size_t tracked_files() const { return files_.size(); }

 private:
  struct Version {
    std::set<ProvSource> inputs;
    std::uint32_t writer_pid = 0;
    bool open = false;            // still accepting writes
    bool ever_read = false;       // someone's read set includes this
    std::optional<std::vector<std::byte>> snapshot;  // retained contents
  };

  struct FileRecord {
    std::vector<Version> versions;  // index = seq
    bool live = true;               // still linked in the namespace
  };

  struct Process {
    std::string image;
    std::set<ProvSource> read_set;
  };

  FileRecord& file(Ino ino);
  Version& current(Ino ino);

  std::map<Ino, FileRecord> files_;
  std::map<std::uint32_t, Process> procs_;
  std::uint64_t retained_bytes_ = 0;
};

/// The stacking file system: passthrough namespace + data, with provenance
/// observation on the read/write/fsync/release/unlink paths.
class ProvenanceFs final : public StackedFs {
 public:
  /// `lower` runs on the same superblock.
  explicit ProvenanceFs(std::unique_ptr<FileSystem> lower);
  ~ProvenanceFs() override;

  [[nodiscard]] std::string_view version() const override {
    return "provenance-v1";
  }

  /// Provenance hooks use Request::pid; give the pid a name first.
  void register_process(std::uint32_t pid, std::string image) {
    store_->register_process(pid, std::move(image));
  }
  [[nodiscard]] ProvenanceStore& store() { return *store_; }

  kern::Err unlink(const Request& req, SbRef sb, Ino parent,
                   std::string_view name) override;
  kern::Err release(const Request& req, SbRef sb, Ino ino,
                    std::uint64_t fh) override;
  Result<std::uint32_t> read(const Request& req, SbRef sb, Ino ino,
                             std::uint64_t fh, std::uint64_t off,
                             std::span<std::byte> out) override;
  Result<std::uint32_t> write(const Request& req, SbRef sb, Ino ino,
                              std::uint64_t fh, std::uint64_t off,
                              std::span<const std::byte> in) override;
  kern::Err fsync(const Request& req, SbRef sb, Ino ino, std::uint64_t fh,
                  bool datasync) override;

  // Online upgrade keeps the provenance graph (paper §4.8's "internal
  // file system state such as ... a cache of on-disk data structures").
  // A predecessor without one (a plain file system upgraded to this
  // layer) leaves the fresh, empty graph in place.
  TransferableState prepare_transfer(const Request& req, SbRef sb) override;
  kern::Err restore_state(const Request& req, SbRef sb,
                          TransferableState state) override;

 private:
  // shared_ptr (not unique_ptr) because TransferableState is backed by
  // std::any, which requires copy-constructible contents. After a
  // transfer the successor shares the graph; the predecessor is either
  // discarded (upgrade done) or keeps running with it (upgrade failed).
  std::shared_ptr<ProvenanceStore> store_;
};

}  // namespace bsim::bento
