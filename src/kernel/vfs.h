// The simulated Linux VFS layer: superblocks, inodes, the operation tables
// file systems implement, the inode and dentry caches, and the generic
// page-cache-backed file read/write helpers.
//
// This is the interface the paper's §2.2 calls "complex and with few
// guardrails": shared data structures (Inode, BufferHead) pass freely
// across it. The C baseline (src/xv6fs_c) and the ext4 comparator implement
// it directly; BentoFS (src/bento) interposes on it and exposes the safe
// file-operations API instead.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blockdev/opts.h"
#include "kernel/buffer_cache.h"
#include "kernel/errno.h"
#include "kernel/flusher.h"
#include "kernel/page_cache.h"
#include "kernel/types.h"
#include "sim/jsonw.h"
#include "sim/sync.h"

namespace bsim::kern {

class SuperBlock;
class Inode;
struct FileHandle;

/// Per-open-file state handed to FileOps (like struct file's private_data).
struct FileHandle {
  std::uint64_t fh = 0;  // FS-private cookie
  int flags = 0;
  /// Writeback-error cursors (struct file's f_wb_err / f_sb_err): sampled
  /// at open against the inode mapping's and the superblock buffer
  /// cache's error sequences, advanced when fsync reports a pending
  /// failure — so each fd sees a given writeback error exactly once.
  ErrSeqCursor wb_err;
  ErrSeqCursor bc_wb_err;
};

/// Inode operations (directory-level namespace ops live on the dir inode).
class InodeOps {
 public:
  virtual ~InodeOps() = default;
  virtual Result<Inode*> lookup(Inode& dir, std::string_view name) = 0;
  virtual Result<Inode*> create(Inode& dir, std::string_view name,
                                std::uint32_t mode);
  virtual Err unlink(Inode& dir, std::string_view name);
  virtual Result<Inode*> mkdir(Inode& dir, std::string_view name,
                               std::uint32_t mode);
  virtual Err rmdir(Inode& dir, std::string_view name);
  virtual Err rename(Inode& old_dir, std::string_view old_name,
                     Inode& new_dir, std::string_view new_name);
  virtual Err setattr(Inode& inode, const SetAttr& attr);
  virtual Err getattr(Inode& inode, Stat& out);
};

/// File operations.
class FileOps {
 public:
  virtual ~FileOps() = default;
  virtual Err open(Inode& inode, FileHandle& fh);
  virtual Err release(Inode& inode, FileHandle& fh);
  virtual Result<std::uint64_t> read(Inode& inode, FileHandle& fh,
                                     std::uint64_t off,
                                     std::span<std::byte> out) = 0;
  virtual Result<std::uint64_t> write(Inode& inode, FileHandle& fh,
                                      std::uint64_t off,
                                      std::span<const std::byte> in) = 0;
  virtual Err fsync(Inode& inode, FileHandle& fh, bool datasync) = 0;
  /// Called when the last writer closes (the ->flush path); default no-op.
  virtual Err flush(Inode& inode, FileHandle& fh);
  virtual Err readdir(Inode& inode, std::uint64_t& pos,
                      const DirFiller& fill);
};

/// Superblock operations.
class SuperOps {
 public:
  virtual ~SuperOps() = default;
  virtual Err sync_fs(SuperBlock& sb, bool wait) = 0;
  virtual Err statfs(SuperBlock& sb, StatFs& out) = 0;
  virtual void put_super(SuperBlock& sb) = 0;
  /// Called when an unlinked inode loses its last reference.
  virtual void evict_inode(Inode& inode) = 0;
};

/// An in-core inode. Owned by its superblock's inode cache.
class Inode {
 public:
  Inode(SuperBlock& sb, Ino ino) : sb_(&sb), ino_(ino) {
    mapping.set_owner(this);
  }

  Inode(const Inode&) = delete;
  Inode& operator=(const Inode&) = delete;

  [[nodiscard]] SuperBlock& sb() { return *sb_; }
  [[nodiscard]] Ino ino() const { return ino_; }

  FileType type = FileType::None;
  std::uint32_t mode = 0;
  std::uint32_t nlink = 0;
  std::uint64_t size = 0;
  sim::Nanos atime = 0, mtime = 0, ctime = 0;

  InodeOps* iop = nullptr;
  FileOps* fop = nullptr;
  AddressSpaceOps* aops = nullptr;
  AddressSpace mapping;
  sim::SimRwLock rwsem;  // i_rwsem: write path exclusion

  /// FS-private in-core state (e.g. the xv6 in-memory dinode copy).
  void* fs_priv = nullptr;

  [[nodiscard]] int refcount() const { return refcount_; }

 private:
  friend class SuperBlock;
  SuperBlock* sb_;
  Ino ino_;
  int refcount_ = 0;
  bool on_dirty_list_ = false;  // membership in sb's dirty-inode list
};

/// An in-core superblock: one mounted file system instance. Kernel::mount
/// builds it over the device and hands it to the type's FillSuper; the
/// state that returns (the type's SuperOps) is owned here, as `s_op`.
class SuperBlock {
 public:
  SuperBlock(blk::BlockDevice& dev, std::size_t buffer_cache_blocks)
      : bufcache_(dev, buffer_cache_blocks) {}
  /// The file system's state goes first: it may still reach into the
  /// inode cache (per-inode state) while it is destroyed.
  ~SuperBlock() { s_op.reset(); }

  SuperBlock(const SuperBlock&) = delete;
  SuperBlock& operator=(const SuperBlock&) = delete;

  /// The file system's state: its SuperOps and its private superblock
  /// data in one object.
  std::unique_ptr<SuperOps> s_op;
  Inode* root = nullptr;
  std::string fs_name;

  /// The file system's state as its concrete type, or null when this
  /// superblock holds another type.
  template <class Fs>
  [[nodiscard]] Fs* fs() {
    return dynamic_cast<Fs*>(s_op.get());
  }

  // ---- error behaviour (the ext4 `errors=` mount option) ----
  /// What a detected file-system error (journal abort, failed metadata
  /// write the FS cannot recover) does to the mount.
  using ErrorsMode = blk::ErrorsMode;
  ErrorsMode errors_mode = ErrorsMode::RemountRo;

  /// Whether the mount has degraded to read-only (fs_error under
  /// errors=remount-ro). Mutating syscalls check this at the VFS border.
  [[nodiscard]] bool read_only() const { return read_only_; }
  /// The first error that degraded the mount (Ok when healthy).
  [[nodiscard]] Err fs_error_seen() const { return fs_error_; }
  /// A file system detected an unrecoverable error (ext4_error /
  /// xv6 journal abort): apply the configured errors= policy. Idempotent;
  /// the first error wins.
  void fs_error(Err e);

  /// Errors recorded against the whole FS (journal aborts, fs_error
  /// calls): fsync on ANY fd of this mount must report them once.
  [[nodiscard]] const ErrSeq& s_wb_err() const { return s_wb_err_; }

  [[nodiscard]] BufferCache& bufcache() { return bufcache_; }
  [[nodiscard]] blk::BlockDevice& bdev() { return bufcache_.device(); }

  // ---- inode cache ----
  /// Look up an in-core inode; returns nullptr if not cached. Takes a ref.
  Inode* iget_cached(Ino ino);
  /// Create the in-core inode (must not exist). Takes a ref.
  Inode& inew(Ino ino);
  /// Take an additional reference.
  static void ihold(Inode& inode) { inode.refcount_ += 1; }
  /// Drop a reference; evicts (via s_op->evict_inode) when an unlinked
  /// inode loses its last reference.
  void iput(Inode* inode);
  [[nodiscard]] std::size_t cached_inodes() const { return icache_.size(); }
  /// Iterate all in-core inodes (unmount-time cleanup by file systems).
  template <class F>
  void for_each_inode(F&& f) {
    for (auto& [ino, inode] : icache_) f(*inode);
  }

  // ---- dentry cache ----
  /// Positive-entry dcache: (parent ino, name) -> child ino.
  Inode* dcache_lookup(Inode& dir, std::string_view name);
  void dcache_add(Inode& dir, std::string_view name, Ino child);
  void dcache_remove(Inode& dir, std::string_view name);

  /// Write back all cached file pages + fs metadata (sync(2) path).
  /// Waits for the background flusher first, so "synced" is never earlier
  /// in virtual time than writeback that already ran in the background.
  Err sync_all();

  // ---- background writeback ----
  /// Attach the mount's flusher thread (file systems opt in at mount; see
  /// kernel/flusher.h). generic_file_write then pokes it instead of
  /// running writer-context sync.
  void attach_flusher(std::unique_ptr<Flusher> flusher) {
    flusher_ = std::move(flusher);
  }
  /// The mount's flusher, or null when background writeback is off.
  [[nodiscard]] Flusher* flusher() { return flusher_.get(); }

  // ---- dirty-inode list (the per-bdi b_dirty list) ----
  /// Register an inode whose mapping just became dirty. Called by
  /// AddressSpace::mark_dirty on the 0 -> 1 transition; idempotent.
  void mark_inode_dirty(Inode& inode);
  /// Collect the dirty regular inodes in dirtying order, lazily pruning
  /// entries whose pages have drained. `scanned` accumulates how many
  /// list entries were examined (the O(dirty) regression stat).
  void collect_dirty_inodes(std::vector<Inode*>& out,
                            std::uint64_t& scanned);
  [[nodiscard]] std::size_t dirty_inode_count() const {
    return dirty_inodes_.size();
  }

  // ---- stats registry ----
  /// A callback that appends one or more JSON objects (each with a
  /// "struct" key naming its stats type) to an open array.
  using StatsDumper = std::function<void(sim::JsonWriter&)>;
  /// Join the unified stats snapshot (Kernel::dump_stats). File systems
  /// register their *Stats owners at mount; `name` labels the source.
  void register_stats(std::string name, StatsDumper fn) {
    stats_dumpers_.emplace_back(std::move(name), std::move(fn));
  }
  [[nodiscard]] const std::vector<std::pair<std::string, StatsDumper>>&
  stats_dumpers() const {
    return stats_dumpers_;
  }

 private:
  static std::string dkey(Inode& dir, std::string_view name);

  bool read_only_ = false;
  Err fs_error_ = Err::Ok;
  ErrSeq s_wb_err_;

  std::unique_ptr<Flusher> flusher_;
  std::vector<Inode*> dirty_inodes_;  // insertion (dirtying) order
  std::vector<std::pair<std::string, StatsDumper>> stats_dumpers_;

  BufferCache bufcache_;
  std::unordered_map<Ino, std::unique_ptr<Inode>> icache_;
  std::unordered_map<std::string, Ino> dcache_;
};

/// A mountable file system type is its fill_super (Linux's mount_bdev +
/// fill_super + kill_block_super split). Kernel::mount builds the
/// SuperBlock over the device and sets fs_name and errors_mode; the type's
/// FillSuper then builds the file system's state on it (reads the on-disk
/// super, replays the journal, sets `root`, attaches the flusher, registers
/// stats) and returns that state, which the superblock owns from then on.
/// `opts` are the mount options Kernel::mount parsed, once, from the "-o"
/// string. On failure FillSuper frees what it built and returns the error.
using FillSuper = std::function<Result<std::unique_ptr<SuperOps>>(
    SuperBlock& sb, const blk::MountOpts& opts)>;

// ---- Generic page-cache-backed file helpers (generic_file_read_iter /
// generic_perform_write analogues). File systems whose FileOps use the page
// cache call these; they handle partial pages, extension, and the dirty-
// threshold writeback that models balance_dirty_pages. ----

Result<std::uint64_t> generic_file_read(Inode& inode, std::uint64_t off,
                                        std::span<std::byte> out);

Result<std::uint64_t> generic_file_write(Inode& inode, std::uint64_t off,
                                         std::span<const std::byte> in);

/// Flush the inode's dirty pages through its AddressSpaceOps.
Err generic_writeback(Inode& inode);

/// Truncate helper: drops/zeroes cached pages then updates inode size.
void generic_truncate_pagecache(Inode& inode, std::uint64_t new_size);

}  // namespace bsim::kern
