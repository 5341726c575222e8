// The Bento file-operations API (paper §4.3–§4.4).
//
// This is "a Rust version of the FUSE low-level API augmented with a
// reference to the super_block data structure needed for file system block
// operations", rendered in C++: every operation receives the request
// context and a *borrowed* SuperBlockCap. Implementing this interface is
// all a file system author does; BentoFS translates VFS calls into these
// operations, and the identical interface is served from userspace by the
// FUSE deployment and the debugging rig (§4.9).
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bento/kernel_services.h"
#include "bento/ownership.h"
#include "blockdev/opts.h"
#include "kernel/errno.h"
#include "kernel/types.h"
#include "sim/jsonw.h"

namespace bsim::bento {

using Ino = std::uint64_t;
inline constexpr Ino kRootIno = 1;

using kern::Err;
using kern::Result;

/// Request context (fuse_req analogue).
struct Request {
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint32_t pid = 0;
  std::uint64_t unique = 0;
};

struct FileAttr {
  Ino ino = 0;
  kern::FileType kind = kern::FileType::None;
  std::uint32_t mode = 0;
  std::uint32_t nlink = 0;
  std::uint64_t size = 0;
  std::uint64_t blocks = 0;
  sim::Nanos atime = 0, mtime = 0, ctime = 0;
};

/// Reply to lookup/create/mkdir (fuse_entry_param analogue).
struct EntryOut {
  Ino ino = 0;
  std::uint64_t generation = 0;
  FileAttr attr;
};

struct SetAttrIn {
  bool set_size = false;
  std::uint64_t size = 0;
  bool set_mode = false;
  std::uint32_t mode = 0;
  bool set_mtime = false;
  sim::Nanos mtime = 0;
};

struct StatfsOut {
  std::uint64_t total_blocks = 0;
  std::uint64_t free_blocks = 0;
  std::uint64_t total_inodes = 0;
  std::uint64_t free_inodes = 0;
  std::uint32_t block_size = 0;
};

using DirFiller = kern::DirFiller;
using SbRef = Borrowed<SuperBlockCap>;

/// Opaque state container passed between file system versions across an
/// online upgrade (§4.8). The framework never interprets the contents.
class TransferableState {
 public:
  template <class T>
  void put(std::string key, T value) {
    entries_[std::move(key)] = std::move(value);
  }

  template <class T>
  [[nodiscard]] T* get(const std::string& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    return std::any_cast<T>(&it->second);
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<std::string, std::any> entries_;
};

/// The interface a Bento file system implements. Defaults return ENOSYS
/// (the FUSE convention for unimplemented operations); destroy/forget
/// default to no-ops.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// A short version tag, surfaced by the upgrade machinery and examples.
  [[nodiscard]] virtual std::string_view version() const { return "v1"; }

  // ---- lifecycle ----
  /// Mount-option delivery: the module calls it with the options
  /// Kernel::mount parsed BEFORE init() or restore_state(), on every
  /// instance it runs (an upgrade's successor included). File systems
  /// read the fields they use; wrapper file systems forward to the file
  /// system they stack over. Default: ignore them.
  virtual void apply_mount_opts(const blk::MountOpts& opts) { (void)opts; }
  /// Append this file system's stats objects (each with a "struct" key
  /// naming its type) to an OPEN JSON array — the unified snapshot hook
  /// (Kernel::dump_stats). Wrapper file systems also forward to the file
  /// system they stack over. Default: nothing to report.
  virtual void dump_stats(sim::JsonWriter& w) const { (void)w; }
  /// Mount-time initialization: read the superblock, recover the journal.
  virtual Err init(const Request& req, SbRef sb) = 0;
  /// Unmount: flush everything.
  virtual void destroy(const Request& req, SbRef sb);

  // ---- namespace ----
  virtual Result<EntryOut> lookup(const Request& req, SbRef sb, Ino parent,
                                  std::string_view name);
  virtual Result<FileAttr> getattr(const Request& req, SbRef sb, Ino ino);
  virtual Result<FileAttr> setattr(const Request& req, SbRef sb, Ino ino,
                                   const SetAttrIn& attr);
  virtual Result<EntryOut> create(const Request& req, SbRef sb, Ino parent,
                                  std::string_view name, std::uint32_t mode);
  virtual Result<EntryOut> mkdir(const Request& req, SbRef sb, Ino parent,
                                 std::string_view name, std::uint32_t mode);
  virtual Err unlink(const Request& req, SbRef sb, Ino parent,
                     std::string_view name);
  virtual Err rmdir(const Request& req, SbRef sb, Ino parent,
                    std::string_view name);
  virtual Err rename(const Request& req, SbRef sb, Ino old_parent,
                     std::string_view old_name, Ino new_parent,
                     std::string_view new_name);
  /// Dropped from the kernel's inode table (FUSE FORGET): release in-core
  /// state; if nlink is zero the file system reclaims the disk inode.
  virtual void forget(const Request& req, SbRef sb, Ino ino);

  // ---- file I/O ----
  virtual Result<std::uint64_t> open(const Request& req, SbRef sb, Ino ino,
                                     int flags);
  virtual Err release(const Request& req, SbRef sb, Ino ino,
                      std::uint64_t fh);
  virtual Result<std::uint32_t> read(const Request& req, SbRef sb, Ino ino,
                                     std::uint64_t fh, std::uint64_t off,
                                     std::span<std::byte> out);
  /// Batched read of contiguous pages (the ->readpages readahead path).
  /// File systems that override this turn the run into one bio-layer
  /// submission. Default: loop read(). Short reads terminate the run.
  virtual Result<std::uint32_t> read_bulk(const Request& req, SbRef sb,
                                          Ino ino, std::uint64_t off,
                                          std::span<const std::span<std::byte>> pages);
  virtual Result<std::uint32_t> write(const Request& req, SbRef sb, Ino ino,
                                      std::uint64_t fh, std::uint64_t off,
                                      std::span<const std::byte> in);
  /// Batched write of contiguous pages (the ->writepages path BentoFS
  /// inherits from the FUSE kernel module, §6.5.2). Default: loop write().
  virtual Result<std::uint32_t> write_bulk(
      const Request& req, SbRef sb, Ino ino, std::uint64_t off,
      std::span<const std::span<const std::byte>> pages);
  virtual Err fsync(const Request& req, SbRef sb, Ino ino, std::uint64_t fh,
                    bool datasync);

  // ---- directories ----
  /// A directory is opened, released and fsynced through open, release
  /// and fsync above.
  virtual Err readdir(const Request& req, SbRef sb, Ino ino,
                      std::uint64_t& pos, const DirFiller& fill);

  // ---- whole-fs ----
  virtual Result<StatfsOut> statfs(const Request& req, SbRef sb);
  /// sync(2)/umount path: commit all metadata and data.
  virtual Err sync_fs(const Request& req, SbRef sb);

  // ---- online upgrade (§4.8) ----
  /// Called on the old version once quiesced: flush, then hand over any
  /// in-memory state the successor needs.
  virtual TransferableState prepare_transfer(const Request& req, SbRef sb);
  /// Called on the new version instead of init() during an upgrade.
  virtual Err restore_state(const Request& req, SbRef sb,
                            TransferableState state);
};

/// Factory used at module-registration time ("insmod").
using FsFactory = std::function<std::unique_ptr<FileSystem>()>;

}  // namespace bsim::bento
