// The xv6 file system against the Bento file-operations API (paper §6).
//
// This class is the analogue of the paper's Rust xv6 file system: it is
// written *entirely* against the safe Bento surface — SuperBlockCap,
// BufferHeadHandle, Semaphore — and never sees a kernel pointer. The same
// instance runs in three deployments:
//   - kernel Bento (BentoModule + KernelBlockBackend),
//   - FUSE userspace (FuseModule + UserBlockBackend),
//   - the debugging rig (UserMount + MemBlockBackend),
// which is the paper's compatibility/velocity story in code.
//
// Paper-faithful behaviours worth knowing about when reading benchmarks:
//   - every metadata operation is a synchronous log transaction;
//   - file data goes through the log too (hence the ext4 data=journal
//     comparison in §6);
//   - ialloc scans the inode table for the first free inode, as xv6 does,
//     but resumes at a cursor below which every inode is allocated, so a
//     create examines about one inode however many files are live (the
//     numbers it hands out are the ones a scan from inode 1 would);
//   - mount reads only the initialised inode blocks (layout.h,
//     ninitblocks), and ialloc zero-fills the next one when it gets there;
//   - inode and block allocation are protected by locks the paper added
//     (§6.1).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bento/api.h"
#include "xv6fs/layout.h"
#include "xv6fs/log.h"

namespace bsim::xv6 {

class Xv6FileSystem : public bento::FileSystem {
 public:
  struct Options {
    Durability durability = Durability::Relaxed;
    /// Version tag surfaced through FileSystem::version() (upgrade demos).
    std::string version = "xv6fs-v1";
  };

  Xv6FileSystem() = default;
  explicit Xv6FileSystem(Options opts) : opts_(std::move(opts)) {}

  [[nodiscard]] std::string_view version() const override {
    return opts_.version;
  }

  /// The log's write-path tuning (group commit, pipelining) comes from
  /// the mount options.
  void apply_mount_opts(const blk::MountOpts& opts) override {
    mount_opts_ = opts;
  }

  // ---- bento::FileSystem ----
  kern::Err init(const bento::Request& req, bento::SbRef sb) override;
  void destroy(const bento::Request& req, bento::SbRef sb) override;

  bento::Result<bento::EntryOut> lookup(const bento::Request& req,
                                        bento::SbRef sb, bento::Ino parent,
                                        std::string_view name) override;
  bento::Result<bento::FileAttr> getattr(const bento::Request& req,
                                         bento::SbRef sb,
                                         bento::Ino ino) override;
  bento::Result<bento::FileAttr> setattr(const bento::Request& req,
                                         bento::SbRef sb, bento::Ino ino,
                                         const bento::SetAttrIn& attr) override;
  bento::Result<bento::EntryOut> create(const bento::Request& req,
                                        bento::SbRef sb, bento::Ino parent,
                                        std::string_view name,
                                        std::uint32_t mode) override;
  bento::Result<bento::EntryOut> mkdir(const bento::Request& req,
                                       bento::SbRef sb, bento::Ino parent,
                                       std::string_view name,
                                       std::uint32_t mode) override;
  kern::Err unlink(const bento::Request& req, bento::SbRef sb,
                   bento::Ino parent, std::string_view name) override;
  kern::Err rmdir(const bento::Request& req, bento::SbRef sb,
                  bento::Ino parent, std::string_view name) override;
  kern::Err rename(const bento::Request& req, bento::SbRef sb,
                   bento::Ino old_parent, std::string_view old_name,
                   bento::Ino new_parent,
                   std::string_view new_name) override;
  void forget(const bento::Request& req, bento::SbRef sb,
              bento::Ino ino) override;

  bento::Result<std::uint32_t> read(const bento::Request& req, bento::SbRef sb,
                                    bento::Ino ino, std::uint64_t fh,
                                    std::uint64_t off,
                                    std::span<std::byte> out) override;
  bento::Result<std::uint32_t> read_bulk(
      const bento::Request& req, bento::SbRef sb, bento::Ino ino,
      std::uint64_t off, std::span<const std::span<std::byte>> pages) override;
  bento::Result<std::uint32_t> write(const bento::Request& req,
                                     bento::SbRef sb, bento::Ino ino,
                                     std::uint64_t fh, std::uint64_t off,
                                     std::span<const std::byte> in) override;
  bento::Result<std::uint32_t> write_bulk(
      const bento::Request& req, bento::SbRef sb, bento::Ino ino,
      std::uint64_t off,
      std::span<const std::span<const std::byte>> pages) override;
  kern::Err fsync(const bento::Request& req, bento::SbRef sb, bento::Ino ino,
                  std::uint64_t fh, bool datasync) override;

  kern::Err readdir(const bento::Request& req, bento::SbRef sb,
                    bento::Ino ino, std::uint64_t& pos,
                    const bento::DirFiller& fill) override;

  bento::Result<bento::StatfsOut> statfs(const bento::Request& req,
                                         bento::SbRef sb) override;
  kern::Err sync_fs(const bento::Request& req, bento::SbRef sb) override;

  bento::TransferableState prepare_transfer(const bento::Request& req,
                                            bento::SbRef sb) override;
  kern::Err restore_state(const bento::Request& req, bento::SbRef sb,
                          bento::TransferableState state) override;

  // ---- introspection (tests / benches) ----
  void dump_stats(sim::JsonWriter& w) const override;
  [[nodiscard]] const LogStats& log_stats() const { return log_.stats(); }
  [[nodiscard]] const Log& log() const { return log_; }
  [[nodiscard]] std::uint64_t free_data_blocks() const { return free_blocks_; }
  [[nodiscard]] std::uint64_t free_inodes() const { return free_inodes_; }
  [[nodiscard]] bool restored_from_transfer() const { return restored_; }

 private:
  struct MemInode {
    std::uint32_t inum = 0;
    bool valid = false;
    Dinode d;
    bento::Semaphore lock;
  };

  using Cap = bento::SuperBlockCap;

  // inode table
  kern::Result<MemInode*> iget(Cap& sb, std::uint32_t inum);
  kern::Err iupdate(Cap& sb, MemInode& mi);
  kern::Result<std::uint32_t> ialloc(Cap& sb, InodeKind kind,
                                     std::uint32_t mode);
  kern::Err ifree(Cap& sb, MemInode& mi);
  /// Undo an ialloc whose directory link failed: free the inode and any
  /// blocks it was given, in the caller's transaction.
  void discard(Cap& sb, std::uint32_t inum);

  // block allocation
  /// Allocate a block, zeroed in the transaction unless `zero` is false:
  /// the caller overwrites all of it in the same transaction.
  kern::Result<std::uint32_t> balloc(Cap& sb, bool zero = true);
  kern::Err bfree(Cap& sb, std::uint32_t blockno);

  // block mapping & data I/O (inside an open transaction for writes)
  /// `overwrite`: the caller writes the whole of block `bn` in this
  /// transaction, so a newly allocated one is not zeroed (index blocks
  /// always are).
  kern::Result<std::uint32_t> bmap(Cap& sb, MemInode& mi, std::uint64_t bn,
                                   bool alloc, bool overwrite = false);
  kern::Result<std::uint32_t> readi(Cap& sb, MemInode& mi, std::uint64_t off,
                                    std::span<std::byte> out);
  /// writei without the inode update: write_bulk updates the inode once
  /// per transaction instead of once per page.
  kern::Result<std::uint32_t> write_data(Cap& sb, MemInode& mi,
                                         std::uint64_t off,
                                         std::span<const std::byte> in);
  kern::Result<std::uint32_t> writei(Cap& sb, MemInode& mi, std::uint64_t off,
                                     std::span<const std::byte> in);
  /// Free all blocks beyond `new_size`, in the caller's transaction.
  kern::Err itrunc(Cap& sb, MemInode& mi, std::uint64_t new_size);
  kern::Err zero_block_tail(Cap& sb, MemInode& mi, std::uint64_t from);

  // directories
  kern::Result<std::uint32_t> dirlookup(Cap& sb, MemInode& dir,
                                        std::string_view name);
  /// One pass over `dir`, as ext2_add_link makes: Exist if `name` is
  /// linked in it, else the offset of its first free slot (its size when
  /// none is free), where a new entry goes.
  kern::Result<std::uint64_t> dirslot(Cap& sb, MemInode& dir,
                                      std::string_view name);
  /// dirslot, then dirlink_at the slot it found.
  kern::Err dirlink(Cap& sb, MemInode& dir, std::string_view name,
                    std::uint32_t inum);
  /// Write the entry `name` -> `inum` at `slot_off`, from dirslot.
  kern::Err dirlink_at(Cap& sb, MemInode& dir, std::uint64_t slot_off,
                       std::string_view name, std::uint32_t inum);
  kern::Err dirunlink(Cap& sb, MemInode& dir, std::string_view name);
  kern::Result<bool> dir_empty(Cap& sb, MemInode& dir);

  bento::FileAttr attr_of(const MemInode& mi) const;
  /// Read the superblock into dsb_ and check it.
  kern::Err read_dsb(Cap& sb);
  /// Log dsb_ as block 1 in the open transaction (no read: the whole
  /// block is rewritten).
  kern::Err log_dsb(Cap& sb);

  /// The in-core superblock, the only copy: ialloc raises ninitblocks here
  /// and logs it; an upgrade carries it across.
  DiskSuperblock dsb_;
  Log log_;
  Options opts_;
  blk::MountOpts mount_opts_;
  bento::Semaphore itable_lock_;
  bento::Semaphore alloc_lock_;  // the §6.1 allocation lock
  std::unordered_map<std::uint32_t, std::unique_ptr<MemInode>> itable_;
  std::uint64_t free_blocks_ = 0;
  std::uint64_t free_inodes_ = 0;
  /// The bitmap block balloc scans first: the one it last allocated from.
  std::uint32_t balloc_hint_ = 0;
  /// balloc's cursor in each bitmap block: every data bit below it is
  /// allocated. bfree lowers it, mount seeds it.
  std::vector<std::uint32_t> balloc_cursors_;
  /// ialloc's cursor: the lowest inode that may be free. Every inode below
  /// it is allocated; ifree lowers it, mount seeds it.
  std::uint32_t ialloc_hint_ = 1;
  bool restored_ = false;
};

}  // namespace bsim::xv6
