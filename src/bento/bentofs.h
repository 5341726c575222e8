// BentoFS: the kernel half of the framework (paper §4.3, §5.2).
//
// BentoFS interposes between the VFS layer and the file system: it owns the
// VFS objects (inodes, pages, buffers) on the kernel side of the interface
// and translates VFS calls into file-operations API calls, upholding the
// caller side of the ownership contract (§4.4). Like the paper's
// implementation, it inherits the FUSE kernel module's behaviours: file
// data is cached in the page cache *above* the file system (so cached reads
// never enter FS code) and writeback uses the batched ->writepages path.
//
// It also hosts the online-upgrade component (§4.8): upgrade() quiesces the
// module, extracts TransferableState from the old file system instance, and
// installs the new instance without unmounting.
#pragma once

#include <memory>
#include <string>

#include "bento/api.h"
#include "kernel/kernel.h"

namespace bsim::bento {

struct ModuleStats {
  std::uint64_t dispatches = 0;  // VFS -> file-operations API translations
  std::uint64_t upgrades = 0;
};

/// One mounted Bento file system instance.
///
/// The VFS-interposition core is shared with the FUSE kernel driver
/// (src/fuse): the paper derived BentoFS from the FUSE kernel module, and
/// here the common logic lives in this class while the transport cost
/// (direct function call vs. queue + copy to a userspace daemon) and the
/// block backend (kernel buffer cache vs. O_DIRECT disk file) are the two
/// customization points.
class BentoModule : public kern::InodeOps,
                          public kern::FileOps,
                          public kern::SuperOps,
                          public kern::AddressSpaceOps {
 public:
  /// Kernel deployment: block I/O through the superblock's buffer cache.
  /// The module keeps the mount's `opts` and applies them to `fs` and to
  /// every successor an upgrade installs.
  BentoModule(kern::SuperBlock& sb, std::unique_ptr<FileSystem> fs,
              const blk::MountOpts& opts);
  /// Custom backend (used by the FUSE driver's userspace deployment).
  BentoModule(kern::SuperBlock& sb, std::unique_ptr<FileSystem> fs,
              const blk::MountOpts& opts,
              std::unique_ptr<BlockBackend> backend);
  ~BentoModule() override = default;

  /// Mount-time: fs->init, then materialize the root inode.
  Err mount_init();

  /// Online upgrade: swap in `next` without unmounting (§4.8). On failure
  /// the old instance keeps running.
  Err upgrade(std::unique_ptr<FileSystem> next);

  [[nodiscard]] FileSystem& fs() { return *fs_; }
  [[nodiscard]] const BorrowLedger& ledger() const { return ledger_; }
  [[nodiscard]] const ModuleStats& stats() const { return mstats_; }
  [[nodiscard]] kern::SuperBlock& super() { return *sb_; }

  /// The module mounted at `sb`, or null if not a Bento mount.
  static BentoModule* from(kern::SuperBlock& sb) {
    return sb.fs<BentoModule>();
  }

  // ---- InodeOps ----
  Result<kern::Inode*> lookup(kern::Inode& dir, std::string_view name) override;
  Result<kern::Inode*> create(kern::Inode& dir, std::string_view name,
                              std::uint32_t mode) override;
  Err unlink(kern::Inode& dir, std::string_view name) override;
  Result<kern::Inode*> mkdir(kern::Inode& dir, std::string_view name,
                             std::uint32_t mode) override;
  Err rmdir(kern::Inode& dir, std::string_view name) override;
  Err rename(kern::Inode& old_dir, std::string_view old_name,
             kern::Inode& new_dir, std::string_view new_name) override;
  Err setattr(kern::Inode& inode, const kern::SetAttr& attr) override;
  Err getattr(kern::Inode& inode, kern::Stat& out) override;

  // ---- FileOps ----
  Err open(kern::Inode& inode, kern::FileHandle& fh) override;
  Err release(kern::Inode& inode, kern::FileHandle& fh) override;
  Result<std::uint64_t> read(kern::Inode& inode, kern::FileHandle& fh,
                             std::uint64_t off,
                             std::span<std::byte> out) override;
  Result<std::uint64_t> write(kern::Inode& inode, kern::FileHandle& fh,
                              std::uint64_t off,
                              std::span<const std::byte> in) override;
  Err fsync(kern::Inode& inode, kern::FileHandle& fh, bool datasync) override;
  Err flush(kern::Inode& inode, kern::FileHandle& fh) override;
  Err readdir(kern::Inode& inode, std::uint64_t& pos,
              const kern::DirFiller& fill) override;

  // ---- SuperOps ----
  Err sync_fs(kern::SuperBlock& sb, bool wait) override;
  Err statfs(kern::SuperBlock& sb, kern::StatFs& out) override;
  void put_super(kern::SuperBlock& sb) override;
  void evict_inode(kern::Inode& inode) override;

  // ---- AddressSpaceOps (file data via the page cache) ----
  Err readpage(kern::Inode& inode, std::uint64_t pgoff,
               std::span<std::byte> out) override;
  Err readpages(kern::Inode& inode, std::uint64_t first_pgoff,
                std::span<const std::span<std::byte>> pages) override;
  [[nodiscard]] bool has_readpages() const override { return true; }
  Err writepages(kern::Inode& inode, std::span<const kern::PageRun> runs,
                 std::size_t& completed_runs) override;
  [[nodiscard]] bool has_writepages() const override { return true; }

 protected:
  /// Transport hook, charged once per call crossing the interposition
  /// boundary. The direct (kernel Bento) channel costs a function-pointer
  /// dispatch; the FUSE channel overrides this with request marshalling,
  /// two user/kernel crossings, and per-page payload copies.
  virtual void channel(std::size_t payload_in, std::size_t payload_out);

  SbRef borrow() { return SbRef(cap_, ledger_); }
  Request mkreq();
  /// Insert-or-refresh the in-core inode for an EntryOut (referenced).
  kern::Inode& materialize(const EntryOut& entry);
  void refresh(kern::Inode& inode, const FileAttr& attr);

  kern::SuperBlock* sb_;
  std::unique_ptr<BlockBackend> backend_;
  SuperBlockCap cap_;
  BorrowLedger ledger_;
  blk::MountOpts opts_;
  std::unique_ptr<FileSystem> fs_;
  std::uint64_t next_unique_ = 1;
  ModuleStats mstats_;
};

/// Register a Bento file system module with the kernel (the insmod
/// analogue): each mount runs `factory`'s file system under a BentoModule.
void register_bento_fs(kern::Kernel& kernel, std::string name,
                       FsFactory factory);

}  // namespace bsim::bento
