// The VFS C baseline (paper §6.2): the same xv6 file system design
// implemented *directly against the VFS layer*, in kernel-C style.
//
// This is the paper's "1862 lines of C" comparison point. Deliberate
// differences from the Bento version, mirroring the paper:
//   - It is written against the raw VFS interface: raw BufferHead pointers
//     from sb_bread with manual brelse pairing, shared kernel data
//     structures, no capability types, no ownership checking. (Every
//     bread/brelse pair here is a bug opportunity the Bento version
//     structurally cannot have — see the bug study in src/bugs.)
//   - Writeback uses the single-page ->writepage path, not ->writepages;
//     each flushed page is its own log operation. Group commit batches
//     those ops by log space, so the per-page cost is CPU, not I/O: on
//     fig 4's seq and 32/128 KB rows and Table 5 the two are level, and
//     the rows that still differ from the paper (rnd 1024 KB, Table 4 at
//     32 threads, fileserver, untar) are ROADMAP item 11.
//   - Its recovery, block map, allocators and directories are its own.
// The log is not a difference: as in the Bento port, blk::OpJournal
// decides when an op starts and when a transaction commits (by log space,
// age or the mount's max_log_batch), and a commit stages its log run,
// commit record, install and header clear through the journal engine's
// pipeline (blockdev/journal.h). fsync is the engine's force + barrier.
// On-disk format is identical to src/xv6fs (both are "the xv6 file
// system"), so images are interchangeable between the two.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "blockdev/journal.h"
#include "blockdev/opts.h"
#include "kernel/kernel.h"
#include "xv6fs/layout.h"

namespace bsim::xv6c {

struct CLogStats : blk::JournalCounters {
  std::uint64_t commits = 0;
  std::uint64_t blocks_logged = 0;
  std::uint64_t log_aborted = 0;  // journal aborts (failed journal write)
};

/// Mount-level state: what the "xv6_vfs" fill_super returns, owned by the
/// kern::SuperBlock.
class Xv6cMount final : public kern::InodeOps,
                        public kern::FileOps,
                        public kern::SuperOps,
                        public kern::AddressSpaceOps {
 public:
  /// The log's tuning comes from `opts`: max_log_batch (an op cap on
  /// group commit) and pipeline ("nopipeline"), as on the Bento port.
  Xv6cMount(kern::SuperBlock& sb, const blk::MountOpts& opts)
      : sb_(&sb) {
    jnl_.reset(opts);
  }
  /// Frees the C-style per-inode state of every inode still cached.
  ~Xv6cMount() override;

  kern::Err mount_init();

  [[nodiscard]] const CLogStats& log_stats() const { return log_stats_; }
  /// Commits whose transfers are still outstanding (tests/diagnostics).
  [[nodiscard]] std::size_t inflight_commits() const {
    return jnl_.inflight();
  }

  // InodeOps
  kern::Result<kern::Inode*> lookup(kern::Inode& dir,
                                    std::string_view name) override;
  kern::Result<kern::Inode*> create(kern::Inode& dir, std::string_view name,
                                    std::uint32_t mode) override;
  kern::Err unlink(kern::Inode& dir, std::string_view name) override;
  kern::Result<kern::Inode*> mkdir(kern::Inode& dir, std::string_view name,
                                   std::uint32_t mode) override;
  kern::Err rmdir(kern::Inode& dir, std::string_view name) override;
  kern::Err rename(kern::Inode& old_dir, std::string_view old_name,
                   kern::Inode& new_dir, std::string_view new_name) override;
  kern::Err setattr(kern::Inode& inode, const kern::SetAttr& attr) override;

  // FileOps
  kern::Result<std::uint64_t> read(kern::Inode& inode, kern::FileHandle& fh,
                                   std::uint64_t off,
                                   std::span<std::byte> out) override;
  kern::Result<std::uint64_t> write(kern::Inode& inode, kern::FileHandle& fh,
                                    std::uint64_t off,
                                    std::span<const std::byte> in) override;
  kern::Err fsync(kern::Inode& inode, kern::FileHandle& fh,
                  bool datasync) override;
  kern::Err flush(kern::Inode& inode, kern::FileHandle& fh) override;
  kern::Err readdir(kern::Inode& inode, std::uint64_t& pos,
                    const kern::DirFiller& fill) override;

  // SuperOps
  kern::Err sync_fs(kern::SuperBlock& sb, bool wait) override;
  kern::Err statfs(kern::SuperBlock& sb, kern::StatFs& out) override;
  void put_super(kern::SuperBlock& sb) override;
  void evict_inode(kern::Inode& inode) override;

  // AddressSpaceOps: ->writepage only — no batched writeback.
  kern::Err readpage(kern::Inode& inode, std::uint64_t pgoff,
                     std::span<std::byte> out) override;
  kern::Err writepage(kern::Inode& inode, std::uint64_t pgoff,
                      std::span<const std::byte> in) override;
  [[nodiscard]] bool has_writepages() const override { return false; }

 private:
  // In-core inode, C style: the dinode copy hangs off kern::Inode::fs_priv.
  struct CInode {
    std::uint32_t inum = 0;
    xv6::Dinode d;
  };

  // xv6-style log over the buffer cache; its policy is blk::OpJournal's.
  /// The journal engine's binding to the buffer cache.
  struct CLogIo {
    Xv6cMount& m;

    void wait(const blk::Ticket& t) const { m.sb_->bufcache().wait(t); }
    void trace(blk::TraceEv ev, std::uint64_t txn, std::uint32_t n) const {
      m.sb_->bdev().trace_event(ev, txn, 0, n, blk::TraceOp::Journal);
    }
    void on_abort() const {
      m.log_stats_.log_aborted += 1;
      m.sb_->fs_error(kern::Err::Io);
    }
    void flush() const { m.sb_->bufcache().issue_flush(); }
  };
  CLogIo io() { return {*this}; }
  void log_begin();
  void log_write(std::uint64_t blockno);
  kern::Err log_end();
  /// Commit anything pending regardless of the group-commit batch and
  /// drain the pipeline (the fsync / sync / unmount commit step).
  kern::Err log_force();
  kern::Err log_commit();
  kern::Err log_recover();
  /// Write the log header (commit record or clear) as an async batch.
  kern::Result<blk::Ticket> log_header_write(const xv6::LogHeader& h);

  kern::Err read_dsb();
  /// Log dsb_ as block 1 in the open op.
  kern::Err log_dsb();

  kern::Result<kern::Inode*> iget(std::uint32_t inum);
  /// Drop a reference inside an open op: if this evicts the inode, its
  /// truncate and free join that op.
  void iput_in_op(kern::Inode* inode);
  /// Undo an ialloc whose directory link failed: free the inode and any
  /// blocks it was given, in the caller's op.
  void discard(kern::Inode* inode);
  static CInode* ci(kern::Inode& inode) {
    return static_cast<CInode*>(inode.fs_priv);
  }
  kern::Err iupdate(kern::Inode& inode);
  kern::Result<std::uint32_t> ialloc(xv6::InodeKind kind, std::uint32_t mode);
  /// Allocate a block, zeroed unless the caller overwrites all of it.
  kern::Result<std::uint32_t> balloc(bool zero = true);
  kern::Err bfree(std::uint32_t blockno);
  /// `overwrite`: the caller writes the whole of block `bn`, so a newly
  /// allocated one is not zeroed (index blocks always are).
  kern::Result<std::uint32_t> bmap(kern::Inode& inode, std::uint64_t bn,
                                   bool alloc, bool overwrite = false);
  /// Free blocks past `new_size`, inside the caller's op.
  kern::Err itrunc(kern::Inode& inode, std::uint64_t new_size);
  kern::Err zero_block_tail(kern::Inode& inode, std::uint64_t from);

  kern::Result<std::uint32_t> dir_scan(kern::Inode& dir,
                                       std::string_view name,
                                       std::uint64_t* off_out);
  kern::Err dir_link(kern::Inode& dir, std::string_view name,
                     std::uint32_t inum);
  kern::Err dir_unlink(kern::Inode& dir, std::string_view name);
  kern::Result<bool> dir_empty(kern::Inode& dir);
  kern::Err write_through_log(kern::Inode& inode, std::uint64_t off,
                              std::span<const std::byte> in);

  kern::SuperBlock* sb_;
  xv6::DiskSuperblock dsb_;
  sim::SimMutex alloc_lock_;    // §6.1 allocation locks
  bool evict_in_op_ = false;    // set by iput_in_op for evict_inode
  CLogStats log_stats_;
  blk::OpJournal<CLogIo> jnl_{log_stats_, xv6::kLogSize, xv6::kMaxOpBlocks};
  std::uint64_t free_blocks_ = 0;
  std::uint64_t free_inodes_ = 0;
  /// The bitmap block balloc scans first: the one it last allocated from.
  std::uint32_t balloc_hint_ = 0;
  /// balloc's cursor in each bitmap block: every data bit below it is
  /// allocated. bfree lowers it, mount seeds it.
  std::vector<std::uint32_t> balloc_cursors_;
  /// ialloc's cursor: the lowest inode that may be free. Every inode below
  /// it is allocated; evict_inode lowers it, mount seeds it.
  std::uint32_t ialloc_hint_ = 1;
};

/// Register the VFS C baseline ("xv6_vfs") with the kernel.
void register_xv6c(kern::Kernel& kernel, std::string name = "xv6_vfs");

}  // namespace bsim::xv6c
