// The ext4-flavoured comparator file system (VFS-native, data=journal).
// See layout.h for what is and is not reproduced relative to real ext4.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "blockdev/journal.h"
#include "blockdev/opts.h"
#include "ext4/layout.h"
#include "kernel/kernel.h"
#include "sim/stats.h"

namespace bsim::ext4 {

/// Journal counters; the stage latencies take one sample per journal
/// record, and write_lat covers the descriptor+data journal run.
struct JournalStats : blk::JournalCounters {
  std::uint64_t commits = 0;  // journal records (commit blocks) written
  std::uint64_t blocks_journaled = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t jbd_aborted = 0;  // journal aborts (failed journal write)
};

/// Block-mapping accounting: the regression stat for the readahead path.
/// ->readpages resolves a whole contiguous run through map_run (each
/// indirect block read ONCE per run) instead of one bmap per page, so on
/// a sequential scan map_indirect_reads stays O(runs), not O(pages).
struct MapStats {
  std::uint64_t bmap_calls = 0;          // single-block lookups (write path)
  std::uint64_t map_runs = 0;            // map_run invocations
  std::uint64_t map_run_blocks = 0;      // blocks resolved by those runs
  std::uint64_t map_indirect_reads = 0;  // indirect-block breads inside runs
  std::uint64_t readpages_calls = 0;     // ->readpages batches served
};

class Ext4Mount final : public kern::InodeOps,
                        public kern::FileOps,
                        public kern::SuperOps,
                        public kern::AddressSpaceOps {
 public:
  Ext4Mount(kern::SuperBlock& sb, const blk::MountOpts& opts)
      : sb_(&sb), jnl_(jstats_, opts.pipeline) {}
  /// Frees the per-inode state of every inode still cached.
  ~Ext4Mount() override;

  kern::Err mount_init();

  [[nodiscard]] const JournalStats& journal_stats() const { return jstats_; }
  /// Commits whose transfers are still outstanding (tests/diagnostics).
  [[nodiscard]] std::size_t inflight_commits() const {
    return jnl_.inflight();
  }
  [[nodiscard]] const MapStats& map_stats() const { return mstats_; }
  [[nodiscard]] std::uint64_t free_blocks_total() const;
  [[nodiscard]] std::uint64_t free_inodes_total() const;

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

  // AddressSpaceOps: batched writepages + readpages (like real ext4).
  kern::Err readpages(kern::Inode& inode, std::uint64_t first_pgoff,
                      std::span<const std::span<std::byte>> pages) override;
  [[nodiscard]] bool has_readpages() const override { return true; }
  kern::Err readpage(kern::Inode& inode, std::uint64_t pgoff,
                     std::span<std::byte> out) override;
  kern::Err writepages(kern::Inode& inode,
                       std::span<const kern::PageRun> runs,
                       std::size_t& completed_runs) override;
  [[nodiscard]] bool has_writepages() const override { return true; }

 private:
  struct EInode {
    std::uint32_t inum = 0;
    Dinode d;
  };

  // ---- JBD2-style journal ----
  /// The journal engine's binding to the buffer cache.
  struct JbdIo {
    Ext4Mount& m;

    void wait(const blk::Ticket& t) const { m.sb_->bufcache().wait(t); }
    void trace(blk::TraceEv ev, std::uint64_t txn, std::uint32_t n) const {
      m.sb_->bdev().trace_event(ev, txn, 0, n, blk::TraceOp::Journal);
    }
    void on_abort() const {
      m.jstats_.jbd_aborted += 1;
      m.sb_->fs_error(kern::Err::Io);
    }
    void flush() const { m.sb_->bdev().flush(); }
  };
  JbdIo jio() { return {*this}; }
  /// Tag a modified (cached, dirty) block into the running transaction;
  /// its checkpoint is the block's only writer.
  void j_write(std::uint32_t blockno);
  /// Commit the running transaction (journal writes + commit record +
  /// checkpoint home blocks). The commit is pipelined: its tickets go to
  /// the engine's pipeline, so transaction N+1 opens and absorbs writes
  /// while N's records and checkpoint are still in flight.
  kern::Err j_commit();
  /// fsync, sync(2) and unmount: make everything up to now durable (the
  /// engine's force, then its barrier).
  kern::Err j_sync();
  kern::Err j_recover();
  /// Zero the descriptor at jstart and FLUSH: the journal holds nothing
  /// to replay (after recovery, and at a clean unmount).
  kern::Err j_mark_empty();

  kern::Err read_super();
  kern::Err gdt_update(std::uint32_t g);

  kern::Result<kern::Inode*> iget(std::uint32_t inum);
  static EInode* ei(kern::Inode& inode) {
    return static_cast<EInode*>(inode.fs_priv);
  }
  [[nodiscard]] std::uint32_t inode_block(std::uint32_t inum) const;
  kern::Err iupdate(kern::Inode& inode);
  kern::Result<std::uint32_t> ialloc(std::uint16_t type, std::uint32_t mode,
                                     std::uint32_t parent_group);
  kern::Err ifree(std::uint32_t inum);
  kern::Result<std::uint32_t> balloc(std::uint32_t goal_group);
  kern::Err bfree(std::uint32_t blockno);
  kern::Result<std::uint32_t> bmap(kern::Inode& inode, std::uint64_t bn,
                                   bool alloc);
  /// Resolve `count` consecutive logical blocks starting at `bn` in one
  /// pass (no allocation): direct slots come straight from the inode and
  /// each indirect block is read once for its whole overlap with the run,
  /// instead of once per block as repeated bmap calls would. Appends one
  /// address per block to `out` (0 = hole).
  kern::Err map_run(kern::Inode& inode, std::uint64_t bn, std::size_t count,
                    std::vector<std::uint32_t>& out);
  kern::Err itrunc(kern::Inode& inode, std::uint64_t new_size);
  kern::Err zero_block_tail(kern::Inode& inode, std::uint64_t from);
  /// The first block of group `g`: bit 0 of its block bitmap.
  [[nodiscard]] std::uint32_t group_base(std::uint32_t g) const;
  [[nodiscard]] std::uint32_t group_of_block(std::uint32_t blockno) const;
  [[nodiscard]] std::uint32_t group_of_inode(std::uint32_t inum) const;

  // ---- directories with an in-memory index (htree stand-in) ----
  struct DirIndex {
    std::unordered_map<std::string, std::uint32_t> entries;
    bool built = false;
  };
  kern::Result<DirIndex*> dir_index(kern::Inode& dir);
  kern::Result<std::uint32_t> dir_lookup(kern::Inode& dir,
                                         std::string_view name);
  kern::Err dir_link(kern::Inode& dir, std::string_view name,
                     std::uint32_t inum);
  kern::Err dir_unlink(kern::Inode& dir, std::string_view name);
  /// Undo an ialloc whose directory link failed: free the inode and any
  /// blocks it was given, in the running transaction.
  void discard(kern::Inode* inode);
  kern::Err write_through_journal(kern::Inode& inode, std::uint64_t off,
                                  std::span<const std::byte> in);

  kern::SuperBlock* sb_;
  Super super_;
  std::vector<GroupDesc> groups_;  // in-core GDT
  /// First-free cursors of each group's bitmaps: every data bit of the
  /// block bitmap below `block`, and every bit of the inode bitmap below
  /// `inode`, is allocated. Mount starts them at the group's first data
  /// block and first inode (no bitmap reads); bfree and ifree lower them.
  struct GroupCursors {
    std::uint32_t block = 0;
    std::uint32_t inode = 0;
  };
  std::vector<GroupCursors> cursors_;
  sim::SimMutex journal_lock_;
  sim::SimMutex alloc_lock_;
  std::uint32_t jseq_ = 1;
  JournalStats jstats_;
  blk::Journal<JbdIo> jnl_;
  MapStats mstats_;
  std::unordered_map<std::uint32_t, DirIndex> dir_indexes_;
  std::uint32_t alloc_cursor_ = 0;  // round-robin group goal
};

/// Register the comparator ("ext4j" — data=journal) with the kernel.
void register_ext4(kern::Kernel& kernel, std::string name = "ext4j");

}  // namespace bsim::ext4
