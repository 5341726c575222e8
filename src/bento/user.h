// Userspace Bento (paper §4.9, Figure 1b): the same file-operations API
// served outside the kernel, so the identical file-system code can run
// under a userspace debugger or behind the FUSE transport.
//
//   UserBlockBackend — BentoKS-User: block I/O through the host file
//       interface. The disk is opened O_DIRECT; a small userspace block
//       cache stands in for the buffer cache; a batch of block writes is
//       one pwrite per block plus one fsync of the whole disk file — the
//       §6.4 behaviour that dominates the FUSE numbers.
//   MemBlockBackend  — pure in-memory backend for the debugging rig and
//       unit tests (no kernel at all).
//   UserMount        — the framework object that owns the backend and the
//       capability, and dispatches calls with borrow checking, mirroring
//       BentoModule's caller-side contract.
#pragma once

#include <list>
#include <memory>
#include <unordered_map>

#include "bento/api.h"
#include "kernel/kernel.h"
#include "kernel/uring.h"

namespace bsim::bento {

/// BentoKS-User block backend over a /dev file (O_DIRECT).
class UserBlockBackend final : public BlockBackend {
 public:
  /// With `use_uring`, batch writes and flushes put their pwrites and
  /// the trailing fsync into one io_uring_enter (paper §8.1) instead of
  /// one syscall each. The whole-file fsync *semantics* are unchanged —
  /// only crossing costs shrink (see bench_ablation_uring).
  UserBlockBackend(kern::Kernel& kernel, kern::Process& proc, int fd,
                   std::uint64_t nblocks, std::size_t cache_blocks = 4096,
                   bool use_uring = false);
  ~UserBlockBackend() override;

  [[nodiscard]] std::uint64_t nblocks() const override { return nblocks_; }
  void flush_all() override;

  struct Stats {
    std::uint64_t preads = 0;
    std::uint64_t pwrites = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t uring_enters = 0;  // batched submissions (0 w/o uring)
  };
  [[nodiscard]] const Stats& io_stats() const { return stats_; }

 protected:
  kern::Result<BufferHeadHandle> bread(std::uint64_t blockno) override;
  kern::Result<BufferHeadHandle> getblk(std::uint64_t blockno) override;
  std::span<std::byte> bh_data(void* impl) override;
  void bh_set_dirty(void* impl) override;
  blk::Ticket bh_sync_batch_async(std::span<void* const> impls) override;
  void bh_get(void* impl) override;
  void bh_release(void* impl) override;

 private:
  struct UserBuf {
    std::uint64_t blockno = 0;
    bool uptodate = false;
    bool dirty = false;
    /// Virtual time the block's pread returned. A read whose clock is
    /// still before it found the pread in flight and waits for it.
    sim::Nanos filled_at = 0;
    int refcount = 0;
    // File systems overlay on-disk structs (8-byte aligned) on block data.
    alignas(8) std::array<std::byte, blk::kBlockSize> data{};
  };

  kern::Result<UserBuf*> get_buf(std::uint64_t blockno, bool read);
  /// pwrite each of `impls`, then fsync the whole disk file. Io when any
  /// write or the fsync failed; a block whose write failed stays dirty.
  kern::Err write_and_fsync(std::span<void* const> impls);
  void evict_if_needed();
  /// Queue one block pwrite on the ring, submitting first if the SQ is
  /// full. The caller clears the block's dirty bit; a failed completion
  /// sets it again.
  void ring_write(const UserBuf& buf);
  /// One io_uring_enter for what is queued, then drain the completions.
  void ring_submit();
  /// Queue an fsync if asked, submit what is queued, and drain. Io when a
  /// completion drained since the last ring_finish failed.
  kern::Err ring_finish(bool fsync);

  kern::Kernel* kernel_;
  kern::Process* proc_;
  int fd_;
  std::uint64_t nblocks_;
  std::size_t cache_blocks_;
  // Cached blocks in insertion order, newest first (a hit does not move a
  // block), each living in its list node; index_ finds them by number.
  std::list<UserBuf> lru_;
  std::unordered_map<std::uint64_t, std::list<UserBuf>::iterator> index_;
  std::unique_ptr<kern::IoUring> ring_;  // null unless use_uring
  bool ring_failed_ = false;  // a completion failed since ring_finish
  Stats stats_;
};

/// In-memory backend for the debugging rig and tests; block ops carry the
/// kernel-cache cost model so timing-sensitive logic still runs, but there
/// is no device underneath.
class MemBlockBackend final : public BlockBackend {
 public:
  explicit MemBlockBackend(std::uint64_t nblocks);
  /// A backend holding a copy of `image` (an mkfs'd device), loaded
  /// untimed. Blocks that read as zeros are left sparse.
  explicit MemBlockBackend(blk::BlockDevice& image);
  ~MemBlockBackend() override;

  [[nodiscard]] std::uint64_t nblocks() const override { return nblocks_; }
  void flush_all() override {}

 protected:
  kern::Result<BufferHeadHandle> bread(std::uint64_t blockno) override;
  kern::Result<BufferHeadHandle> getblk(std::uint64_t blockno) override;
  std::span<std::byte> bh_data(void* impl) override;
  void bh_set_dirty(void* impl) override;
  blk::Ticket bh_sync_batch_async(std::span<void* const>) override {
    return {};
  }
  void bh_get(void* impl) override;
  void bh_release(void* impl) override;

 private:
  struct MemBuf {
    int refcount = 0;
    // File systems overlay on-disk structs (8-byte aligned) on block data.
    alignas(8) std::array<std::byte, blk::kBlockSize> data{};
  };
  std::uint64_t nblocks_;
  std::unordered_map<std::uint64_t, std::unique_ptr<MemBuf>> blocks_;
};

/// Framework object for userspace deployments: owns a backend, mints the
/// SuperBlockCap, and lends it per call with ledger checking.
class UserMount {
 public:
  UserMount(std::unique_ptr<BlockBackend> backend,
            std::unique_ptr<FileSystem> fs);
  ~UserMount();

  /// fs->init through the framework. Must be called before dispatching.
  Err mount_init();
  /// fs->destroy + flush.
  void unmount();
  /// Crash testing: drop the mount with no flush and no destroy — the
  /// simulated machine lost power. The destructor then tears down state
  /// without running any orderly-shutdown file-system code.
  void abandon() { mounted_ = false; }

  [[nodiscard]] FileSystem& fs() { return *fs_; }
  [[nodiscard]] const BorrowLedger& ledger() const { return ledger_; }

  /// Lend the capability for one call into the file system.
  [[nodiscard]] SbRef borrow() { return SbRef(cap_, ledger_); }
  [[nodiscard]] Request mkreq() {
    Request r;
    r.unique = next_unique_++;
    return r;
  }
  /// Assert the ownership contract after a dispatched call.
  void check_borrows() const {
    assert(ledger_.balanced() && "file system escaped a borrowed capability");
  }

  /// Online upgrade at user level (same semantics as BentoModule::upgrade).
  Err upgrade(std::unique_ptr<FileSystem> next);

 private:
  std::unique_ptr<BlockBackend> backend_;
  SuperBlockCap cap_;
  BorrowLedger ledger_;
  std::unique_ptr<FileSystem> fs_;
  std::uint64_t next_unique_ = 1;
  bool mounted_ = false;
};

}  // namespace bsim::bento
