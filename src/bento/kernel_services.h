// BentoKS: the kernel services API (paper §4.5–§4.7).
//
// File systems written against Bento never touch kernel pointers. They
// receive *capability types* — SuperBlockCap, BufferHeadHandle — whose
// creation is restricted to the framework (passkey idiom standing in for
// Rust's module privacy). A BufferHeadHandle is the paper's BufferHead
// wrapper: data() yields a correctly-sized memory region, and the
// destructor calls brelse so "memory leaks are possible but difficult".
//
// The same capability surface is implemented by two backends:
//   KernelBlockBackend  — over the in-kernel buffer cache (kernel Bento)
//   UserBlockBackend    — over a /dev file opened O_DIRECT (userspace Bento
//                         for FUSE deployment and debugging, §4.9)
// which is what lets one file-system implementation run in both worlds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kernel/buffer_cache.h"
#include "kernel/errno.h"
#include "sim/sync.h"

namespace bsim::bento {

class SuperBlockCap;
class BufferHeadHandle;

/// Capability for an in-flight asynchronous batch write (the bio layer's
/// Ticket without kernel pointers). Obtained from
/// SuperBlockCap::sync_batch_async; redeemed with SuperBlockCap::wait.
/// Default-constructed tickets are empty and waiting on them is a no-op.
struct WriteTicket {
  blk::Ticket ticket{};
};

/// Where block I/O goes: the two implementations embody the kernel/user
/// split of Figure 1.
class BlockBackend {
 public:
  virtual ~BlockBackend() = default;

  [[nodiscard]] virtual std::uint64_t nblocks() const = 0;

  /// Durability barrier for everything previously written: the device
  /// FLUSH in the kernel, an fsync of the disk file from userspace. It
  /// writes no block: a dirty block reaches media only through its
  /// owner's write (a journal's commit or recovery), never at a barrier
  /// or on eviction.
  virtual void flush_all() = 0;

  /// Stripe geometry hint (blocks per full stripe row; 0 = no striping).
  [[nodiscard]] virtual std::uint64_t stripe_width() const { return 0; }

  /// Unrecoverable-error notification channel: a file system that must
  /// give up (journal abort on a failed journal write) reports it here,
  /// and the mounting framework routes it into the kernel SuperBlock's
  /// errors= policy (remount-ro / continue / panic). Default: nowhere to
  /// report (the userspace debug rig has no kernel superblock).
  void set_fs_error_hook(std::function<void(kern::Err)> fn) {
    fs_error_hook_ = std::move(fn);
  }
  void report_fs_error(kern::Err e) {
    if (fs_error_hook_) fs_error_hook_(e);
  }

  /// Journal stage tracepoint (TO/TC/JW/JR/JK; see blockdev/trace.h):
  /// `txn` is the journal's transaction sequence, `nblocks` the stage's
  /// payload. No-op unless the kernel backend's device is traced;
  /// userspace backends have no trace ring and keep the default.
  virtual void trace_journal(blk::TraceEv ev, std::uint64_t txn,
                             std::uint32_t nblocks) {
    (void)ev;
    (void)txn;
    (void)nblocks;
  }

 protected:
  friend class SuperBlockCap;
  friend class BufferHeadHandle;
  virtual kern::Result<BufferHeadHandle> bread(std::uint64_t blockno) = 0;
  /// Batched read: one bio-layer submission in the kernel backend; the
  /// default loops bread() (the unbatched userspace behaviour).
  virtual kern::Result<std::vector<BufferHeadHandle>> bread_batch(
      std::span<const std::uint64_t> blocknos);
  virtual kern::Result<BufferHeadHandle> getblk(std::uint64_t blockno) = 0;
  virtual std::span<std::byte> bh_data(void* impl) = 0;
  virtual void bh_set_dirty(void* impl) = 0;
  /// The block holds regular-file data: drop it behind once it is clean
  /// (kern::BufferHead::drop_behind). Default no-op (userspace backends
  /// keep no bounded cache of their own).
  virtual void bh_drop_behind(void* impl) { (void)impl; }
  /// Synchronous durable write of this block (sync_dirty_buffer in the
  /// kernel; pwrite + whole-file fsync from userspace — §6.4). Io when the
  /// write failed; the block then stays dirty.
  virtual kern::Err bh_sync(void* impl) = 0;
  /// Batched synchronous write of many blocks: one request-queue
  /// submission in the kernel; from userspace the pwrites batch but the
  /// whole-file fsync is paid once for the batch. Default loops bh_sync.
  /// Io when any write failed; each failed block stays dirty.
  virtual kern::Err bh_sync_batch(std::span<void* const> impls);
  /// Non-barrier batched write: submit and return a ticket the caller
  /// redeems with bh_sync_wait, so a journal can overlap its checkpoint
  /// with subsequent work (QD>1). The default (userspace backends, which
  /// have no async device path) performs the write synchronously and
  /// returns an empty ticket, marked failed when the write failed.
  virtual WriteTicket bh_sync_batch_async(std::span<void* const> impls);
  virtual void bh_sync_wait(const WriteTicket& t) { (void)t; }
  /// Write the blocks `impls` hold to [start, start + impls.size()) without
  /// caching the destinations: a journal's log run from the buffers its
  /// transaction holds. The kernel builds the bios from the buffers' bytes
  /// (BufferCache::write_run). The default gets each destination block,
  /// copies into it and writes the batch with bh_sync_batch_async.
  virtual WriteTicket bh_write_run(std::uint64_t start,
                                   std::span<void* const> impls);
  /// One more reference to a held block (get_bh): no lookup.
  virtual void bh_get(void* impl) = 0;
  virtual void bh_release(void* impl) = 0;
  /// Drop the clean, unreferenced cached blocks of [first, first + n).
  /// Default no-op: the default bh_write_run goes through the backend's
  /// own cache, which therefore never goes stale.
  virtual void invalidate_range(std::uint64_t first, std::uint64_t n) {
    (void)first;
    (void)n;
  }

  /// For subclasses constructing handles.
  static BufferHeadHandle make_handle(BlockBackend& owner, void* impl,
                                      std::uint64_t blockno);

 private:
  std::function<void(kern::Err)> fs_error_hook_;
};

/// RAII capability for one cached block (the paper's BufferHead wrapper).
class BufferHeadHandle {
 public:
  BufferHeadHandle() = default;

  BufferHeadHandle(BufferHeadHandle&& o) noexcept { steal(o); }
  BufferHeadHandle& operator=(BufferHeadHandle&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  BufferHeadHandle(const BufferHeadHandle&) = delete;
  BufferHeadHandle& operator=(const BufferHeadHandle&) = delete;

  ~BufferHeadHandle() { reset(); }

  [[nodiscard]] explicit operator bool() const { return owner_ != nullptr; }
  [[nodiscard]] std::uint64_t blockno() const { return blockno_; }

  /// The block's contents as a correctly-sized region (§4.7). The small
  /// runtime check the paper describes for wrapping abstractions is charged
  /// here.
  [[nodiscard]] std::span<std::byte> data();
  [[nodiscard]] std::span<const std::byte> data() const;

  /// Mark the buffer dirty (mark_buffer_dirty).
  void set_dirty();

  /// Declare the block regular-file data, which the cache may drop ahead
  /// of metadata once it is written (cleared when the block is next
  /// obtained with getblk).
  void set_drop_behind();

  /// Synchronously make this block durable; Io when the write failed.
  kern::Err sync();

  /// Another handle on the same block, holding one more reference
  /// (get_bh): no cache lookup.
  [[nodiscard]] BufferHeadHandle dup() const;

  /// Explicit early release (otherwise the destructor does it).
  void reset();

 private:
  friend class BlockBackend;
  friend class SuperBlockCap;  // batch writes gather impl pointers
  BufferHeadHandle(BlockBackend& owner, void* impl, std::uint64_t blockno)
      : owner_(&owner), impl_(impl), blockno_(blockno) {}

  void steal(BufferHeadHandle& o) {
    owner_ = o.owner_;
    impl_ = o.impl_;
    blockno_ = o.blockno_;
    o.owner_ = nullptr;
    o.impl_ = nullptr;
  }

  BlockBackend* owner_ = nullptr;
  void* impl_ = nullptr;
  std::uint64_t blockno_ = 0;
};

/// Capability for the mounted superblock (§4.6): possession proves access
/// to a valid kernel super_block; creation is framework-only.
class SuperBlockCap {
 public:
  /// Passkey: only framework mount paths can mint a SuperBlockCap.
  class Key {
   private:
    Key() = default;
    friend class BentoModule;       // kernel BentoFS mount
    friend class UserMount;         // userspace Bento (FUSE daemon / debug)
    friend struct CapTestAccess;    // tests & the A4 overhead ablation
  };

  SuperBlockCap(Key, BlockBackend& backend) : backend_(&backend) {}

  SuperBlockCap(const SuperBlockCap&) = delete;
  SuperBlockCap& operator=(const SuperBlockCap&) = delete;

  [[nodiscard]] std::uint64_t nblocks() const { return backend_->nblocks(); }
  [[nodiscard]] std::uint32_t blocksize() const { return blk::kBlockSize; }

  /// Read a block through the (kernel or userspace) cache.
  kern::Result<BufferHeadHandle> bread(std::uint64_t blockno) {
    return backend_->bread(blockno);
  }
  /// Read many blocks as one batched submission (bio-layer merge +
  /// channel overlap in the kernel backend). Handles are returned in
  /// `blocknos` order.
  kern::Result<std::vector<BufferHeadHandle>> bread_batch(
      std::span<const std::uint64_t> blocknos) {
    return backend_->bread_batch(blocknos);
  }
  /// Get a block that will be fully overwritten.
  kern::Result<BufferHeadHandle> getblk(std::uint64_t blockno) {
    return backend_->getblk(blockno);
  }
  /// Submit `handles` as one batch WITHOUT waiting: the returned ticket
  /// is redeemed with wait(), letting file-system code keep a checkpoint
  /// in flight while it continues (e.g. overlapping the next journal
  /// record). Media effects land at submission, in submission order.
  WriteTicket sync_batch_async(std::span<BufferHeadHandle* const> handles);
  /// Redeem a ticket from sync_batch_async (no-op when already complete).
  void wait(const WriteTicket& t) { backend_->bh_sync_wait(t); }
  /// Write the contents of `srcs` to the consecutive blocks from `start`,
  /// WITHOUT waiting and without caching the destinations (a journal's log
  /// run, straight from the buffers the transaction holds). Redeemed with
  /// wait(). Nothing may have cached the destinations (see invalidate).
  WriteTicket write_run(std::uint64_t start,
                        std::span<BufferHeadHandle* const> srcs);
  /// Drop the clean, unreferenced cached blocks of [first, first + n):
  /// recovery's reads of a log area that write_run later overwrites.
  void invalidate(std::uint64_t first, std::uint64_t n) {
    backend_->invalidate_range(first, n);
  }
  /// Durability barrier (BlockBackend::flush_all); writes no block.
  void flush_all() { backend_->flush_all(); }
  /// Stripe geometry hint for write clustering (0 = no striping).
  [[nodiscard]] std::uint64_t stripe_width() const {
    return backend_->stripe_width();
  }
  /// Journal stage tracepoint (free on the sim clock; no-op untraced).
  void trace_journal(blk::TraceEv ev, std::uint64_t txn,
                     std::uint32_t nblocks) {
    backend_->trace_journal(ev, txn, nblocks);
  }
  /// Report an unrecoverable file-system error (journal abort) to the
  /// mounting framework (see BlockBackend::set_fs_error_hook).
  void report_fs_error(kern::Err e) { backend_->report_fs_error(e); }

 private:
  BlockBackend* backend_;
};

/// Test/bench-only escape hatch for minting a capability without a mount
/// (used by unit tests and the A4 zero-overhead ablation, which measure
/// the capability surface in isolation).
struct CapTestAccess {
  static std::unique_ptr<SuperBlockCap> make(BlockBackend& backend);
};

/// Kernel-side backend over the buffer cache.
class KernelBlockBackend final : public BlockBackend {
 public:
  explicit KernelBlockBackend(kern::BufferCache& cache) : cache_(&cache) {}

  [[nodiscard]] std::uint64_t nblocks() const override {
    return cache_->device().nblocks();
  }
  void flush_all() override;
  [[nodiscard]] std::uint64_t stripe_width() const override {
    return cache_->device().stripe_width_blocks();
  }
  void trace_journal(blk::TraceEv ev, std::uint64_t txn,
                     std::uint32_t nblocks) override {
    cache_->device().trace_event(ev, txn, 0, nblocks, blk::TraceOp::Journal);
  }

  [[nodiscard]] kern::BufferCache& cache() { return *cache_; }

 protected:
  kern::Result<BufferHeadHandle> bread(std::uint64_t blockno) override;
  kern::Result<std::vector<BufferHeadHandle>> bread_batch(
      std::span<const std::uint64_t> blocknos) override;
  kern::Result<BufferHeadHandle> getblk(std::uint64_t blockno) override;
  std::span<std::byte> bh_data(void* impl) override;
  void bh_set_dirty(void* impl) override;
  void bh_drop_behind(void* impl) override;
  kern::Err bh_sync(void* impl) override;
  WriteTicket bh_sync_batch_async(std::span<void* const> impls) override;
  void bh_sync_wait(const WriteTicket& t) override;
  WriteTicket bh_write_run(std::uint64_t start,
                           std::span<void* const> impls) override;
  void bh_get(void* impl) override;
  void bh_release(void* impl) override;
  void invalidate_range(std::uint64_t first, std::uint64_t n) override;

 private:
  kern::BufferCache* cache_;
};

/// Semaphore wrapper exposed to file systems (kernel semaphore in the
/// kernel build, std::sync-style mutex at user level — identical API).
class Semaphore {
 public:
  void acquire() { mu_.lock(); }
  void release() { mu_.unlock(); }
  /// Shared mode (down_read on an rw_semaphore): shared holders overlap;
  /// acquire() waits for the last of them.
  void acquire_shared() { mu_.lock_shared(); }
  void release_shared() { mu_.unlock_shared(); }

 private:
  sim::SimMutex mu_;
};

/// RAII guard for Semaphore.
class SemGuard {
 public:
  explicit SemGuard(Semaphore& s) : s_(s) { s_.acquire(); }
  ~SemGuard() { s_.release(); }
  SemGuard(const SemGuard&) = delete;
  SemGuard& operator=(const SemGuard&) = delete;

 private:
  Semaphore& s_;
};

/// RAII guard for Semaphore's shared mode.
class SharedSemGuard {
 public:
  explicit SharedSemGuard(Semaphore& s) : s_(s) { s_.acquire_shared(); }
  ~SharedSemGuard() { s_.release_shared(); }
  SharedSemGuard(const SharedSemGuard&) = delete;
  SharedSemGuard& operator=(const SharedSemGuard&) = delete;

 private:
  Semaphore& s_;
};

/// Current kernel time (ktime_get analogue) in virtual nanoseconds.
sim::Nanos ktime();

}  // namespace bsim::bento
