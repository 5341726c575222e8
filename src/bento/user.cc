#include "bento/user.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bsim::bento {

// ---- UserBlockBackend ----

UserBlockBackend::UserBlockBackend(kern::Kernel& kernel, kern::Process& proc,
                                   int fd, std::uint64_t nblocks,
                                   std::size_t cache_blocks, bool use_uring)
    : kernel_(&kernel),
      proc_(&proc),
      fd_(fd),
      nblocks_(nblocks),
      cache_blocks_(cache_blocks) {
  if (use_uring) {
    ring_ = std::make_unique<kern::IoUring>(kernel, proc, /*sq_entries=*/256);
  }
}

void UserBlockBackend::ring_write(const UserBuf& buf) {
  const std::span<const std::byte> data{buf.data.data(), buf.data.size()};
  const std::uint64_t off = buf.blockno * blk::kBlockSize;
  if (ring_->prep_write(fd_, data, off, buf.blockno) == kern::Err::Again) {
    ring_submit();
    (void)ring_->prep_write(fd_, data, off, buf.blockno);
  }
  stats_.pwrites += 1;
}

void UserBlockBackend::ring_submit() {
  (void)ring_->submit();
  stats_.uring_enters += 1;
  while (const auto cqe = ring_->pop_cqe()) {
    if (cqe->err == kern::Err::Ok) continue;
    ring_failed_ = true;
    // A pwrite's user_data is its block number (the fsync's matches none):
    // a block whose write failed stays dirty.
    auto it = cache_.find(cqe->user_data);
    if (it != cache_.end()) it->second->dirty = true;
  }
}

kern::Err UserBlockBackend::ring_finish(bool fsync) {
  if (fsync) {
    if (ring_->prep_fsync(fd_, /*datasync=*/false, ~0ULL) == kern::Err::Again) {
      ring_submit();
      (void)ring_->prep_fsync(fd_, /*datasync=*/false, ~0ULL);
    }
    stats_.fsyncs += 1;
  }
  if (ring_->sq_pending() > 0 || fsync) ring_submit();
  return std::exchange(ring_failed_, false) ? kern::Err::Io : kern::Err::Ok;
}

UserBlockBackend::~UserBlockBackend() = default;

kern::Result<UserBlockBackend::UserBuf*> UserBlockBackend::get_buf(
    std::uint64_t blockno, bool read) {
  if (blockno >= nblocks_) return kern::Err::Io;
  auto it = cache_.find(blockno);
  if (it == cache_.end()) {
    evict_if_needed();
    auto buf = std::make_unique<UserBuf>();
    buf->blockno = blockno;
    it = cache_.emplace(blockno, std::move(buf)).first;
    lru_.push_front(blockno);
  }
  UserBuf* buf = it->second.get();
  if (read && !buf->uptodate) {
    auto r = kernel_->pread(*proc_, fd_, {buf->data.data(), buf->data.size()},
                            blockno * blk::kBlockSize);
    if (!r.ok()) return r.error();
    stats_.preads += 1;
    buf->uptodate = true;
    buf->filled_at = sim::now();
  } else if (read) {
    sim::current().wait_until(buf->filled_at);
  }
  buf->refcount += 1;
  return buf;
}

void UserBlockBackend::evict_if_needed() {
  if (cache_blocks_ == 0 || cache_.size() < cache_blocks_) return;
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    auto mit = cache_.find(*it);
    if (mit == cache_.end()) {
      continue;
    }
    // A dirty block stays: only its owner's write (a journal commit) may
    // put it on media.
    const UserBuf* buf = mit->second.get();
    if (buf->refcount > 0 || buf->dirty) continue;
    lru_.erase(std::next(it).base());
    cache_.erase(mit);
    return;
  }
}

kern::Result<BufferHeadHandle> UserBlockBackend::bread(std::uint64_t blockno) {
  auto r = get_buf(blockno, /*read=*/true);
  if (!r.ok()) return r.error();
  return make_handle(*this, r.value(), blockno);
}

kern::Result<BufferHeadHandle> UserBlockBackend::getblk(
    std::uint64_t blockno) {
  auto r = get_buf(blockno, /*read=*/false);
  if (!r.ok()) return r.error();
  r.value()->uptodate = true;
  return make_handle(*this, r.value(), blockno);
}

std::span<std::byte> UserBlockBackend::bh_data(void* impl) {
  auto* buf = static_cast<UserBuf*>(impl);
  return {buf->data.data(), buf->data.size()};
}

void UserBlockBackend::bh_set_dirty(void* impl) {
  static_cast<UserBuf*>(impl)->dirty = true;
}

kern::Err UserBlockBackend::bh_sync(void* impl) {
  // The §6.4 behaviour: one durable block write from userspace costs a
  // pwrite plus an fsync of the entire disk file. With io_uring the two
  // ops share one crossing — but the whole-file fsync semantics (and its
  // host-side cost) remain.
  return bh_sync_batch({&impl, 1});
}

kern::Err UserBlockBackend::bh_sync_batch(std::span<void* const> impls) {
  // A batched commit run from userspace: the pwrites are unavoidable, but
  // the whole-file fsync — §6.4's dominant term — is paid once for the
  // run instead of once per block. With io_uring the pwrites and the
  // trailing fsync additionally share one crossing.
  if (ring_ != nullptr) {
    for (void* impl : impls) {
      auto* buf = static_cast<UserBuf*>(impl);
      ring_write(*buf);
      buf->dirty = false;
    }
    return ring_finish(/*fsync=*/true);
  }
  kern::Err result = kern::Err::Ok;
  for (void* impl : impls) {
    auto* buf = static_cast<UserBuf*>(impl);
    auto w = kernel_->pwrite(*proc_, fd_, {buf->data.data(), buf->data.size()},
                             buf->blockno * blk::kBlockSize);
    stats_.pwrites += 1;
    if (w.ok()) {
      buf->dirty = false;
    } else {
      result = w.error();
    }
  }
  const kern::Err synced = kernel_->fsync(*proc_, fd_);
  stats_.fsyncs += 1;
  return result != kern::Err::Ok ? result : synced;
}

void UserBlockBackend::bh_get(void* impl) {
  auto* buf = static_cast<UserBuf*>(impl);
  assert(buf->refcount > 0);
  buf->refcount += 1;
}

void UserBlockBackend::bh_release(void* impl) {
  auto* buf = static_cast<UserBuf*>(impl);
  assert(buf->refcount > 0);
  buf->refcount -= 1;
}

void UserBlockBackend::flush_all() {
  // An empty batch is just the whole-file fsync: the barrier writes no
  // block, so an aborted transaction's dirty blocks never reach home.
  (void)bh_sync_batch({});
}

// ---- MemBlockBackend ----

MemBlockBackend::MemBlockBackend(std::uint64_t nblocks) : nblocks_(nblocks) {}

MemBlockBackend::MemBlockBackend(blk::BlockDevice& image)
    : nblocks_(image.nblocks()) {
  auto buf = std::make_unique<MemBuf>();
  for (std::uint64_t b = 0; b < nblocks_; ++b) {
    image.read_untimed(b, buf->data);
    if (std::all_of(buf->data.begin(), buf->data.end(),
                    [](std::byte x) { return x == std::byte{0}; })) {
      continue;
    }
    blocks_.emplace(b, std::move(buf));
    buf = std::make_unique<MemBuf>();
  }
}

MemBlockBackend::~MemBlockBackend() = default;

kern::Result<BufferHeadHandle> MemBlockBackend::bread(std::uint64_t blockno) {
  return getblk(blockno);
}

kern::Result<BufferHeadHandle> MemBlockBackend::getblk(std::uint64_t blockno) {
  if (blockno >= nblocks_) return kern::Err::Io;
  auto it = blocks_.find(blockno);
  if (it == blocks_.end()) {
    it = blocks_.emplace(blockno, std::make_unique<MemBuf>()).first;
  }
  it->second->refcount += 1;
  return make_handle(*this, it->second.get(), blockno);
}

std::span<std::byte> MemBlockBackend::bh_data(void* impl) {
  auto* buf = static_cast<MemBuf*>(impl);
  return {buf->data.data(), buf->data.size()};
}

void MemBlockBackend::bh_set_dirty(void*) {}

void MemBlockBackend::bh_get(void* impl) {
  auto* buf = static_cast<MemBuf*>(impl);
  assert(buf->refcount > 0);
  buf->refcount += 1;
}

void MemBlockBackend::bh_release(void* impl) {
  auto* buf = static_cast<MemBuf*>(impl);
  assert(buf->refcount > 0);
  buf->refcount -= 1;
}

// ---- UserMount ----

UserMount::UserMount(std::unique_ptr<BlockBackend> backend,
                     std::unique_ptr<FileSystem> fs)
    : backend_(std::move(backend)),
      cap_(SuperBlockCap::Key{}, *backend_),
      fs_(std::move(fs)) {}

UserMount::~UserMount() {
  if (mounted_) unmount();
}

Err UserMount::mount_init() {
  Err e = fs_->init(mkreq(), borrow());
  check_borrows();
  if (e == Err::Ok) mounted_ = true;
  return e;
}

void UserMount::unmount() {
  if (!mounted_) return;
  (void)fs_->sync_fs(mkreq(), borrow());
  fs_->destroy(mkreq(), borrow());
  check_borrows();
  backend_->flush_all();
  mounted_ = false;
}

Err UserMount::upgrade(std::unique_ptr<FileSystem> next) {
  TransferableState state = fs_->prepare_transfer(mkreq(), borrow());
  check_borrows();
  Err e = next->restore_state(mkreq(), borrow(), std::move(state));
  if (e == Err::NoSys) e = next->init(mkreq(), borrow());
  check_borrows();
  if (e != Err::Ok) return e;
  fs_ = std::move(next);
  return Err::Ok;
}

}  // namespace bsim::bento
