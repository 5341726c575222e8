#include "bento/kernel_services.h"

#include <algorithm>

#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::bento {

BufferHeadHandle BlockBackend::make_handle(BlockBackend& owner, void* impl,
                                           std::uint64_t blockno) {
  return BufferHeadHandle(owner, impl, blockno);
}

kern::Result<std::vector<BufferHeadHandle>> BlockBackend::bread_batch(
    std::span<const std::uint64_t> blocknos) {
  // Unbatched default (userspace backends): one bread per block.
  std::vector<BufferHeadHandle> out;
  out.reserve(blocknos.size());
  for (const std::uint64_t blockno : blocknos) {
    auto r = bread(blockno);
    if (!r.ok()) return r.error();
    out.push_back(std::move(r.value()));
  }
  return out;
}

blk::Ticket BlockBackend::bh_write_run(std::uint64_t start,
                                       std::span<void* const> impls) {
  std::vector<BufferHeadHandle> dsts;  // released once the batch is written
  std::vector<void*> dst_impls;
  for (std::size_t i = 0; i < impls.size(); ++i) {
    auto dst = getblk(start + i);
    if (!dst.ok()) return blk::Ticket{.failed = true};
    std::ranges::copy(bh_data(impls[i]), dst.value().data().begin());
    dst.value().set_dirty();
    dst_impls.push_back(dst.value().impl_);
    dsts.push_back(std::move(dst.value()));
  }
  return bh_sync_batch_async(dst_impls);
}

blk::Ticket SuperBlockCap::sync_batch_async(
    std::span<BufferHeadHandle* const> handles) {
  std::vector<void*> impls;
  impls.reserve(handles.size());
  for (BufferHeadHandle* h : handles) {
    assert(h != nullptr && *h && "sync_batch_async over an empty handle");
    impls.push_back(h->impl_);
  }
  return backend_->bh_sync_batch_async(impls);
}

blk::Ticket SuperBlockCap::write_run(std::uint64_t start,
                                     std::span<BufferHeadHandle* const> srcs) {
  std::vector<void*> impls;
  impls.reserve(srcs.size());
  for (BufferHeadHandle* h : srcs) {
    assert(h != nullptr && *h && "write_run from an empty handle");
    impls.push_back(h->impl_);
  }
  return backend_->bh_write_run(start, impls);
}

std::span<std::byte> BufferHeadHandle::data() {
  assert(owner_ != nullptr && "use of empty BufferHeadHandle");
  sim::charge(sim::costs().bento_wrapper_check);
  return owner_->bh_data(impl_);
}

std::span<const std::byte> BufferHeadHandle::data() const {
  assert(owner_ != nullptr && "use of empty BufferHeadHandle");
  sim::charge(sim::costs().bento_wrapper_check);
  return owner_->bh_data(impl_);
}

void BufferHeadHandle::set_dirty() {
  assert(owner_ != nullptr);
  owner_->bh_set_dirty(impl_);
}

void BufferHeadHandle::set_drop_behind() {
  assert(owner_ != nullptr);
  owner_->bh_drop_behind(impl_);
}

void BufferHeadHandle::reset() {
  if (owner_ != nullptr) {
    owner_->bh_release(impl_);
    owner_ = nullptr;
    impl_ = nullptr;
  }
}

BufferHeadHandle BufferHeadHandle::dup() const {
  assert(owner_ != nullptr && "dup of an empty BufferHeadHandle");
  owner_->bh_get(impl_);
  return BufferHeadHandle(*owner_, impl_, blockno_);
}

void KernelBlockBackend::flush_all() { cache_->issue_flush(); }

kern::Result<BufferHeadHandle> KernelBlockBackend::bread(
    std::uint64_t blockno) {
  auto r = cache_->bread(blockno);
  if (!r.ok()) return r.error();
  return make_handle(*this, r.value(), blockno);
}

kern::Result<std::vector<BufferHeadHandle>> KernelBlockBackend::bread_batch(
    std::span<const std::uint64_t> blocknos) {
  auto r = cache_->bread_batch(blocknos);
  if (!r.ok()) return r.error();
  std::vector<BufferHeadHandle> out;
  out.reserve(r.value().size());
  for (std::size_t i = 0; i < r.value().size(); ++i) {
    out.push_back(make_handle(*this, r.value()[i], blocknos[i]));
  }
  return out;
}

kern::Result<BufferHeadHandle> KernelBlockBackend::getblk(
    std::uint64_t blockno) {
  auto r = cache_->getblk(blockno);
  if (!r.ok()) return r.error();
  return make_handle(*this, r.value(), blockno);
}

std::span<std::byte> KernelBlockBackend::bh_data(void* impl) {
  return static_cast<kern::BufferHead*>(impl)->bytes();
}

void KernelBlockBackend::bh_set_dirty(void* impl) {
  cache_->mark_dirty(static_cast<kern::BufferHead*>(impl));
}

void KernelBlockBackend::bh_drop_behind(void* impl) {
  cache_->mark_drop_behind(static_cast<kern::BufferHead*>(impl));
}

blk::Ticket KernelBlockBackend::bh_sync_batch_async(
    std::span<void* const> impls) {
  std::vector<kern::BufferHead*> bhs;
  bhs.reserve(impls.size());
  for (void* impl : impls) {
    bhs.push_back(static_cast<kern::BufferHead*>(impl));
  }
  return cache_->sync_dirty_buffers_async(bhs);
}

void KernelBlockBackend::bh_sync_wait(const blk::Ticket& t) {
  cache_->wait(t);
}

blk::Ticket KernelBlockBackend::bh_write_run(std::uint64_t start,
                                             std::span<void* const> impls) {
  std::vector<std::span<const std::byte>> srcs;
  srcs.reserve(impls.size());
  for (void* impl : impls) {
    srcs.push_back(static_cast<kern::BufferHead*>(impl)->bytes());
  }
  return cache_->write_run(start, srcs);
}

void KernelBlockBackend::invalidate_range(std::uint64_t first,
                                          std::uint64_t n) {
  cache_->invalidate(first, n);
}

void KernelBlockBackend::bh_release(void* impl) {
  cache_->brelse(static_cast<kern::BufferHead*>(impl));
}

void KernelBlockBackend::bh_get(void* impl) {
  cache_->bget(static_cast<kern::BufferHead*>(impl));
}

std::unique_ptr<SuperBlockCap> CapTestAccess::make(BlockBackend& backend) {
  return std::make_unique<SuperBlockCap>(SuperBlockCap::Key{}, backend);
}

}  // namespace bsim::bento
