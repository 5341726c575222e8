// Unit tests for the Bento ownership model (§4.4) and capability types
// (§4.6-§4.7): borrow accounting, reborrowing, RAII buffer handles, and
// the framework's post-call contract checks.
#include <gtest/gtest.h>

#include <utility>

#include "bento/kernel_services.h"
#include "bento/ownership.h"
#include "bento/user.h"
#include "sim/thread.h"

namespace bsim::bento {
namespace {

struct Dummy {
  int value = 7;
};

TEST(Ownership, BorrowCountsWhileAlive) {
  BorrowLedger ledger;
  Dummy obj;
  EXPECT_TRUE(ledger.balanced());
  {
    Borrowed<Dummy> b(obj, ledger);
    EXPECT_EQ(ledger.outstanding(), 1);
    EXPECT_FALSE(ledger.balanced());
    EXPECT_EQ(b->value, 7);
  }
  EXPECT_TRUE(ledger.balanced());
  EXPECT_EQ(ledger.total(), 1);
}

TEST(Ownership, MoveTransfersTheBorrow) {
  BorrowLedger ledger;
  Dummy obj;
  Borrowed<Dummy> a(obj, ledger);
  Borrowed<Dummy> b = std::move(a);
  EXPECT_EQ(ledger.outstanding(), 1);  // still exactly one borrow
  EXPECT_EQ(b->value, 7);
}

TEST(Ownership, ReborrowNestsAndUnwinds) {
  BorrowLedger ledger;
  Dummy obj;
  Borrowed<Dummy> a(obj, ledger);
  {
    auto b = a.reborrow();
    EXPECT_EQ(ledger.outstanding(), 2);
    EXPECT_EQ(b->value, 7);
  }
  EXPECT_EQ(ledger.outstanding(), 1);
}

TEST(Ownership, EscapedBorrowIsDetected) {
  // A file system that stores a borrowed capability (what safe Rust would
  // reject at compile time) leaves the ledger unbalanced — the runtime
  // check the framework asserts after every call.
  BorrowLedger ledger;
  Dummy obj;
  auto* escaped = new Borrowed<Dummy>(obj, ledger);
  EXPECT_FALSE(ledger.balanced());
  delete escaped;
  EXPECT_TRUE(ledger.balanced());
}

class CapabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { sim::set_current(&thread_); }
  void TearDown() override { sim::set_current(nullptr); }

  sim::SimThread thread_{0};
};

TEST_F(CapabilityTest, BufferHandleReleasesOnDestruction) {
  blk::DeviceParams p;
  p.nblocks = 64;
  blk::BlockDevice dev(p);
  kern::BufferCache cache(dev, 8);
  KernelBlockBackend backend(cache);
  auto cap = CapTestAccess::make(backend);

  {
    auto bh = cap->bread(3);
    ASSERT_TRUE(bh.ok());
    EXPECT_EQ(cache.outstanding_refs(), 1u);
    EXPECT_EQ(bh.value().data().size(), blk::kBlockSize);
  }
  // RAII: the handle's destructor performed brelse.
  EXPECT_EQ(cache.outstanding_refs(), 0u);
}

TEST_F(CapabilityTest, BufferHandleMoveKeepsSingleReference) {
  blk::DeviceParams p;
  p.nblocks = 64;
  blk::BlockDevice dev(p);
  kern::BufferCache cache(dev, 8);
  KernelBlockBackend backend(cache);
  auto cap = CapTestAccess::make(backend);

  auto bh = cap->bread(3);
  ASSERT_TRUE(bh.ok());
  BufferHeadHandle moved = std::move(bh.value());
  EXPECT_EQ(cache.outstanding_refs(), 1u);
  EXPECT_TRUE(static_cast<bool>(moved));
  EXPECT_FALSE(static_cast<bool>(bh.value()));
  moved.reset();
  EXPECT_EQ(cache.outstanding_refs(), 0u);
}

TEST_F(CapabilityTest, SyncWritesThrough) {
  blk::DeviceParams p;
  p.nblocks = 64;
  blk::BlockDevice dev(p);
  kern::BufferCache cache(dev, 8);
  KernelBlockBackend backend(cache);
  auto cap = CapTestAccess::make(backend);

  auto bh = cap->getblk(5);
  ASSERT_TRUE(bh.ok());
  bh.value().data()[0] = std::byte{0xEE};
  bh.value().set_dirty();
  BufferHeadHandle* one = &bh.value();
  const blk::Ticket t = cap->sync_batch_async({&one, 1});
  cap->wait(t);
  EXPECT_FALSE(t.failed);
  std::array<std::byte, blk::kBlockSize> r{};
  dev.read_untimed(5, r);
  EXPECT_EQ(r[0], std::byte{0xEE});
}

TEST_F(CapabilityTest, MemBackendForDebugRig) {
  // The §4.9 debugging configuration: the same capability surface over a
  // purely in-memory backend, no kernel anywhere.
  MemBlockBackend backend(32);
  auto cap = CapTestAccess::make(backend);
  auto bh = cap->getblk(1);
  ASSERT_TRUE(bh.ok());
  bh.value().data()[10] = std::byte{0x42};
  bh.value().reset();
  auto again = cap->bread(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().data()[10], std::byte{0x42});
}

TEST_F(CapabilityTest, OutOfRangeBlockRejected) {
  MemBlockBackend backend(4);
  auto cap = CapTestAccess::make(backend);
  auto bh = cap->bread(99);
  EXPECT_FALSE(bh.ok());
}

}  // namespace
}  // namespace bsim::bento
