// Tests for the io_uring-style batched syscall path (paper §8.1):
// batching semantics, error reporting through CQEs, and the crossing-cost
// arithmetic that motivates using it for FUSE block I/O.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "../testutil.h"
#include "kernel/uring.h"

namespace bsim::test {
namespace {

using kern::Cqe;
using kern::Err;
using kern::IoUring;

class UringTest : public BentoXv6Fixture {
 protected:
  int open_file(std::string_view path, int flags) {
    auto fd = kernel_.open(proc(), path, flags, 0644);
    EXPECT_TRUE(fd.ok());
    return fd.value();
  }
};

TEST_F(UringTest, SubmitExecutesWholeBatch) {
  const int fd = open_file("/mnt/batch.txt", kern::kOCreat | kern::kORdWr);
  IoUring ring(kernel_, proc());

  const std::string a = "first ", b = "second ", c = "third";
  ASSERT_EQ(Err::Ok, ring.prep_write(fd, as_bytes(a), 0, 1));
  ASSERT_EQ(Err::Ok, ring.prep_write(fd, as_bytes(b), a.size(), 2));
  ASSERT_EQ(Err::Ok, ring.prep_write(fd, as_bytes(c), a.size() + b.size(), 3));
  EXPECT_EQ(3U, ring.sq_pending());

  auto n = ring.submit();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(3U, n.value());
  EXPECT_EQ(0U, ring.sq_pending());
  EXPECT_EQ(3U, ring.cq_ready());

  // Data landed.
  std::vector<std::byte> buf(a.size() + b.size() + c.size());
  auto r = kernel_.pread(proc(), fd, buf, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ("first second third", to_string(buf));
}

TEST_F(UringTest, CqesArriveInSubmissionOrderWithUserData) {
  const int fd = open_file("/mnt/order.txt", kern::kOCreat | kern::kORdWr);
  IoUring ring(kernel_, proc());
  const std::string data = "x";
  for (std::uint64_t tag = 10; tag < 15; ++tag) {
    ASSERT_EQ(Err::Ok, ring.prep_write(fd, as_bytes(data), tag - 10, tag));
  }
  ASSERT_TRUE(ring.submit().ok());
  for (std::uint64_t tag = 10; tag < 15; ++tag) {
    auto cqe = ring.pop_cqe();
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(tag, cqe->user_data);
    EXPECT_EQ(Err::Ok, cqe->err);
    EXPECT_EQ(1U, cqe->res);
  }
  EXPECT_FALSE(ring.pop_cqe().has_value());
}

TEST_F(UringTest, ReadSqeReturnsData) {
  const int fd = open_file("/mnt/read.txt", kern::kOCreat | kern::kORdWr);
  const std::string data = "ring around the rosie";
  ASSERT_TRUE(kernel_.pwrite(proc(), fd, as_bytes(data), 0).ok());

  IoUring ring(kernel_, proc());
  std::vector<std::byte> buf(data.size());
  ASSERT_EQ(Err::Ok, ring.prep_read(fd, buf, 0, 42));
  ASSERT_TRUE(ring.submit().ok());
  auto cqe = ring.pop_cqe();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(Err::Ok, cqe->err);
  EXPECT_EQ(data.size(), cqe->res);
  EXPECT_EQ(data, to_string(buf));
}

TEST_F(UringTest, BadFdFailsInCqeNotSubmit) {
  IoUring ring(kernel_, proc());
  std::vector<std::byte> buf(8);
  ASSERT_EQ(Err::Ok, ring.prep_read(9999, buf, 0, 7));
  auto n = ring.submit();
  ASSERT_TRUE(n.ok());  // the *submission* succeeds
  EXPECT_EQ(1U, n.value());
  auto cqe = ring.pop_cqe();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(Err::BadF, cqe->err);
  EXPECT_EQ(7U, cqe->user_data);
}

TEST_F(UringTest, MixedBatchReportsPerOpErrors) {
  const int fd = open_file("/mnt/mixed.txt", kern::kOCreat | kern::kORdWr);
  IoUring ring(kernel_, proc());
  const std::string data = "ok";
  ASSERT_EQ(Err::Ok, ring.prep_write(fd, as_bytes(data), 0, 1));
  std::vector<std::byte> buf(2);
  ASSERT_EQ(Err::Ok, ring.prep_read(12345, buf, 0, 2));  // bad fd
  ASSERT_EQ(Err::Ok, ring.prep_fsync(fd, false, 3));
  ASSERT_TRUE(ring.submit().ok());

  auto c1 = ring.pop_cqe();
  auto c2 = ring.pop_cqe();
  auto c3 = ring.pop_cqe();
  ASSERT_TRUE(c1 && c2 && c3);
  EXPECT_EQ(Err::Ok, c1->err);
  EXPECT_EQ(Err::BadF, c2->err);
  EXPECT_EQ(Err::Ok, c3->err);
}

TEST_F(UringTest, SqOverflowReturnsAgain) {
  const int fd = open_file("/mnt/full.txt", kern::kOCreat | kern::kORdWr);
  IoUring ring(kernel_, proc(), /*sq_entries=*/2);
  const std::string data = "d";
  EXPECT_EQ(Err::Ok, ring.prep_write(fd, as_bytes(data), 0, 1));
  EXPECT_EQ(Err::Ok, ring.prep_write(fd, as_bytes(data), 1, 2));
  EXPECT_EQ(Err::Again, ring.prep_write(fd, as_bytes(data), 2, 3));
  ASSERT_TRUE(ring.submit().ok());
  EXPECT_EQ(Err::Ok, ring.prep_write(fd, as_bytes(data), 2, 3));  // room again
}

TEST_F(UringTest, DeviceFileRespectsODirectAlignment) {
  const int fd = open_file("/dev/ssd0", kern::kORdWr | kern::kODirect);
  IoUring ring(kernel_, proc());

  std::vector<std::byte> page(4096);
  ASSERT_EQ(Err::Ok, ring.prep_read(fd, page, 4096, 1));
  std::vector<std::byte> odd(100);
  ASSERT_EQ(Err::Ok, ring.prep_read(fd, odd, 4096, 2));  // bad length
  ASSERT_TRUE(ring.submit().ok());

  auto c1 = ring.pop_cqe();
  auto c2 = ring.pop_cqe();
  ASSERT_TRUE(c1 && c2);
  EXPECT_EQ(Err::Ok, c1->err);
  EXPECT_EQ(4096U, c1->res);
  EXPECT_EQ(Err::Inval, c2->err);
}

TEST_F(UringTest, DeviceFileReportsMediaErrors) {
  // A bio that fails on media fails its pread/pwrite, as a syscall and as
  // a CQE, while a healthy neighbour in the same ring batch succeeds.
  const int fd = open_file("/dev/ssd0", kern::kORdWr | kern::kODirect);
  auto* dev = kernel_.device("ssd0");
  const std::uint64_t bad_read = 20020;
  const std::uint64_t bad_write = 20021;
  const std::uint64_t good = 20022;
  dev->inject_read_error(bad_read);
  dev->inject_write_error(bad_write);
  std::vector<std::byte> page(4096, std::byte{0x3c});

  EXPECT_EQ(Err::Io, kernel_.pread(proc(), fd, page, bad_read * 4096).error());
  EXPECT_EQ(Err::Io,
            kernel_.pwrite(proc(), fd, page, bad_write * 4096).error());

  IoUring ring(kernel_, proc());
  ASSERT_EQ(Err::Ok, ring.prep_write(fd, page, bad_write * 4096, 1));
  ASSERT_EQ(Err::Ok, ring.prep_write(fd, page, good * 4096, 2));
  ASSERT_TRUE(ring.submit().ok());
  auto c1 = ring.pop_cqe();
  auto c2 = ring.pop_cqe();
  ASSERT_TRUE(c1 && c2);
  EXPECT_EQ(Err::Io, c1->err);
  EXPECT_EQ(Err::Ok, c2->err);
  EXPECT_EQ(4096U, c2->res);

  std::vector<std::byte> out(4096);
  ASSERT_EQ(Err::Ok, ring.prep_read(fd, out, bad_read * 4096, 3));
  ASSERT_TRUE(ring.submit().ok());
  auto c3 = ring.pop_cqe();
  ASSERT_TRUE(c3);
  EXPECT_EQ(Err::Io, c3->err);
}

TEST_F(UringTest, FsyncSqeIsDurableOnDeviceFile) {
  const int fd = open_file("/dev/ssd0", kern::kORdWr | kern::kODirect);
  IoUring ring(kernel_, proc());
  std::vector<std::byte> page(4096, std::byte{0x5a});
  const std::uint64_t far_block = 20000;  // out of the fs's way
  ASSERT_EQ(Err::Ok, ring.prep_write(fd, page, far_block * 4096, 1));
  ASSERT_EQ(Err::Ok, ring.prep_fsync(fd, false, 2));
  ASSERT_TRUE(ring.submit().ok());
  auto c1 = ring.pop_cqe();
  auto c2 = ring.pop_cqe();
  ASSERT_TRUE(c1 && c2);
  EXPECT_EQ(Err::Ok, c1->err);
  EXPECT_EQ(Err::Ok, c2->err);

  std::array<std::byte, 4096> check{};
  kernel_.device("ssd0")->read_untimed(far_block, check);
  EXPECT_EQ(std::byte{0x5a}, check[0]);
  EXPECT_EQ(std::byte{0x5a}, check[4095]);
}

TEST_F(UringTest, BatchIsCheaperThanPerOpSyscalls) {
  // The §8.1 claim in cost-model terms: N batched ops pay 1 crossing +
  // N small dispatches; N syscalls pay N crossings + N VFS dispatches.
  const int fd = open_file("/dev/ssd0", kern::kORdWr | kern::kODirect);
  constexpr int kOps = 64;
  std::vector<std::byte> page(4096);

  const auto t0 = sim::now();
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(kernel_.pread(proc(), fd, page,
                              static_cast<std::uint64_t>(i) * 4096).ok());
  }
  const auto syscall_time = sim::now() - t0;

  IoUring ring(kernel_, proc());
  const auto t1 = sim::now();
  for (int i = 0; i < kOps; ++i) {
    ASSERT_EQ(Err::Ok, ring.prep_read(fd, page,
                                      static_cast<std::uint64_t>(i) * 4096,
                                      static_cast<std::uint64_t>(i)));
  }
  ASSERT_TRUE(ring.submit().ok());
  while (ring.pop_cqe().has_value()) {
  }
  const auto uring_time = sim::now() - t1;

  EXPECT_LT(uring_time, syscall_time);
  // The saving must be at least the (N-1) avoided crossings.
  EXPECT_GE(syscall_time - uring_time,
            static_cast<sim::Nanos>(kOps - 1) * sim::costs().syscall / 2);
}

TEST_F(UringTest, StatsTrackLifetimeCounts) {
  const int fd = open_file("/mnt/stats.txt", kern::kOCreat | kern::kORdWr);
  IoUring ring(kernel_, proc());
  const std::string data = "s";
  ASSERT_EQ(Err::Ok, ring.prep_write(fd, as_bytes(data), 0, 1));
  ASSERT_TRUE(ring.submit().ok());
  ASSERT_EQ(Err::Ok, ring.prep_write(fd, as_bytes(data), 1, 2));
  ASSERT_EQ(Err::Ok, ring.prep_fsync(fd, true, 3));
  ASSERT_TRUE(ring.submit().ok());
  while (ring.pop_cqe().has_value()) {
  }
  EXPECT_EQ(3U, ring.stats().sqes);
  EXPECT_EQ(2U, ring.stats().enters);
  EXPECT_EQ(3U, ring.stats().cqes);
}

TEST_F(UringTest, UserBlockBackendBatchesDurableWrites) {
  // The §8.1 integration: a UserBlockBackend in uring mode performs a
  // one-block batch write (pwrite + whole-file fsync) as ONE submission,
  // and so does a batch of blocks with its one trailing fsync.
  auto daemon = kernel_.new_process();
  auto fd = kernel_.open(*daemon, "/dev/ssd0",
                         kern::kORdWr | kern::kODirect);
  ASSERT_TRUE(fd.ok());
  bento::UserBlockBackend backend(kernel_, *daemon, fd.value(),
                                  kernel_.device("ssd0")->nblocks(),
                                  /*cache_blocks=*/64, /*use_uring=*/true);

  auto cap = bento::CapTestAccess::make(backend);
  const std::uint64_t blockno = 20001;  // clear of the mounted fs
  {
    auto bh = cap->getblk(blockno);
    ASSERT_TRUE(bh.ok());
    bh.value().data()[0] = std::byte{0x77};
    bh.value().set_dirty();
    bento::BufferHeadHandle* one = &bh.value();
    const blk::Ticket t = cap->sync_batch_async({&one, 1});
    cap->wait(t);  // pwrite + fsync in one io_uring_enter
    EXPECT_FALSE(t.failed);
  }
  EXPECT_EQ(1U, backend.io_stats().uring_enters);
  EXPECT_EQ(1U, backend.io_stats().pwrites);
  EXPECT_EQ(1U, backend.io_stats().fsyncs);

  std::array<std::byte, 4096> check{};
  kernel_.device("ssd0")->read_untimed(blockno, check);
  EXPECT_EQ(std::byte{0x77}, check[0]);

  // Several dirty blocks + the trailing fsync ride one more submission.
  std::vector<bento::BufferHeadHandle> batch;
  for (std::uint64_t b = 20002; b < 20010; ++b) {
    auto bh = cap->getblk(b);
    ASSERT_TRUE(bh.ok());
    bh.value().data()[0] = std::byte{0x42};
    bh.value().set_dirty();
    batch.push_back(std::move(bh.value()));
  }
  std::vector<bento::BufferHeadHandle*> handles;
  for (auto& bh : batch) handles.push_back(&bh);
  const blk::Ticket t = cap->sync_batch_async(handles);
  cap->wait(t);
  EXPECT_FALSE(t.failed);
  EXPECT_EQ(2U, backend.io_stats().uring_enters);
  EXPECT_EQ(9U, backend.io_stats().pwrites);
  EXPECT_EQ(2U, backend.io_stats().fsyncs);
  kernel_.device("ssd0")->read_untimed(20007, check);
  EXPECT_EQ(std::byte{0x42}, check[0]);
  (void)kernel_.close(*daemon, fd.value());
}

TEST_F(UringTest, UserBlockBackendReportsAFailedWriteAndKeepsTheBlockDirty) {
  // A batch write whose pwrite fails comes back failed, with and without
  // the ring, and leaves the block dirty: once the sector is repaired, its
  // owner's next write of it succeeds. flush_all writes no block.
  for (const bool use_uring : {false, true}) {
    SCOPED_TRACE(use_uring ? "uring" : "syscalls");
    auto daemon = kernel_.new_process();
    auto fd = kernel_.open(*daemon, "/dev/ssd0",
                           kern::kORdWr | kern::kODirect);
    ASSERT_TRUE(fd.ok());
    bento::UserBlockBackend backend(kernel_, *daemon, fd.value(),
                                    kernel_.device("ssd0")->nblocks(),
                                    /*cache_blocks=*/64, use_uring);
    auto cap = bento::CapTestAccess::make(backend);
    const std::uint64_t blockno = use_uring ? 20011 : 20012;
    auto* dev = kernel_.device("ssd0");
    dev->inject_write_error(blockno);
    {
      auto bh = cap->getblk(blockno);
      ASSERT_TRUE(bh.ok());
      bh.value().data()[0] = std::byte{0x66};
      bh.value().set_dirty();
      bento::BufferHeadHandle* one = &bh.value();
      const blk::Ticket t = cap->sync_batch_async({&one, 1});
      cap->wait(t);
      EXPECT_TRUE(t.failed);
    }
    std::array<std::byte, 4096> check{};
    dev->read_untimed(blockno, check);
    EXPECT_NE(std::byte{0x66}, check[0]);

    // Neither the barrier nor eviction writes the dirty block: a cache
    // filled twice over with other blocks passes over it.
    const std::uint64_t pwrites = backend.io_stats().pwrites;
    backend.flush_all();
    for (std::uint64_t b = 21000; b < 21000 + 2 * 64; ++b) {
      ASSERT_TRUE(cap->getblk(b).ok());
    }
    EXPECT_EQ(pwrites, backend.io_stats().pwrites);

    dev->clear_write_error(blockno);
    auto bh = cap->getblk(blockno);
    ASSERT_TRUE(bh.ok());
    EXPECT_EQ(std::byte{0x66}, bh.value().data()[0]);  // still cached
    bento::BufferHeadHandle* one = &bh.value();
    const blk::Ticket t = cap->sync_batch_async({&one, 1});
    cap->wait(t);
    EXPECT_FALSE(t.failed);
    EXPECT_EQ(pwrites + 1, backend.io_stats().pwrites);
    dev->read_untimed(blockno, check);
    EXPECT_EQ(std::byte{0x66}, check[0]);
    (void)kernel_.close(*daemon, fd.value());
  }
}

TEST_F(UringTest, UserBlockBackendEvictsInInsertionOrder) {
  // The daemon's block cache is FIFO: a hit does not refresh a block, and
  // eviction passes over referenced and dirty blocks to the oldest clean
  // one. Residency shows as preads: a cached block reads without one.
  auto daemon = kernel_.new_process();
  auto fd = kernel_.open(*daemon, "/dev/ssd0", kern::kORdWr | kern::kODirect);
  ASSERT_TRUE(fd.ok());
  bento::UserBlockBackend backend(kernel_, *daemon, fd.value(),
                                  kernel_.device("ssd0")->nblocks(),
                                  /*cache_blocks=*/4);
  auto cap = bento::CapTestAccess::make(backend);
  const auto reads = [&](std::initializer_list<std::uint64_t> blocks) {
    const std::uint64_t before = backend.io_stats().preads;
    for (const std::uint64_t b : blocks) EXPECT_TRUE(cap->bread(b).ok());
    return backend.io_stats().preads - before;
  };

  EXPECT_EQ(4U, reads({22000, 22001, 22002, 22003}));
  EXPECT_EQ(0U, reads({22000}));  // a hit, which does not refresh 22000
  EXPECT_EQ(1U, reads({22004}));  // evicts the first inserted, 22000
  EXPECT_EQ(0U, reads({22001, 22002, 22003, 22004}));
  EXPECT_EQ(1U, reads({22000}));

  // Cached now, oldest first: 22002, 22003, 22004, 22000. Hold 22002 and
  // dirty 22003: the next miss evicts 22004.
  auto held = cap->bread(22002);
  ASSERT_TRUE(held.ok());
  {
    auto bh = cap->getblk(22003);
    ASSERT_TRUE(bh.ok());
    bh.value().set_dirty();
  }
  EXPECT_EQ(1U, reads({22005}));
  EXPECT_EQ(0U, reads({22002, 22003, 22000, 22005}));
  EXPECT_EQ(1U, reads({22004}));
  EXPECT_EQ(0U, backend.io_stats().pwrites);
  (void)kernel_.close(*daemon, fd.value());
}

TEST_F(UringTest, EmptySubmitPaysOneCrossingOnly) {
  IoUring ring(kernel_, proc());
  const auto t0 = sim::now();
  auto n = ring.submit();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(0U, n.value());
  EXPECT_EQ(sim::costs().syscall, sim::now() - t0);
}

}  // namespace
}  // namespace bsim::test
