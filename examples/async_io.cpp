// io_uring-style batched I/O (paper §8.1): a WAL-writer pattern issues a
// group of writes plus an fsync as one submission — a single user/kernel
// crossing — and harvests completions from shared memory. The demo
// measures the same batch as plain syscalls for comparison, and mounts
// the FUSE deployment with "-o io_uring" so the daemon's block I/O uses
// the ring too.
//
// Build & run:   cmake --build build && ./build/examples/async_io
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bento/bentofs.h"
#include "fuse/fuse.h"
#include "kernel/uring.h"
#include "sim/thread.h"
#include "xv6fs/fs.h"
#include "xv6fs/layout.h"

using namespace bsim;

int main() {
  sim::SimThread main_thread(0);
  sim::ScopedThread in(main_thread);

  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = 65536;
  auto& dev = kernel.add_device("ssd0", params);
  xv6::mkfs(dev, 4096);
  bento::register_bento_fs(kernel, "xv6_bento", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  if (kernel.mount("xv6_bento", "ssd0", "/mnt") != kern::Err::Ok) return 1;
  auto& p = kernel.proc();

  // A WAL writer: 64 x 4 KiB appends + fsync, as one ring submission.
  auto fd = kernel.open(p, "/mnt/wal.log", kern::kOCreat | kern::kORdWr);
  if (!fd.ok()) return 1;
  std::vector<std::byte> block(4096, std::byte{0xAB});

  kern::IoUring ring(kernel, p, /*sq_entries=*/128);
  const auto t0 = sim::now();
  for (int i = 0; i < 64; ++i) {
    (void)ring.prep_write(fd.value(), block,
                          static_cast<std::uint64_t>(i) * block.size(),
                          static_cast<std::uint64_t>(i));
  }
  (void)ring.prep_fsync(fd.value(), /*datasync=*/true, 64);
  auto submitted = ring.submit();
  std::size_t completed = 0;
  while (auto cqe = ring.pop_cqe()) {
    if (cqe->err == kern::Err::Ok) completed += 1;
  }
  const auto uring_ns = sim::now() - t0;
  std::printf("io_uring: submitted %u SQEs in one enter, %zu completions, "
              "%.1f us\n",
              submitted.value(), completed,
              static_cast<double>(uring_ns) / 1000.0);

  // The same work as plain syscalls.
  const auto t1 = sim::now();
  for (int i = 0; i < 64; ++i) {
    (void)kernel.pwrite(p, fd.value(), block,
                        static_cast<std::uint64_t>(64 + i) * block.size());
  }
  (void)kernel.fsync(p, fd.value(), /*datasync=*/true);
  const auto sys_ns = sim::now() - t1;
  std::printf("syscalls: same 64 writes + fsync, %.1f us  "
              "(ring saved %.1f us of crossings)\n",
              static_cast<double>(sys_ns) / 1000.0,
              static_cast<double>(sys_ns - uring_ns) / 1000.0);
  (void)kernel.close(p, fd.value());
  (void)kernel.umount("/mnt");

  // FUSE deployment with the daemon's block I/O batched over io_uring.
  blk::DeviceParams params2;
  params2.nblocks = 65536;
  auto& dev2 = kernel.add_device("ssd1", params2);
  xv6::mkfs(dev2, 4096);
  fuse::register_fuse_fs(kernel, "xv6_fuse", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  if (kernel.mount("xv6_fuse", "ssd1", "/mnt2", "io_uring") !=
      kern::Err::Ok) {
    return 1;
  }
  auto fd2 = kernel.open(p, "/mnt2/via-fuse.txt",
                         kern::kOCreat | kern::kOWrOnly);
  if (fd2.ok()) {
    (void)kernel.write(p, fd2.value(), block);
    (void)kernel.fsync(p, fd2.value());
    (void)kernel.close(p, fd2.value());
  }
  auto* module = kernel.sb_at("/mnt2")->fs<fuse::FuseModule>();
  std::printf("\nFUSE daemon over io_uring: %llu requests through the "
              "transport\n",
              static_cast<unsigned long long>(
                  module->conn_stats().requests));
  (void)kernel.umount("/mnt2");

  std::printf("virtual time elapsed: %.3f ms\n",
              static_cast<double>(sim::now()) / sim::kMillisecond);
  return 0;
}
