// Shared test fixtures: a simulated kernel with a formatted xv6 device.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "bento/bentofs.h"
#include "bento/nvmlog.h"
#include "bento/user.h"
#include "ext4/ext4.h"
#include "fuse/fuse.h"
#include "kernel/kernel.h"
#include "sim/thread.h"
#include "workloads/testbed.h"
#include "xv6fs/fs.h"
#include "xv6fs/layout.h"
#include "xv6fs_c/xv6c.h"

namespace bsim::test {

/// How many flushers `kernel`'s stats snapshot reports, over every mount.
inline std::size_t flusher_stats_objects(kern::Kernel& kernel) {
  const std::string snap = kernel.dump_stats();
  const std::string tag = "\"struct\": \"FlusherStats\"";
  std::size_t n = 0;
  for (auto at = snap.find(tag); at != std::string::npos;
       at = snap.find(tag, at + tag.size())) {
    n += 1;
  }
  return n;
}

inline std::span<const std::byte> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

inline std::string to_string(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// A fresh plain device holding `src`'s logical image (untimed).
inline std::unique_ptr<blk::BlockDevice> copy_device(blk::BlockDevice& src) {
  blk::DeviceParams p;
  p.nblocks = src.nblocks();
  auto dst = std::make_unique<blk::BlockDevice>(p);
  std::array<std::byte, blk::kBlockSize> buf{};
  for (std::uint64_t b = 0; b < src.nblocks(); ++b) {
    src.read_untimed(b, buf);
    dst->write_untimed(b, buf);
  }
  return dst;
}

/// A memory backend holding a freshly formatted xv6 image (loaded
/// untimed), for the userspace debug rig (§4.9).
inline std::unique_ptr<bento::MemBlockBackend> xv6_image(
    std::uint64_t nblocks = 8192, std::uint32_t ninodes = 512) {
  blk::DeviceParams params;
  params.nblocks = nblocks;
  blk::BlockDevice image(params);
  xv6::mkfs(image, ninodes);
  return std::make_unique<bento::MemBlockBackend>(image);
}

/// xv6 mounted on the debug rig over a fresh image of its own.
inline std::unique_ptr<bento::UserMount> xv6_user_mount() {
  auto mount = std::make_unique<bento::UserMount>(
      xv6_image(), std::make_unique<xv6::Xv6FileSystem>());
  EXPECT_EQ(kern::Err::Ok, mount->mount_init());
  return mount;
}

/// Do two devices hold bit-identical logical images?
inline bool images_equal(blk::BlockDevice& a, blk::BlockDevice& b) {
  if (a.nblocks() != b.nblocks()) return false;
  std::array<std::byte, blk::kBlockSize> ba{}, bb{};
  for (std::uint64_t blk = 0; blk < a.nblocks(); ++blk) {
    a.read_untimed(blk, ba);
    b.read_untimed(blk, bb);
    if (ba != bb) return false;
  }
  return true;
}

/// What a crash-differential trace saw of its journal: the pipelined
/// commit count, and the most commits in flight after any syscall.
struct PipelineObs {
  std::uint64_t pipelined_commits = 0;
  std::size_t peak_inflight = 0;
};

/// A kernel with one device formatted as xv6 and mounted via BentoFS.
class BentoXv6Fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 32768;  // 128 MiB
    auto& dev = kernel_.add_device("ssd0", params);
    xv6::mkfs(dev, /*ninodes=*/4096);
    wl::register_deployments(kernel_);
    ASSERT_EQ(kern::Err::Ok,
              kernel_.mount("xv6_bento", "ssd0", "/mnt"));
  }

  // NOTE: no TearDown clearing the current thread — the kernel's
  // destructor runs timed unmount code and needs the clock. Members are
  // destroyed in reverse declaration order (kernel_ before thread_).

  kern::Process& proc() { return kernel_.proc(); }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
};

}  // namespace bsim::test
