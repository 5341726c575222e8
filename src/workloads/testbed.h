// A ready-to-measure deployment: kernel + formatted device + one mounted
// file system, addressable by the names the paper's evaluation uses:
//   "xv6_bento"  — xv6 on kernel Bento           (paper: Bento)
//   "xv6_nvmlog" — xv6_bento under a Strata-style NVM op-log (paper §3)
//   "xv6_vfs"    — xv6 on the raw VFS, in C style (paper: C-Kernel)
//   "xv6_fuse"   — xv6 behind the FUSE transport  (paper: FUSE)
//   "ext4j"      — the ext4 comparator, data=journal (paper: Ext4)
#pragma once

#include <memory>
#include <string>

#include "bento/bentofs.h"
#include "bento/nvmlog.h"
#include "ext4/ext4.h"
#include "fuse/fuse.h"
#include "kernel/kernel.h"
#include "xv6fs/fs.h"
#include "xv6fs/layout.h"
#include "xv6fs_c/xv6c.h"

namespace bsim::wl {

struct BedOptions {
  std::string fs = "xv6_bento";
  std::uint64_t device_blocks = 262'144;  // 1 GiB logical volume
  std::uint32_t ninodes = 262'144;        // xv6 inode-table size
  blk::DeviceParams device;  // latency model of every member (nblocks derived)
  /// The whole deployment: the volume layout ("stripe=4", "mirror=2",
  /// "parity=4,chunk=16", ...) and the file system's tuning ("io_uring"
  /// for xv6_fuse, "noflusher", ...). See blockdev/opts.h.
  std::string mount_opts;
};

/// Register the five deployments above with `kernel`. Each xv6_nvmlog
/// mount logs to `nvm` (a fresh region when none is given) and digests
/// as `nvmlog` says.
inline void register_deployments(kern::Kernel& kernel,
                                 std::shared_ptr<blk::NvmRegion> nvm = {},
                                 bento::NvmLogFs::Options nvmlog = {}) {
  bento::register_bento_fs(kernel, "xv6_bento", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  bento::register_bento_fs(kernel, "xv6_nvmlog", [nvm, nvmlog] {
    return std::make_unique<bento::NvmLogFs>(
        std::make_unique<xv6::Xv6FileSystem>(),
        nvm ? nvm : std::make_shared<blk::NvmRegion>(blk::NvmParams{}),
        nvmlog);
  });
  xv6c::register_xv6c(kernel, "xv6_vfs");
  fuse::register_fuse_fs(kernel, "xv6_fuse", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  ext4::register_ext4(kernel, "ext4j");
}

/// Builds the full stack for one deployment. The mountpoint is /mnt.
class TestBed {
 public:
  explicit TestBed(BedOptions opts) : opts_(std::move(opts)) {
    opts_.device.nblocks = opts_.device_blocks;
    auto& dev = kernel_.add_volume("ssd0", opts_.mount_opts, opts_.device);
    if (opts_.fs == "ext4j") {
      ext4::mkfs(dev, /*inodes_per_group=*/8192);
    } else {
      xv6::mkfs(dev, opts_.ninodes);
    }
    register_deployments(kernel_);

    sim::ScopedThread in(boot_);
    const kern::Err e =
        kernel_.mount(opts_.fs, "ssd0", "/mnt", opts_.mount_opts);
    if (e != kern::Err::Ok) {
      throw std::runtime_error("mount failed: " +
                               std::string(kern::err_name(e)));
    }
  }

  ~TestBed() {
    // Unmount runs timed flush code; give it a clock.
    sim::ScopedThread in(boot_);
    (void)kernel_.umount("/mnt");
  }

  TestBed(const TestBed&) = delete;
  TestBed& operator=(const TestBed&) = delete;

  [[nodiscard]] kern::Kernel& kernel() { return kernel_; }
  [[nodiscard]] kern::Process& proc() { return kernel_.proc(); }
  [[nodiscard]] blk::BlockDevice& device() { return *kernel_.device("ssd0"); }
  [[nodiscard]] const std::string& fs() const { return opts_.fs; }

 private:
  BedOptions opts_;
  sim::SimThread boot_{-1};
  kern::Kernel kernel_;
};

}  // namespace bsim::wl
