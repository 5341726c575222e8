// Userspace debugging (paper §4.9, Figure 1b): the same file-system code,
// compiled once, runs in three places:
//   1. in the kernel via BentoFS,
//   2. behind the FUSE transport as a userspace daemon,
//   3. on the pure-userspace debug rig (no kernel at all) — where a
//      developer can step through FS code under a normal debugger.
//
// The demo drives the identical operation sequence through all three and
// shows the file system cannot tell the difference (same results, same
// on-"disk" bytes for the two device-backed deployments).
//
// Build & run:   cmake --build build && ./build/examples/userspace_debug
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bento/bentofs.h"
#include "bento/user.h"
#include "fuse/fuse.h"
#include "kernel/kernel.h"
#include "sim/thread.h"
#include "xv6fs/fs.h"
#include "xv6fs/layout.h"

using namespace bsim;

namespace {

std::span<const std::byte> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// Drive a fixed op sequence through a mounted kernel path.
std::string run_via_kernel(const char* fstype) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = 16384;
  auto& dev = kernel.add_device("ssd0", params);
  xv6::mkfs(dev, 1024);
  bento::register_bento_fs(kernel, "xv6_bento", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  fuse::register_fuse_fs(kernel, "xv6_fuse", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  (void)kernel.mount(fstype, "ssd0", "/mnt");
  auto& p = kernel.proc();

  (void)kernel.mkdir(p, "/mnt/d");
  auto fd = kernel.open(p, "/mnt/d/f", kern::kOCreat | kern::kORdWr);
  (void)kernel.write(p, fd.value(), bytes_of("same code everywhere"));
  (void)kernel.fsync(p, fd.value());
  std::vector<std::byte> buf(64);
  auto n = kernel.pread(p, fd.value(), buf, 0);
  (void)kernel.close(p, fd.value());
  std::string out(reinterpret_cast<const char*>(buf.data()), n.value());
  (void)kernel.umount("/mnt");
  return out;
}

/// Drive the same sequence on the debug rig: UserMount + MemBlockBackend,
/// calling the file-operations API directly — no kernel, no device. This
/// is where you would attach gdb and step into Xv6FileSystem::create.
std::string run_on_debug_rig() {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);

  // The rig needs a formatted "disk": borrow mkfs by formatting a scratch
  // device and loading its image into the memory backend.
  blk::DeviceParams params;
  params.nblocks = 16384;
  blk::BlockDevice scratch(params);
  xv6::mkfs(scratch, 1024);
  auto backend = std::make_unique<bento::MemBlockBackend>(scratch);

  bento::UserMount mount(std::move(backend),
                         std::make_unique<xv6::Xv6FileSystem>());
  if (mount.mount_init() != kern::Err::Ok) return "<mount failed>";

  auto& fs = mount.fs();
  // Direct calls into the file-operations API — single-step friendly.
  auto dir = fs.mkdir(mount.mkreq(), mount.borrow(), bento::kRootIno, "d",
                      0755);
  mount.check_borrows();
  auto file = fs.create(mount.mkreq(), mount.borrow(), dir.value().ino, "f",
                        0644);
  mount.check_borrows();
  const std::string payload = "same code everywhere";
  (void)fs.write(mount.mkreq(), mount.borrow(), file.value().ino, 0, 0,
                 bytes_of(payload));
  std::vector<std::byte> buf(64);
  auto n = fs.read(mount.mkreq(), mount.borrow(), file.value().ino, 0, 0,
                   buf);
  mount.check_borrows();
  mount.unmount();
  return {reinterpret_cast<const char*>(buf.data()), n.value()};
}

}  // namespace

int main() {
  const std::string via_bento = run_via_kernel("xv6_bento");
  const std::string via_fuse = run_via_kernel("xv6_fuse");
  const std::string via_rig = run_on_debug_rig();

  std::printf("kernel Bento  read: \"%s\"\n", via_bento.c_str());
  std::printf("FUSE daemon   read: \"%s\"\n", via_fuse.c_str());
  std::printf("debug rig     read: \"%s\"\n", via_rig.c_str());
  const bool same = via_bento == via_fuse && via_fuse == via_rig;
  std::printf("\nidentical behaviour across all three deployments: %s\n",
              same ? "yes" : "NO (bug!)");
  std::printf(
      "(the debug-rig path never enters kernel code — attach a debugger "
      "and step straight into the file system)\n");
  return same ? 0 : 1;
}
