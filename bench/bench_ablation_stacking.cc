// Ablation A8: composable file-system dispatch (paper §3.4 / Challenge 6).
//
// "Calling top-level VFS functions can add overhead to each call to a
// lower file system, resulting in potentially large overhead if several
// file systems are layered on top of one another. Bento may be able to
// provide a different interface ... that does not introduce this
// overhead." This ablation measures both designs as a function of stack
// depth: N encryption layers over xv6, dispatched (a) Bento-style —
// direct FileSystem-to-FileSystem calls — and (b) Linux-style — each
// layer re-enters the top-level VFS (modeled by charging the measured
// vfs_reentry cost per layer per operation).
//
// Both rows are virtual time: (a) is what the stack charges per read (the
// cipher work of each layer plus the xv6 read below it; a direct call
// between layers costs nothing on the simulated clock), and (b) adds the
// modeled re-entry term. Printed as ns/op of 4 KiB cached reads. Every
// stack is one mount over one in-memory xv6 image, built untimed.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bento/chacha.h"
#include "common.h"
#include "bento/crypt.h"
#include "bento/user.h"
#include "sim/cost_model.h"
#include "sim/thread.h"
#include "xv6fs/fs.h"
#include "xv6fs/layout.h"

using namespace bsim;

namespace {

/// Build a stack of `layers` CryptFs instances over xv6 (each layer uses
/// a key derived from its depth), mounted over a formatted xv6 image.
std::unique_ptr<bento::UserMount> make_stack(int layers) {
  blk::DeviceParams params;
  params.nblocks = 8192;
  blk::BlockDevice image(params);
  xv6::mkfs(image, 512);
  std::unique_ptr<bento::FileSystem> fs =
      std::make_unique<xv6::Xv6FileSystem>();
  for (int i = 0; i < layers; ++i) {
    fs = std::make_unique<bento::CryptFs>(
        std::move(fs),
        bento::derive_key("layer" + std::to_string(i), "salt", 16));
  }
  auto mount = std::make_unique<bento::UserMount>(
      std::make_unique<bento::MemBlockBackend>(image), std::move(fs));
  (void)mount->mount_init();
  return mount;
}

struct Measured {
  double direct_ns;       // Bento-style dispatch (virtual ns/op)
  double vfs_reentry_ns;  // + modeled per-layer VFS re-entry
};

Measured measure(int layers, int ops) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);

  auto mount = make_stack(layers);
  auto& fs = mount->fs();
  auto made =
      fs.create(mount->mkreq(), mount->borrow(), bento::kRootIno, "f", 0644);
  std::vector<std::byte> page(4096, std::byte{0x11});
  (void)fs.write(mount->mkreq(), mount->borrow(), made.value().ino, 0, 0,
                 page);
  mount->check_borrows();

  const auto t0 = sim::now();
  for (int i = 0; i < ops; ++i) {
    (void)fs.read(mount->mkreq(), mount->borrow(), made.value().ino, 0, 0,
                  page);
  }
  mount->check_borrows();
  const double direct =
      static_cast<double>(sim::now() - t0) / static_cast<double>(ops);
  // Linux-style stacking re-enters top-level VFS once per layer per op.
  const double reentry =
      direct + static_cast<double>(layers) *
                   static_cast<double>(sim::costs().vfs_reentry);
  return {direct, reentry};
}

}  // namespace

int main() {
  sim::costs() = sim::CostModel{};
  std::printf(
      "Ablation A8: stacked-FS dispatch, 4K cached read through N "
      "encryption layers\n\n");
  bsim::bench::JsonReport json("stacking", "ns/op");
  std::printf("%8s %22s %26s %10s\n", "layers", "Bento direct (ns/op)",
              "Linux VFS re-entry (ns/op)", "overhead");
  // Every cached read of a stack costs the same virtual time, so a
  // thousand of them print the rows twenty thousand did.
  constexpr int kOps = 1000;
  Measured base{};
  for (const int layers : {0, 1, 2, 4, 8}) {
    const Measured m = measure(layers, kOps);
    if (layers == 0) base = m;
    std::printf("%8d %22.0f %26.0f %9.2fx\n", layers, m.direct_ns,
                m.vfs_reentry_ns, m.vfs_reentry_ns / m.direct_ns);
    json.add("direct", std::to_string(layers) + "layers", m.direct_ns);
    json.add("vfs_reentry", std::to_string(layers) + "layers",
             m.vfs_reentry_ns);
  }
  std::printf(
      "\nPer added layer, direct dispatch costs the cipher work plus one\n"
      "virtual call; the Linux-style alternative adds a further %lld ns\n"
      "VFS re-entry per layer per op (path: fd table, dispatch, checks) —\n"
      "the overhead Challenge 6 is about. Baseline 0-layer read: %.0f "
      "ns/op.\n",
      static_cast<long long>(sim::costs().vfs_reentry), base.direct_ns);
  return 0;
}
