// Property test: random operation sequences against an in-memory oracle.
//
// For each (file system, seed) we run several hundred random namespace and
// data operations through the syscall surface, mirroring every mutation in
// a simple in-memory model, and continuously check that the file system
// and the model agree — contents, sizes, existence, directory listings —
// including after unmount/remount.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "../testutil.h"
#include "blockdev/mirrored.h"
#include "blockdev/parity.h"

namespace bsim::test {
namespace {

using kern::Err;

struct Model {
  // Path -> contents for files; set of directories.
  std::map<std::string, std::string> files;
  std::vector<std::string> dirs{"/mnt"};

  [[nodiscard]] bool dir_exists(const std::string& d) const {
    return std::find(dirs.begin(), dirs.end(), d) != dirs.end();
  }
  [[nodiscard]] bool dir_empty(const std::string& d) const {
    for (const auto& [p, _] : files) {
      if (p.starts_with(d + "/")) return false;
    }
    for (const auto& sub : dirs) {
      if (sub != d && sub.starts_with(d + "/")) return false;
    }
    return true;
  }
};

struct Case {
  const char* fs;
  std::uint64_t seed;
  const char* mount_opts = "";  // volume layout + FS options
  const char* tag = "";  // distinguishes option variants in test names
};

/// Register a 32768-block "ssd0" with the volume layout `opts` selects:
/// plain, RAID0, RAID1, RAID10, RAID5, or RAID50 — always the same
/// logical size.
blk::BlockDevice& add_ssd0(kern::Kernel& kernel, std::string_view opts) {
  blk::DeviceParams params;
  params.nblocks = 32768;
  return kernel.add_volume("ssd0", opts, params);
}

class RandomOps : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    auto& dev = add_ssd0(kernel_, GetParam().mount_opts);
    if (std::string_view(GetParam().fs) == "ext4j") {
      ext4::mkfs(dev, 4096);
    } else {
      xv6::mkfs(dev, 4096);
    }
    wl::register_deployments(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount(GetParam().fs, "ssd0", "/mnt",
                                     GetParam().mount_opts));
  }

  std::string write_file(const std::string& path, sim::Rng& rng) {
    auto fd = kernel_.open(proc(), path, kern::kOCreat | kern::kORdWr);
    EXPECT_TRUE(fd.ok()) << path;
    if (!fd.ok()) return {};
    std::string data(rng.range(0, 30000),
                     static_cast<char>('A' + rng.below(26)));
    EXPECT_TRUE(kernel_.write(proc(), fd.value(), as_bytes(data)).ok());
    EXPECT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
    return data;
  }

  void verify_file(const std::string& path, const std::string& expect) {
    auto fd = kernel_.open(proc(), path, kern::kORdOnly);
    ASSERT_TRUE(fd.ok()) << path;
    std::vector<std::byte> buf(expect.size() + 64);
    auto r = kernel_.read(proc(), fd.value(), buf);
    ASSERT_TRUE(r.ok()) << path;
    EXPECT_EQ(r.value(), expect.size()) << path;
    EXPECT_EQ(to_string({buf.data(), r.value()}), expect) << path;
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }

  void verify_all(const Model& model) {
    for (const auto& [path, contents] : model.files) {
      verify_file(path, contents);
    }
    for (const auto& d : model.dirs) {
      auto st = kernel_.stat(proc(), d);
      if (d == "/mnt") continue;  // mountpoint is not stat-able by path
      ASSERT_TRUE(st.ok()) << d;
      EXPECT_EQ(st.value().type, kern::FileType::Directory) << d;
    }
  }

  kern::Process& proc() { return kernel_.proc(); }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
};

TEST_P(RandomOps, AgreesWithOracle) {
  sim::Rng rng(GetParam().seed);
  Model model;
  int next_id = 0;

  for (int step = 0; step < 350; ++step) {
    const std::uint64_t dice = rng.below(100);
    if (dice < 30) {
      // Create or overwrite a file in a random directory.
      const std::string& dir = model.dirs[rng.below(model.dirs.size())];
      const std::string path = dir + "/f" + std::to_string(next_id++);
      model.files[path] = write_file(path, rng);
    } else if (dice < 45 && !model.files.empty()) {
      // Overwrite an existing file (O_TRUNC).
      auto it = model.files.begin();
      std::advance(it, static_cast<long>(rng.below(model.files.size())));
      auto fd = kernel_.open(proc(), it->first,
                             kern::kOWrOnly | kern::kOTrunc);
      ASSERT_TRUE(fd.ok());
      std::string data(rng.range(0, 9000), 'q');
      ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes(data)).ok());
      ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
      it->second = data;
    } else if (dice < 58 && !model.files.empty()) {
      // Unlink a file.
      auto it = model.files.begin();
      std::advance(it, static_cast<long>(rng.below(model.files.size())));
      ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), it->first)) << it->first;
      model.files.erase(it);
    } else if (dice < 68) {
      // mkdir under a random existing dir (bounded depth).
      const std::string& parent = model.dirs[rng.below(model.dirs.size())];
      if (std::count(parent.begin(), parent.end(), '/') < 5) {
        const std::string d = parent + "/d" + std::to_string(next_id++);
        ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), d)) << d;
        model.dirs.push_back(d);
      }
    } else if (dice < 74 && model.dirs.size() > 1) {
      // rmdir an empty directory (if we find one).
      for (std::size_t i = model.dirs.size(); i-- > 1;) {
        if (model.dir_empty(model.dirs[i])) {
          ASSERT_EQ(Err::Ok, kernel_.rmdir(proc(), model.dirs[i]));
          model.dirs.erase(model.dirs.begin() + static_cast<long>(i));
          break;
        }
      }
    } else if (dice < 84 && !model.files.empty()) {
      // rename a file to a fresh name in a random dir.
      auto it = model.files.begin();
      std::advance(it, static_cast<long>(rng.below(model.files.size())));
      const std::string& dir = model.dirs[rng.below(model.dirs.size())];
      const std::string to = dir + "/r" + std::to_string(next_id++);
      ASSERT_EQ(Err::Ok, kernel_.rename(proc(), it->first, to))
          << it->first << " -> " << to;
      model.files[to] = it->second;
      model.files.erase(it);
    } else if (dice < 92 && !model.files.empty()) {
      // truncate to a random size.
      auto it = model.files.begin();
      std::advance(it, static_cast<long>(rng.below(model.files.size())));
      const std::uint64_t newsize = rng.below(20000);
      ASSERT_EQ(Err::Ok, kernel_.truncate(proc(), it->first, newsize));
      if (newsize <= it->second.size()) {
        it->second.resize(newsize);
      } else {
        it->second.resize(newsize, '\0');
      }
    } else if (!model.files.empty()) {
      // spot-check a random file.
      auto it = model.files.begin();
      std::advance(it, static_cast<long>(rng.below(model.files.size())));
      verify_file(it->first, it->second);
      auto st = kernel_.stat(proc(), it->first);
      ASSERT_TRUE(st.ok());
      EXPECT_EQ(st.value().size, it->second.size()) << it->first;
    }
  }

  verify_all(model);

  // Durability: everything must survive an unmount/remount cycle.
  ASSERT_EQ(Err::Ok, kernel_.sync(proc()));
  ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
  ASSERT_EQ(Err::Ok, kernel_.mount(GetParam().fs, "ssd0", "/mnt",
                                   GetParam().mount_opts));
  verify_all(model);
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const char* fs :
       {"xv6_bento", "xv6_vfs", "xv6_fuse", "ext4j", "xv6_nvmlog"}) {
    for (std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
      out.push_back({fs, seed});
    }
  }
  // FUSE with the ExtFUSE eBPF caches: the differential oracle doubles as
  // a cache-coherence check across every mutation pattern.
  for (std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    out.push_back({"xv6_fuse", seed, "extfuse", "ext"});
  }
  // Every deployment mounts a 4-way striped volume unchanged; the oracle
  // sweep exercises the stripe-splitting path under all mutation shapes.
  for (const char* fs :
       {"xv6_bento", "xv6_vfs", "xv6_fuse", "ext4j", "xv6_nvmlog"}) {
    out.push_back({fs, 101, "stripe=4", "striped4"});
  }
  out.push_back({"xv6_bento", 202, "stripe=4", "striped4"});
  // ... and a 2-way RAID1 mirror (write replication + balanced reads
  // under every mutation shape), plus one RAID10 stack.
  for (const char* fs :
       {"xv6_bento", "xv6_vfs", "xv6_fuse", "ext4j", "xv6_nvmlog"}) {
    out.push_back({fs, 101, "mirror=2", "mirror2"});
  }
  out.push_back({"xv6_bento", 202, "stripe=2,mirror=2", "raid10"});
  // ... and a 4+1 RAID5 parity volume (full-stripe vs RMW path selection,
  // intent-bitmap updates, parity maintenance under every mutation shape).
  for (const char* fs :
       {"xv6_bento", "xv6_vfs", "xv6_fuse", "ext4j", "xv6_nvmlog"}) {
    out.push_back({fs, 101, "parity=4", "parity4"});
  }
  out.push_back({"xv6_bento", 202, "stripe=2,parity=2", "raid50"});
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllFses, RandomOps, ::testing::ValuesIn(cases()),
                         [](const auto& info) {
                           return std::string(info.param.fs) +
                                  info.param.tag + "_s" +
                                  std::to_string(info.param.seed);
                         });

// ---- Striped differential: the same op trace on one device and on a
// 4-way striped volume must produce bit-identical LOGICAL images after
// sync + unmount. "-o noflusher" keeps writeback (and hence block
// allocation order) a pure function of the op sequence rather than of
// virtual time, which differs between the two layouts.

void run_mutation_trace(kern::Kernel& kernel, std::uint64_t seed) {
  auto& p = kernel.proc();
  sim::Rng rng(seed);
  std::vector<std::string> files, dirs{"/mnt"};
  int next_id = 0;
  for (int step = 0; step < 200; ++step) {
    const std::uint64_t dice = rng.below(100);
    if (dice < 35) {
      const std::string path =
          dirs[rng.below(dirs.size())] + "/f" + std::to_string(next_id++);
      auto fd = kernel.open(p, path, kern::kOCreat | kern::kORdWr);
      ASSERT_TRUE(fd.ok()) << path;
      std::string data(rng.range(0, 30000),
                       static_cast<char>('A' + rng.below(26)));
      ASSERT_TRUE(kernel.write(p, fd.value(), as_bytes(data)).ok());
      if (rng.chance(0.3)) {
        ASSERT_EQ(Err::Ok, kernel.fsync(p, fd.value()));
      }
      ASSERT_EQ(Err::Ok, kernel.close(p, fd.value()));
      files.push_back(path);
    } else if (dice < 50 && !files.empty()) {
      const std::string& victim = files[rng.below(files.size())];
      ASSERT_EQ(Err::Ok, kernel.unlink(p, victim)) << victim;
      files.erase(std::find(files.begin(), files.end(), victim));
    } else if (dice < 65) {
      const std::string& parent = dirs[rng.below(dirs.size())];
      if (std::count(parent.begin(), parent.end(), '/') < 5) {
        const std::string d = parent + "/d" + std::to_string(next_id++);
        ASSERT_EQ(Err::Ok, kernel.mkdir(p, d)) << d;
        dirs.push_back(d);
      }
    } else if (dice < 80 && !files.empty()) {
      const std::size_t i = rng.below(files.size());
      const std::string to =
          dirs[rng.below(dirs.size())] + "/r" + std::to_string(next_id++);
      ASSERT_EQ(Err::Ok, kernel.rename(p, files[i], to));
      files[i] = to;
    } else if (!files.empty()) {
      const std::string& victim = files[rng.below(files.size())];
      ASSERT_EQ(Err::Ok, kernel.truncate(p, victim, rng.below(20000)));
    }
  }
  ASSERT_EQ(Err::Ok, kernel.sync(p));
}

TEST(StripedDifferential, FinalImageBitIdenticalToSingleDevice) {
  for (const std::uint64_t seed : {101ULL, 202ULL}) {
    sim::SimThread thread(0);
    sim::ScopedThread in(thread);
    std::array<std::unique_ptr<kern::Kernel>, 2> kernels;
    std::array<blk::BlockDevice*, 2> devs{};
    for (int k = 0; k < 2; ++k) {
      kernels[k] = std::make_unique<kern::Kernel>();
      devs[k] = &add_ssd0(*kernels[k], k == 0 ? "" : "stripe=4");
      xv6::mkfs(*devs[k], 4096);
      wl::register_deployments(*kernels[k]);
      ASSERT_EQ(Err::Ok, kernels[k]->mount("xv6_bento", "ssd0", "/mnt",
                                           "noflusher"));
      run_mutation_trace(*kernels[k], seed);
      ASSERT_EQ(Err::Ok, kernels[k]->umount("/mnt"));
    }
    ASSERT_EQ(devs[0]->nblocks(), devs[1]->nblocks());
    std::array<std::byte, blk::kBlockSize> a{}, b{};
    std::uint64_t diffs = 0;
    for (std::uint64_t blk = 0; blk < devs[0]->nblocks(); ++blk) {
      devs[0]->read_untimed(blk, a);
      devs[1]->read_untimed(blk, b);
      if (a != b) diffs += 1;
    }
    EXPECT_EQ(diffs, 0u) << "seed " << seed << ": " << diffs
                         << " logical blocks diverged";
  }
}

TEST(MirroredDifferential, FinalImageAndReplicasBitIdentical) {
  // The same op trace on one device and on a 2-way mirror: the mirror's
  // logical image must match the single device bit-for-bit, and after
  // sync + unmount its two replicas must match each other.
  for (const std::uint64_t seed : {101ULL, 202ULL}) {
    sim::SimThread thread(0);
    sim::ScopedThread in(thread);
    std::array<std::unique_ptr<kern::Kernel>, 2> kernels;
    std::array<blk::BlockDevice*, 2> devs{};
    for (int k = 0; k < 2; ++k) {
      kernels[k] = std::make_unique<kern::Kernel>();
      devs[k] = &add_ssd0(*kernels[k], k == 0 ? "" : "mirror=2");
      xv6::mkfs(*devs[k], 4096);
      wl::register_deployments(*kernels[k]);
      ASSERT_EQ(Err::Ok, kernels[k]->mount("xv6_bento", "ssd0", "/mnt",
                                           "noflusher"));
      run_mutation_trace(*kernels[k], seed);
      ASSERT_EQ(Err::Ok, kernels[k]->umount("/mnt"));
    }
    auto& mirror = *static_cast<blk::MirroredDevice*>(devs[1]);
    ASSERT_EQ(devs[0]->nblocks(), mirror.nblocks());
    std::array<std::byte, blk::kBlockSize> a{}, b{}, c{};
    std::uint64_t logical_diffs = 0, replica_diffs = 0;
    for (std::uint64_t blk = 0; blk < devs[0]->nblocks(); ++blk) {
      devs[0]->read_untimed(blk, a);
      mirror.read_untimed(blk, b);
      if (a != b) logical_diffs += 1;
      mirror.member(0).read_untimed(blk, b);
      mirror.member(1).read_untimed(blk, c);
      if (b != c) replica_diffs += 1;
    }
    EXPECT_EQ(logical_diffs, 0u) << "seed " << seed;
    EXPECT_EQ(replica_diffs, 0u) << "seed " << seed;
  }
}

TEST(ParityDifferential, FinalImageBitIdenticalHealthyAndDegraded) {
  // The same op trace on one device and on a 4+1 RAID5 volume: the parity
  // volume's logical image must match the single device bit-for-bit —
  // read healthy, and read again after losing each member in turn (every
  // block then reconstructed from data + parity of the survivors).
  for (const std::uint64_t seed : {101ULL, 202ULL}) {
    sim::SimThread thread(0);
    sim::ScopedThread in(thread);
    std::array<std::unique_ptr<kern::Kernel>, 2> kernels;
    std::array<blk::BlockDevice*, 2> devs{};
    for (int k = 0; k < 2; ++k) {
      kernels[k] = std::make_unique<kern::Kernel>();
      devs[k] = &add_ssd0(*kernels[k], k == 0 ? "" : "parity=4");
      xv6::mkfs(*devs[k], 4096);
      wl::register_deployments(*kernels[k]);
      ASSERT_EQ(Err::Ok, kernels[k]->mount("xv6_bento", "ssd0", "/mnt",
                                           "noflusher"));
      run_mutation_trace(*kernels[k], seed);
      ASSERT_EQ(Err::Ok, kernels[k]->umount("/mnt"));
    }
    auto& pd = *static_cast<blk::ParityDevice*>(devs[1]);
    ASSERT_EQ(devs[0]->nblocks(), pd.nblocks());
    std::array<std::byte, blk::kBlockSize> a{}, b{};
    std::uint64_t healthy_diffs = 0;
    for (std::uint64_t blk = 0; blk < devs[0]->nblocks(); ++blk) {
      devs[0]->read_untimed(blk, a);
      pd.read_untimed(blk, b);
      if (a != b) healthy_diffs += 1;
    }
    EXPECT_EQ(healthy_diffs, 0u) << "seed " << seed;
    // Degraded sweep: reconstruct member m's blocks from the others and
    // compare against the oracle (exercises every parity line the trace
    // wrote, without mutating the volume).
    for (std::size_t m = 0; m < pd.members(); ++m) {
      std::uint64_t degraded_diffs = 0;
      std::array<std::byte, blk::kBlockSize> rec{}, tmp{};
      for (std::uint64_t blk = 0; blk < pd.nblocks(); ++blk) {
        if (pd.data_member_of(blk) != m) continue;
        devs[0]->read_untimed(blk, a);
        rec.fill(std::byte{0});
        for (std::size_t o = 0; o < pd.members(); ++o) {
          if (o == m) continue;
          pd.member(o).read_untimed(pd.child_block_of(blk), tmp);
          for (std::size_t i = 0; i < blk::kBlockSize; ++i) rec[i] ^= tmp[i];
        }
        if (rec != a) degraded_diffs += 1;
      }
      EXPECT_EQ(degraded_diffs, 0u)
          << "seed " << seed << " lost member " << m;
    }
  }
}

}  // namespace
}  // namespace bsim::test
