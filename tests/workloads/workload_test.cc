// Tests for the benchmark workload generators: determinism, file-set
// geometry, op accounting, and smoke runs of every personality.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "../testutil.h"
#include "blockdev/mirrored.h"
#include "blockdev/striped.h"
#include "bugs/bugs.h"
#include "workloads/macro.h"
#include "workloads/micro.h"
#include "workloads/testbed.h"

namespace bsim::wl {
namespace {

TEST(UntarManifest, DeterministicForSameSeed) {
  const auto a = linux_tree_manifest(0.05, 42);
  const auto b = linux_tree_manifest(0.05, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].path, b[i].path);
    EXPECT_EQ(a[i].size, b[i].size);
  }
}

TEST(UntarManifest, ShapeMatchesLinuxTree) {
  const auto m = linux_tree_manifest(0.1, 1);
  std::uint64_t files = 0, dirs = 0, bytes = 0;
  std::set<std::string> dir_paths;
  for (const auto& e : m) {
    if (e.is_dir) {
      dirs += 1;
      dir_paths.insert(e.path);
    } else {
      files += 1;
      bytes += e.size;
    }
  }
  EXPECT_NEAR(static_cast<double>(files), 6200, 10);
  EXPECT_NEAR(static_cast<double>(dirs), 430, 20);
  // Mean file ~14 KB (long tail): total within a factor of the target.
  EXPECT_GT(bytes, files * 8'000);
  EXPECT_LT(bytes, files * 30'000);
  // Every file's parent directory appears before it in the manifest.
  std::set<std::string> seen;
  for (const auto& e : m) {
    const auto slash = e.path.rfind('/');
    const std::string parent = e.path.substr(0, slash);
    if (parent != "/mnt") {
      EXPECT_TRUE(seen.contains(parent)) << e.path;
    }
    if (e.is_dir) seen.insert(e.path);
  }
}

TEST(DeleteFilesWorkload, PartitionsAreDisjointAndComplete) {
  std::set<std::string> all;
  const int nthreads = 4;
  const std::uint64_t nfiles = 100;
  for (int t = 0; t < nthreads; ++t) {
    for (std::uint64_t i = t; i < nfiles;
         i += static_cast<std::uint64_t>(nthreads)) {
      auto [it, fresh] = all.insert(DeleteFiles::file_path(10, i));
      EXPECT_TRUE(fresh);
      (void)it;
    }
  }
  EXPECT_EQ(all.size(), nfiles);
}

TEST(Personalities, SmokeRunEveryWorkloadOnEveryFs) {
  for (const char* fs : {"xv6_bento", "xv6_vfs", "ext4j"}) {
    BedOptions opts;
    opts.fs = fs;
    opts.device_blocks = 32768;
    TestBed bed(opts);

    {
      std::vector<std::unique_ptr<sim::Workload>> jobs;
      SharedFile file;
      file.size = 8 << 20;
      jobs.push_back(
          std::make_unique<ReadMicro>(bed, file, true, 4096, 0, 1));
      sim::RunnerOptions ropts;
      ropts.max_ops = 200;
      auto stats = sim::run_workloads(jobs, ropts);
      EXPECT_EQ(stats.ops, 200u) << fs;
      EXPECT_EQ(stats.bytes, 200u * 4096u) << fs;
      EXPECT_GT(stats.ops_per_sec(), 0.0) << fs;
    }
    {
      std::vector<std::unique_ptr<sim::Workload>> jobs;
      SharedFile file;
      file.size = 8 << 20;
      jobs.push_back(
          std::make_unique<WriteMicro>(bed, file, false, 32768, 0, 2));
      sim::RunnerOptions ropts;
      ropts.max_ops = 50;
      auto stats = sim::run_workloads(jobs, ropts);
      EXPECT_EQ(stats.ops, 50u) << fs;
    }
    {
      std::vector<std::unique_ptr<sim::Workload>> jobs;
      jobs.push_back(std::make_unique<CreateFiles>(bed, 4096, 10, 0, 3));
      sim::RunnerOptions ropts;
      ropts.max_ops = 40;
      auto stats = sim::run_workloads(jobs, ropts);
      EXPECT_EQ(stats.ops, 40u) << fs;
    }
  }
}

TEST(Personalities, VarmailAndFileserverProgress) {
  BedOptions opts;
  opts.fs = "xv6_bento";
  opts.device_blocks = 65536;
  TestBed bed(opts);
  {
    auto set = std::make_shared<MailSet>();
    set->config.nfiles = 50;
    std::vector<std::unique_ptr<sim::Workload>> jobs;
    for (int t = 0; t < 4; ++t) {
      jobs.push_back(std::make_unique<Varmail>(bed, *set, t, 5));
    }
    sim::RunnerOptions ropts;
    ropts.max_ops = 60;
    auto stats = sim::run_workloads(jobs, ropts);
    EXPECT_EQ(stats.ops, 60u);
    EXPECT_GT(stats.bytes, 0u);
  }
  {
    auto set = std::make_shared<ServerSet>();
    set->config.nfiles = 40;
    std::vector<std::unique_ptr<sim::Workload>> jobs;
    for (int t = 0; t < 4; ++t) {
      jobs.push_back(std::make_unique<Fileserver>(bed, *set, t, 6));
    }
    sim::RunnerOptions ropts;
    ropts.max_ops = 40;
    auto stats = sim::run_workloads(jobs, ropts);
    EXPECT_EQ(stats.ops, 40u);
  }
}

TEST(Personalities, UntarRunsToCompletion) {
  BedOptions opts;
  opts.fs = "xv6_bento";
  opts.device_blocks = 65536;
  TestBed bed(opts);
  const auto manifest = linux_tree_manifest(0.01, 3);
  std::vector<std::unique_ptr<sim::Workload>> jobs;
  jobs.push_back(std::make_unique<Untar>(bed, manifest));
  sim::RunnerOptions ropts;
  ropts.horizon = 100'000 * sim::kSecond;
  auto stats = sim::run_workloads(jobs, ropts);
  EXPECT_EQ(stats.ops, manifest.size());
  // Spot-check the tree actually exists (needs a clock for the syscall).
  sim::SimThread checker(0);
  sim::ScopedThread in(checker);
  auto st = bed.kernel().stat(bed.proc(), manifest.back().path);
  EXPECT_TRUE(st.ok());
}

TEST(BugStudy, Table1MarginalsMatchThePaper) {
  const auto analysis = bugs::analyze(bugs::corpus());
  EXPECT_EQ(analysis.total, 74);
  EXPECT_EQ(analysis.memory, 50);
  EXPECT_EQ(analysis.concurrency, 11);
  EXPECT_EQ(analysis.type, 13);
  // §2.1's headline percentages.
  EXPECT_EQ(analysis.memory * 100 / analysis.total, 67);         // "68%"
  EXPECT_EQ(analysis.rust_preventable * 100 / analysis.total, 93);
  EXPECT_EQ(analysis.oops * 100 / analysis.total, 25);           // "26%"
  EXPECT_EQ(analysis.leaks * 100 / analysis.total, 33);          // "34%"
  // Leak share of memory bugs: "Of the memory bugs, 50% were ... leak".
  EXPECT_EQ(analysis.leaks * 100 / analysis.memory, 50);
}

TEST(BugStudy, RenderedTablesContainEveryRow) {
  const auto analysis = bugs::analyze(bugs::corpus());
  const std::string t1 = bugs::render_table1(analysis);
  for (const char* row :
       {"Use Before Allocate", "Double Free", "NULL Dereference",
        "Use After Free", "Over Allocation", "Out of Bounds",
        "Dangling Pointer", "Missing Free", "Reference Count Leak",
        "Deadlock", "Race Condition", "Unchecked Error Value"}) {
    EXPECT_NE(t1.find(row), std::string::npos) << row;
  }
  const std::string t2 = bugs::render_table2();
  EXPECT_NE(t2.find("Bento"), std::string::npos);
  EXPECT_NE(t2.find("eBPF"), std::string::npos);
}

TEST(TestBedVolumes, MountOptsSelectMirrorStripeAndRaid10) {
  // Every deployment mounts a mirrored volume purely by option string;
  // the same string combines with striping into RAID10.
  for (const char* fs :
       {"xv6_bento", "xv6_vfs", "xv6_fuse", "ext4j", "xv6_nvmlog"}) {
    BedOptions opts;
    opts.fs = fs;
    opts.device_blocks = 32768;
    opts.mount_opts = "mirror=2";
    TestBed bed(opts);
    auto* mirror = dynamic_cast<blk::MirroredDevice*>(&bed.device());
    ASSERT_NE(mirror, nullptr) << fs;
    EXPECT_EQ(mirror->members(), 2u) << fs;
    EXPECT_EQ(mirror->nblocks(), 32768u) << fs;  // replicas are free
    // mkfs reached both replicas (untimed writes replicate too).
    std::array<std::byte, blk::kBlockSize> a{}, b{};
    mirror->member(0).read_untimed(1, a);
    mirror->member(1).read_untimed(1, b);
    EXPECT_EQ(a, b) << fs;
    EXPECT_NE(std::count(a.begin(), a.end(), std::byte{0}),
              static_cast<std::ptrdiff_t>(a.size()))
        << fs << ": superblock block is all zero";
  }

  BedOptions raid10;
  raid10.fs = "xv6_bento";
  raid10.device_blocks = 32768;
  raid10.mount_opts = "stripe=2,chunk=16,mirror=2";
  TestBed bed(raid10);
  auto* striped = dynamic_cast<blk::StripedDevice*>(&bed.device());
  ASSERT_NE(striped, nullptr);
  EXPECT_EQ(striped->members(), 2u);
  EXPECT_EQ(striped->nblocks(), 32768u);
  for (std::size_t i = 0; i < 2; ++i) {
    auto* member = dynamic_cast<blk::MirroredDevice*>(&striped->member(i));
    ASSERT_NE(member, nullptr) << i;
    EXPECT_EQ(member->members(), 2u);
  }
}

TEST(TestBedVolumes, AStripedMountHasOneFlusher) {
  // A RAID0 volume is one backing device, like an md array under Linux's
  // per-bdi writeback: its mount gets one flusher, not one per member.
  BedOptions opts;
  opts.fs = "xv6_bento";
  opts.device_blocks = 32768;
  opts.mount_opts = "stripe=4";
  TestBed bed(opts);
  auto* striped = dynamic_cast<blk::StripedDevice*>(&bed.device());
  ASSERT_NE(striped, nullptr);
  EXPECT_EQ(striped->members(), 4u);
  EXPECT_EQ(test::flusher_stats_objects(bed.kernel()), 1u);
}

}  // namespace
}  // namespace bsim::wl
