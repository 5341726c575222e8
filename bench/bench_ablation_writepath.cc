// Ablation: the journaled write path — pipelined commits and cross-op
// group commit.
//
// Sweeps the buffered sequential-write workload through the full
// xv6-on-Bento stack on 1/2/4/8-member striped volumes, toggling each
// write-path mechanism via mount options:
//   full        — pipeline + group commit (the defaults)
//   nopipeline  — commits redeem their tickets synchronously
//   nogroup     — max_log_batch=1: one commit per closed operation
// plus a C-kernel (xv6_vfs) row showing the per-page ->writepage path's
// log_commits with and without group commit.
//
// Acceptance gates: the full config must scale >=2.5x from 1
// to 8 members on Bento-seqwrite (1.69x before this work), and group
// commit must cut the C-kernel's log_commits >=5x on the same trace.
//
// The full config scales 1.94x, so the 2.5x gate above no longer holds.
// With one commit in flight per device channel (eight) one device writes
// 1636.7 MBps, while the 2-, 4- and 8-member rows all stop at 3182.2
// MBps, the writer's own CPU limit. The 8/1 scale fell from 5.61x (two
// commits in flight) to 2.81x (four) to 1.94x (eight) because the
// 1-member row rose each time, not because any row got slower: past two
// members the ratio measures the writer's ceiling, not striping.
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "sim/thread.h"
#include "xv6fs_c/xv6c.h"

using namespace bsim;
using namespace bsim::bench;

namespace {

constexpr std::uint64_t kChunkBlocks = 16;  // 64 KiB chunks

struct FsRow {
  double mbps = 0;
  std::uint64_t log_commits = 0;
};

/// Buffered sequential writes through the mounted deployment; returns
/// throughput and (for the C-kernel row) the journal's commit count.
FsRow fs_seq_write(const std::string& fs, int ndev, const char* opts) {
  wl::BedOptions bopts;
  bopts.fs = fs;
  const std::string volume = "stripe=" + std::to_string(ndev) +
                             ",chunk=" + std::to_string(kChunkBlocks);
  bopts.mount_opts = join_opts({opts, volume});
  wl::TestBed bed(bopts);
  wl::SharedFile file;
  std::vector<std::unique_ptr<sim::Workload>> jobs;
  jobs.push_back(std::make_unique<wl::WriteMicro>(bed, file,
                                                  /*sequential=*/true, 1 << 20,
                                                  /*thread_id=*/0, 42));
  sim::RunnerOptions ropts;
  ropts.horizon = 20 * sim::kSecond;
  ropts.max_ops = 1'000;
  const sim::RunStats stats = sim::run_workloads(jobs, ropts);

  FsRow row;
  row.mbps = stats.mbytes_per_sec();
  if (fs == "xv6_vfs") {
    auto* mnt = bed.kernel().sb_at("/mnt")->fs<xv6c::Xv6cMount>();
    row.log_commits = mnt->log_stats().commits;
  }
  return row;
}

}  // namespace

int main() {
  reset_costs();
  const int devs[] = {1, 2, 4, 8};
  const std::pair<const char*, const char*> configs[] = {
      {"Bento-seqwrite", ""},  // full: pipeline + group commit
      {"Bento-nopipeline", "nopipeline"},
      {"Bento-nogroup", "nogroup"},
  };

  std::printf("Ablation: journaled write path — pipelined commits, group "
              "commit (MBps)\n\n");
  std::printf("%-18s %8s %8s %8s %8s %9s\n", "config", "1dev", "2dev", "4dev",
              "8dev", "8/1 scale");

  JsonReport json("writepath", "MBps");
  for (const auto& [series, opts] : configs) {
    double first = 0, last = 0;
    std::printf("%-18s", series);
    for (const int n : devs) {
      const FsRow row = fs_seq_write("xv6_bento", n, opts);
      if (n == 1) first = row.mbps;
      last = row.mbps;
      json.add(series, std::to_string(n) + "dev", row.mbps);
      std::printf(" %8.1f", row.mbps);
      std::fflush(stdout);
    }
    const double scale = first > 0 ? last / first : 0.0;
    json.add(series + std::string("-scaling"), "8dev", scale);
    std::printf(" %8.2fx\n", scale);
  }

  // C-kernel row: the per-page ->writepage path, group commit on vs off.
  // The mechanism under test is the commit count, not bandwidth.
  const FsRow grouped = fs_seq_write("xv6_vfs", 1, "");
  const FsRow ungrouped = fs_seq_write("xv6_vfs", 1, "nogroup");
  const double reduction =
      grouped.log_commits > 0
          ? static_cast<double>(ungrouped.log_commits) /
                static_cast<double>(grouped.log_commits)
          : 0.0;
  json.add("C-kernel-MBps", "group", grouped.mbps);
  json.add("C-kernel-MBps", "nogroup", ungrouped.mbps);
  json.add("C-kernel-log-commits", "group",
           static_cast<double>(grouped.log_commits));
  json.add("C-kernel-log-commits", "nogroup",
           static_cast<double>(ungrouped.log_commits));
  json.add("C-kernel-commit-reduction", "group-vs-nogroup", reduction);
  std::printf("\nC-kernel (xv6_vfs, 1dev): log_commits %llu (group) vs %llu "
              "(nogroup) — %.1fx fewer; %.1f vs %.1f MBps\n",
              static_cast<unsigned long long>(grouped.log_commits),
              static_cast<unsigned long long>(ungrouped.log_commits),
              reduction, grouped.mbps, ungrouped.mbps);
  return 0;
}
