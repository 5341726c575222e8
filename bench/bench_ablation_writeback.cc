// Ablation A1 (DESIGN.md §5.3): ->writepages batching against the VFS C
// baseline's ->writepage. We run identical sequential 1 MB writes on both
// kernel deployments and report throughput together with journal-commit
// counts. The C baseline opens one log op per 4 KiB page, Bento one per
// writeback batch; both commit by log space (blk::OpJournal), so the
// commit counts are level and the batching shows only in throughput.
#include "common.h"
#include "xv6fs/fs.h"
#include "xv6fs_c/xv6c.h"

using namespace bsim;
using namespace bsim::bench;

int main() {
  reset_costs();
  std::printf("Ablation A1: ->writepage vs ->writepages (seq 1MB writes)\n");
  std::printf("%-10s %12s %14s %16s\n", "fs", "MBps", "log commits",
              "blocks logged");
  JsonReport json("ablation_writeback", "MBps");

  for (const auto& [label, fsname] :
       std::vector<std::pair<std::string, std::string>>{
           {"Bento", "xv6_bento"}, {"C-Kernel", "xv6_vfs"}}) {
    wl::BedOptions opts;
    opts.fs = fsname;
    wl::TestBed bed(opts);
    std::vector<std::unique_ptr<sim::Workload>> jobs;
    wl::SharedFile file;
    jobs.push_back(std::make_unique<wl::WriteMicro>(bed, file, true, 1 << 20,
                                                    0, 42));
    sim::RunnerOptions ropts;
    ropts.horizon = 20 * sim::kSecond;
    ropts.max_ops = 800;
    auto stats = sim::run_workloads(jobs, ropts);

    std::uint64_t commits = 0;
    std::uint64_t blocks = 0;
    auto* sb = bed.kernel().sb_at("/mnt");
    if (fsname == "xv6_bento") {
      auto& fs = static_cast<xv6::Xv6FileSystem&>(
          bento::BentoModule::from(*sb)->fs());
      commits = fs.log_stats().commits;
      blocks = fs.log_stats().blocks_logged;
    } else {
      auto* mnt = sb->fs<xv6c::Xv6cMount>();
      commits = mnt->log_stats().commits;
      blocks = mnt->log_stats().blocks_logged;
    }
    std::printf("%-10s %12.1f %14llu %16llu\n", label.c_str(),
                stats.mbytes_per_sec(),
                static_cast<unsigned long long>(commits),
                static_cast<unsigned long long>(blocks));
    json.add(label, "MBps", stats.mbytes_per_sec());
    // Counts, not bandwidth: fewer commits or logged blocks is better.
    json.add(label, "log_commits", static_cast<double>(commits), "commits",
             "down");
    json.add(label, "blocks_logged", static_cast<double>(blocks), "blocks",
             "down");
  }
  std::printf(
      "\n(same data volume -> similar blocks logged; both commit by log "
      "space, so ->writepages batching shows in MBps, not in commits)\n");
  return 0;
}
