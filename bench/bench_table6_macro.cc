// Table 6: macrobenchmarks — varmail (ops/s), fileserver (ops/s), and
// untar of the Linux source tree (seconds; lower is better) — across all
// four file systems including the ext4 (data=journal) comparator.
//
// Expected shape (paper §6.6):
//   varmail:    Bento ~= C-Kernel; FUSE ~13x slower. The paper's ext4
//               is faster; here ext4 ~= Bento, because every fsync waits
//               for a FLUSH that covers its commit and the journal does
//               not yet fold concurrent fsyncs into one commit (jbd2
//               does).
//   fileserver: Bento ~1.3x C-Kernel (writepages batching); FUSE collapses;
//               ext4 ~1.3x Bento (device-throughput-bound for both).
//   untar:      Bento ~1.6x faster than C-Kernel; ext4 ~3x faster than
//               Bento; FUSE two orders of magnitude slower.
//
// Note: one varmail/fileserver "op" here is a whole personality iteration
// (several filebench flowops), so absolute ops/s differ from the paper by
// a constant factor; the cross-FS ratios are directly comparable. Untar
// replays a 1/4-scale synthetic linux-4.15 manifest and reports measured
// seconds at that scale.
#include "common.h"

using namespace bsim;
using namespace bsim::bench;

int main() {
  reset_costs();
  std::printf("Table 6: Macrobenchmark Performance\n");
  JsonReport json("table6_macro", "mixed");
  std::printf("%-10s %16s %18s %12s\n", "fs", "Varmail (ops/s)",
              "Fileserver (ops/s)", "Untar (s)");

  const auto manifest = wl::linux_tree_manifest(/*scale=*/0.25, 1);

  for (const auto& [label, fsname] : kAllFses) {
    std::printf("%-10s", label.c_str());

    // ---- varmail: 16 threads, fsync-heavy mail personality ----
    {
      BenchRun run;
      run.fs = fsname;
      run.nthreads = 16;
      run.horizon = 30 * sim::kSecond;
      run.max_ops = 60'000;
      auto set = std::make_shared<wl::MailSet>();
      auto stats = run_bench(run, [&, set](wl::TestBed& bed, int tid) {
        return std::make_unique<wl::Varmail>(bed, *set, tid, 11);
      });
      std::printf(" %16.0f", stats.ops_per_sec());
      json.add(label, "varmail_ops_per_s", stats.ops_per_sec());
      std::fflush(stdout);
    }

    // ---- fileserver: 50 threads ----
    {
      BenchRun run;
      run.fs = fsname;
      run.nthreads = 50;
      run.horizon = 30 * sim::kSecond;
      run.max_ops = 6'000;
      run.device_blocks = 524'288;  // 2 GiB
      auto set = std::make_shared<wl::ServerSet>();
      auto stats = run_bench(run, [&, set](wl::TestBed& bed, int tid) {
        return std::make_unique<wl::Fileserver>(bed, *set, tid, 13);
      });
      std::printf(" %18.0f", stats.ops_per_sec());
      json.add(label, "fileserver_ops_per_s", stats.ops_per_sec());
      std::fflush(stdout);
    }

    // ---- untar (single thread, runs to completion) ----
    {
      BenchRun run;
      run.fs = fsname;
      run.nthreads = 1;
      run.horizon = 100'000 * sim::kSecond;  // completion-bound
      run.device_blocks = 524'288;           // 2 GiB
      auto stats = run_bench(run, [&](wl::TestBed& bed, int) {
        return std::make_unique<wl::Untar>(bed, manifest);
      });
      std::printf(" %12.1f\n", sim::to_seconds(stats.elapsed));
      json.add(label, "untar_seconds", sim::to_seconds(stats.elapsed));
      std::fflush(stdout);
    }
  }
  std::printf(
      "\n(untar at 1/4 scale of linux-4.15: %zu entries; multiply by ~4 for "
      "full-tree comparisons)\n",
      manifest.size());
  return 0;
}
