// Table 4: createfiles microbenchmark, ops/sec, 1 and 32 threads.
//
// Expected shape (paper §6.5.3): Bento slightly ahead of C-Kernel (batched
// data writeback => fewer transactions per created file), FUSE ~50x slower
// (every transaction block write is pwrite + whole-disk-file fsync).
// Creates are slower than deletes (Table 5) because each create carries
// 16KB of data, and xv6 journals data: its four blocks go through the log
// with the bitmap, inode and directory blocks, while a delete logs only
// metadata. The live file count no longer matters: ialloc resumes at a
// first-free cursor and examines about one inode per create (Bento 1t
// 25,488 creates/s; 2,135 when it scanned the inode table from inode 1).
#include "common.h"

using namespace bsim;
using namespace bsim::bench;

int main() {
  reset_costs();
  std::printf("Table 4: Create Microbenchmark Performance (Ops/sec)\n");
  JsonReport json("table4_create", "ops/s");
  std::printf("%-10s %12s %12s\n", "fs", "1 Thread", "32 Threads");
  for (const auto& [label, fsname] : kKernelFses) {
    std::printf("%-10s", label.c_str());
    for (const int threads : {1, 32}) {
      BenchRun run;
      run.fs = fsname;
      run.nthreads = threads;
      run.horizon = 30 * sim::kSecond;
      run.max_ops = 60'000;
      run.device_blocks = 524'288;  // 2 GiB: the created set must fit
      auto stats = run_bench(run, [&](wl::TestBed& bed, int tid) {
        return std::make_unique<wl::CreateFiles>(bed, /*filesize=*/16384,
                                                 /*dirwidth=*/100, tid, 7);
      });
      std::printf(" %12.0f", stats.ops_per_sec());
      json.add(label, std::to_string(threads) + "t", stats.ops_per_sec());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
