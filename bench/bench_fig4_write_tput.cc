// Figure 4 (a-c): write throughput for 32KB / 128KB / 1024KB I/O sizes,
// seq-1t / rnd-1t / rnd-32t, MBps.
//
// Expected shape (paper §6.5.2): Bento ~= C-Kernel, with Bento somewhat
// better at large sizes because BentoFS writeback batches sequential pages
// through ->writepages (one log transaction for many pages) while the VFS
// baseline commits one transaction per ->writepage. FUSE is nearly flush
// with the x-axis: its writeback runs become FUSE write requests whose
// transactions issue per-block O_DIRECT writes each followed by an fsync
// of the whole disk file (§6.4).
//
// Measured shape: Bento ~= C-Kernel. At 32KB seq-1t Bento writes 1179.1
// MBps and C-Kernel 1152.8. Both commit through the journal engine's
// pipeline with one commit policy (blk::OpJournal); C-Kernel wrote 158.9
// when xv6c committed synchronously, per buffer, every 8 ops. Bento is
// ahead by 1-3% everywhere but random 1024KB, where C-Kernel writes 1415.5
// and Bento 1155.6.
#include "common.h"

using namespace bsim;
using namespace bsim::bench;

int main() {
  reset_costs();
  struct Config {
    const char* label;
    bool sequential;
    int threads;
  };
  const Config configs[] = {{"seq-1t", true, 1},
                            {"rnd-1t", false, 1},
                            {"rnd-32t", false, 32}};
  struct Size {
    const char* label;
    std::size_t iosize;
    std::uint64_t max_ops;
  };
  const Size sizes[] = {{"32KB", 32 << 10, 12'000},
                        {"128KB", 128 << 10, 4'000},
                        {"1024KB", 1 << 20, 1'000}};

  std::printf("Figure 4: Write Performance, Throughput (MBps)\n");
  JsonReport json("fig4_write_tput", "MBps");
  for (const auto& size : sizes) {
    std::printf("\n(%s writes)\n", size.label);
    std::printf("%-10s %10s %10s %10s\n", "fs", "seq-1t", "rnd-1t",
                "rnd-32t");
    for (const auto& [label, fsname] : kKernelFses) {
      std::printf("%-10s", label.c_str());
      for (const auto& cfg : configs) {
        BenchRun run;
        run.fs = fsname;
        run.nthreads = cfg.threads;
        run.max_ops = size.max_ops;
        run.horizon = 20 * sim::kSecond;
        wl::SharedFile file;
        auto stats = run_bench(run, [&](wl::TestBed& bed, int tid) {
          return std::make_unique<wl::WriteMicro>(bed, file, cfg.sequential,
                                                  size.iosize, tid, 42);
        });
        std::printf(" %10.1f", stats.mbytes_per_sec());
        json.add(label, std::string(cfg.label) + "/" + size.label,
                 stats.mbytes_per_sec());
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
  return 0;
}
