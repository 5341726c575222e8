// Ablation: background flusher + QD>1 async submission vs writer-context
// writeback (queue depth 1).
//
// "off"  mounts with -o noflusher: every threshold writeback runs on the
//        writer's clock, exactly the pre-flusher behaviour.
// "on"   is the default mount: the mount's flusher thread drains dirty
//        pages through the file system's ->writepages on its own clock,
//        so the writer only pays the poke.
//
// Expected shape: buffered-write throughput rises with the flusher on —
// the writer no longer serializes on its own writeback and pipelines with
// the drain inside the kMaxBacklog window — but stays device-bound at
// steady state. Past the window the writer is paced as Linux's IO-less
// balance_dirty_pages paces it: each write pauses an eighth of the
// backlog's excess over kMaxBacklog, and no backlog passes kHardBacklog.
// The pauses spread over many writes, so the flusher rows' p99 sits far
// below one device backlog while their p50 carries a pause. The FUSE row
// is unaffected (no flusher — its collapse is the §6.4 transport).
#include "common.h"

using namespace bsim;
using namespace bsim::bench;

int main() {
  reset_costs();
  struct Mode {
    const char* label;
    const char* opts;
  };
  const Mode modes[] = {{"writer-ctx", "noflusher"}, {"flusher", ""}};
  struct Config {
    const char* label;
    bool sequential;
    std::size_t iosize;
    std::uint64_t max_ops;
  };
  const Config configs[] = {{"seq/128KB", true, 128 << 10, 4'000},
                            {"rnd/128KB", false, 128 << 10, 4'000},
                            {"seq/1MB", true, 1 << 20, 1'000}};

  std::printf("Ablation: background flusher vs writer-context writeback "
              "(MBps)\n");
  JsonReport json("flusher", "MBps");
  for (const auto& cfg : configs) {
    std::printf("\n(%s buffered writes, 1 thread)\n", cfg.label);
    std::printf("%-10s %12s %12s %10s\n", "fs", "writer-ctx", "flusher",
                "speedup");
    for (const auto& [label, fsname] : kKernelFses) {
      double mbps[2] = {0, 0};
      for (int m = 0; m < 2; ++m) {
        BenchRun run;
        run.fs = fsname;
        run.nthreads = 1;
        run.max_ops = cfg.max_ops;
        run.horizon = 20 * sim::kSecond;
        run.mount_opts = modes[m].opts;
        wl::SharedFile file;
        auto stats = run_bench(run, [&](wl::TestBed& bed, int tid) {
          return std::make_unique<wl::WriteMicro>(bed, file, cfg.sequential,
                                                  cfg.iosize, tid, 42);
        });
        mbps[m] = stats.mbytes_per_sec();
        json.add(std::string(label) + "/" + modes[m].label, cfg.label,
                 mbps[m]);
        // Foreground write latency: with the flusher on, the writer pays
        // the poke, not the drain — p99 is gated downward.
        json.add_latency(std::string(label) + "/" + modes[m].label + "-lat",
                         cfg.label, stats.latency);
      }
      std::printf("%-10s %12.1f %12.1f %9.2fx\n", label.c_str(), mbps[0],
                  mbps[1], mbps[0] > 0 ? mbps[1] / mbps[0] : 0.0);
      std::fflush(stdout);
    }
  }
  return 0;
}
