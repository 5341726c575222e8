// fsync latency attribution: per-op pwrite+fsync round-trip time (the
// journal commit path end to end) on a plain device, a 4-member RAID0
// volume, and a 4+1 RAID5 volume. Every configuration reports the
// latency histogram the Runner collects per step — p50 tracked, p99
// GATED downward by trend.py — alongside the ops/s rate (gated upward),
// so a latency regression fails CI even when throughput improved.
//
// Each run also arms the block-layer trace ring ("trace=N") and dumps
// the unified stats snapshot + the trace JSONL; CI smoke-runs
// bench/blkparse.py over these to cross-check the traced event counts
// against DeviceStats.
#include "common.h"

#include "kernel/types.h"

using namespace bsim;
using namespace bsim::bench;

namespace {

/// pwrite + fsync per step: the Runner's per-step latency histogram is
/// exactly the per-op commit latency.
class FsyncWrite final : public sim::Workload {
 public:
  FsyncWrite(wl::TestBed& bed, std::size_t iosize, int tid)
      : bed_(bed), iosize_(iosize), tid_(tid), buf_(iosize) {
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      buf_[i] = static_cast<std::byte>((i * 31 + 7) & 0xff);
    }
  }

  void setup() override {
    proc_ = bed_.kernel().new_process();
    const std::string path = "/mnt/fsync" + std::to_string(tid_);
    auto fd = bed_.kernel().open(*proc_, path,
                                 kern::kOCreat | kern::kORdWr);
    if (!fd.ok()) throw std::runtime_error("fsynclat: open failed");
    fd_ = fd.value();
  }

  std::int64_t step() override {
    auto n = bed_.kernel().pwrite(*proc_, fd_, buf_, off_);
    if (!n.ok()) return -1;
    if (bed_.kernel().fsync(*proc_, fd_) != kern::Err::Ok) return -1;
    off_ += iosize_;
    if (off_ >= kFileBytes) off_ = 0;
    return static_cast<std::int64_t>(n.value());
  }

 private:
  static constexpr std::uint64_t kFileBytes = 16ull << 20;

  wl::TestBed& bed_;
  std::size_t iosize_;
  int tid_;
  std::vector<std::byte> buf_;
  std::unique_ptr<kern::Process> proc_;
  int fd_ = -1;
  std::uint64_t off_ = 0;
};

struct Config {
  const char* name;
  const char* volume;  // volume-layout mount options
};

}  // namespace

int main() {
  std::printf("fsync latency: pwrite(4K)+fsync per op, xv6-on-Bento\n");
  std::printf("%-10s %10s %12s %12s %12s\n", "volume", "ops/s", "p50(us)",
              "p99(us)", "max(us)");

  JsonReport json("fsynclat", "ops/s");
  const Config configs[] = {
      {"plain", ""}, {"striped4", "stripe=4"}, {"parity4", "parity=4"}};
  for (const Config& c : configs) {
    reset_costs();
    BenchRun run;
    run.fs = "xv6_bento";
    run.nthreads = 1;
    run.horizon = 30 * sim::kSecond;
    run.max_ops = 2'000;
    // Arm the trace ring and leave a snapshot + trace next to the
    // binary for the analyzer smoke run (ring sized to hold the run).
    run.mount_opts = join_opts({c.volume, "trace=200000"});
    run.stats_path = std::string("STATS_fsynclat_") + c.name + ".json";
    run.trace_path = std::string("TRACE_fsynclat_") + c.name + ".jsonl";
    const sim::RunStats stats =
        run_bench(run, [&](wl::TestBed& bed, int tid) {
          return std::make_unique<FsyncWrite>(bed, 4096, tid);
        });
    std::printf("%-10s %10.1f %12.1f %12.1f %12.1f\n", c.name,
                stats.ops_per_sec(),
                static_cast<double>(stats.latency.quantile(0.50)) / 1e3,
                static_cast<double>(stats.latency.quantile(0.99)) / 1e3,
                static_cast<double>(stats.latency.max()) / 1e3);
    std::fflush(stdout);
    json.add_config(c.name, run);
    json.add("fsync", c.name, stats.ops_per_sec(), "ops/s", "up");
    json.add_latency("fsync-lat", c.name, stats.latency);
  }
  reset_costs();
  return 0;
}
