// Failure-path throughput: pwrite(4K)+fsync under a programmable fault
// schedule (periodic controller brown-outs) with the request queue's
// bounded-retry policy armed, on a plain device, a 2-way mirror, and a
// 4+1 RAID5 volume. Every faulted configuration reports ops/s (gated
// upward by trend.py) and the per-op commit latency (p99 gated downward)
// alongside a healthy reference row (tracked, not gated), plus the
// volume-wide retry counters.
//
// The schedule is tuned so every scheduled fault is healed by a retry
// (backoff 200us > down window 50us): the bench FAILS its own run if no
// retry succeeded, so CI notices when the retry path stops engaging.
// The traces these runs dump contain requeue (R) events: a retried
// command is traced as R instead of D, and CI's blkparse cross-check
// compares D + R with the device's request count.
#include "common.h"

#include "blockdev/aggregate.h"
#include "kernel/types.h"

using namespace bsim;
using namespace bsim::bench;

namespace {

/// pwrite + fsync per step: the Runner's per-step latency histogram is
/// the per-op commit latency, retries included.
class FsyncWrite final : public sim::Workload {
 public:
  FsyncWrite(wl::TestBed& bed, std::size_t iosize, int tid)
      : bed_(bed), iosize_(iosize), tid_(tid), buf_(iosize) {
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      buf_[i] = static_cast<std::byte>((i * 13 + 5) & 0xff);
    }
  }

  void setup() override {
    proc_ = bed_.kernel().new_process();
    const std::string path = "/mnt/fault" + std::to_string(tid_);
    auto fd = bed_.kernel().open(*proc_, path,
                                 kern::kOCreat | kern::kORdWr);
    if (!fd.ok()) throw std::runtime_error("faultpath: open failed");
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

/// Retries execute on the queue where the fault fired: the volume's own
/// queue for a plain device, every member queue for an aggregate. Sum
/// the whole tree.
void sum_queue_stats(blk::BlockDevice& dev, blk::RequestQueueStats& out) {
  const auto& s = dev.queue().stats();
  out.retries += s.retries;
  out.retry_successes += s.retry_successes;
  if (auto* agg = dynamic_cast<blk::AggregateDevice*>(&dev)) {
    for (std::size_t i = 0; i < agg->members(); ++i) {
      sum_queue_stats(agg->member(i), out);
    }
  }
}

struct Result {
  sim::RunStats stats;
  blk::RequestQueueStats queues;  // whole-tree retry counters
};

/// One measured run. With `faulted` set, every device in the volume gets
/// a periodic down window (2ms up / 50us down, always failing) armed
/// before the workload starts and cleared before unmount, so teardown
/// flushes run healthy.
Result run_faultpath(const BenchRun& cfg, bool faulted) {
  wl::TestBed bed(cfg.bed());

  sim::SimThread armer(-2);
  if (faulted) {
    sim::ScopedThread in(armer);
    blk::FaultSchedule fs;
    fs.up_interval = sim::msec(2);
    fs.down_interval = sim::usec(50);
    fs.fail_p = 1.0;
    fs.seed = 97;
    bed.device().set_fault_schedule(fs);
  }

  std::vector<std::unique_ptr<sim::Workload>> jobs;
  for (int t = 0; t < cfg.nthreads; ++t) {
    jobs.push_back(std::make_unique<FsyncWrite>(bed, 4096, t));
  }
  sim::RunnerOptions ropts;
  ropts.horizon = cfg.horizon;
  ropts.max_ops = cfg.max_ops;
  Result r;
  r.stats = sim::run_workloads(jobs, ropts);
  sum_queue_stats(bed.device(), r.queues);
  if (faulted) {
    sim::ScopedThread in(armer);
    bed.device().clear_fault_schedule();
  }
  if (!cfg.stats_path.empty()) {
    (void)bed.kernel().dump_stats_to(cfg.stats_path);
  }
  if (!cfg.trace_path.empty() && bed.device().tracer() != nullptr) {
    (void)bed.device().tracer()->dump_jsonl(cfg.trace_path);
  }
  return r;
}

}  // namespace

int main() {
  std::printf(
      "fault-path: pwrite(4K)+fsync under scheduled faults + retry, "
      "xv6-on-Bento\n");
  std::printf("%-10s %-8s %10s %12s %10s %10s\n", "volume", "state",
              "ops/s", "p99(us)", "retries", "healed");

  JsonReport json("faultpath", "ops/s");
  const Config configs[] = {
      {"plain", ""}, {"mirror2", "mirror=2"}, {"parity4", "parity=4"}};
  bool retry_engaged = false;
  for (const Config& c : configs) {
    reset_costs();
    BenchRun run;
    run.fs = "xv6_bento";
    run.nthreads = 1;
    run.horizon = 30 * sim::kSecond;
    run.max_ops = 1'500;
    // Bounded retry heals every scheduled fault: the 200us backoff always
    // clears the 50us down window. Trace ring armed for CI's blkparse
    // cross-check and the artifact upload.
    run.mount_opts =
        join_opts({c.volume, "retries=4,retry_backoff_us=200,trace=200000"});
    run.stats_path = std::string("STATS_faultpath_") + c.name + ".json";
    run.trace_path = std::string("TRACE_faultpath_") + c.name + ".jsonl";

    for (const bool faulted : {false, true}) {
      BenchRun r = run;
      if (!faulted) {  // healthy reference run leaves no artifacts
        r.stats_path.clear();
        r.trace_path.clear();
      }
      const Result res = run_faultpath(r, faulted);
      const char* state = faulted ? "faulted" : "healthy";
      std::printf("%-10s %-8s %10.1f %12.1f %10llu %10llu\n", c.name,
                  state, res.stats.ops_per_sec(),
                  static_cast<double>(res.stats.latency.quantile(0.99)) / 1e3,
                  static_cast<unsigned long long>(res.queues.retries),
                  static_cast<unsigned long long>(res.queues.retry_successes));
      std::fflush(stdout);
      if (faulted) {
        json.add_config(c.name, run);
        json.add("faulted", c.name, res.stats.ops_per_sec(), "ops/s", "up");
        json.add_latency("faulted-lat", c.name, res.stats.latency);
        json.add("retries", c.name,
                 static_cast<double>(res.queues.retries), "count", "");
        json.add("retry-successes", c.name,
                 static_cast<double>(res.queues.retry_successes), "count",
                 "");
        if (res.queues.retry_successes > 0) retry_engaged = true;
      } else {
        json.add("healthy", c.name, res.stats.ops_per_sec(), "ops/s", "");
      }
    }
  }
  reset_costs();
  if (!retry_engaged) {
    std::fprintf(stderr,
                 "faultpath: no retry ever succeeded — the retry path did "
                 "not engage\n");
    return 1;
  }
  return 0;
}
