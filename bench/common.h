// Shared benchmark harness: builds a TestBed per (file system, workload)
// pair, runs it under the virtual-time Runner, and prints paper-style rows.
#pragma once

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/cost_model.h"
#include "sim/jsonw.h"
#include "sim/runner.h"
#include "workloads/macro.h"
#include "workloads/micro.h"
#include "workloads/testbed.h"

namespace bsim::bench {

/// The deployments in the paper's naming.
inline const std::vector<std::pair<std::string, std::string>> kKernelFses = {
    {"Bento", "xv6_bento"}, {"C-Kernel", "xv6_vfs"}, {"FUSE", "xv6_fuse"}};
inline const std::vector<std::pair<std::string, std::string>> kAllFses = {
    {"Bento", "xv6_bento"},
    {"C-Kernel", "xv6_vfs"},
    {"FUSE", "xv6_fuse"},
    {"Ext4", "ext4j"}};

/// Reset the global cost model to defaults (benches that sweep a parameter
/// mutate sim::costs() and must restore it).
inline void reset_costs() { sim::costs() = sim::CostModel{}; }

using WorkloadFactory =
    std::function<std::unique_ptr<sim::Workload>(wl::TestBed&, int tid)>;

struct BenchRun {
  std::string fs;           // registered fs name
  int nthreads = 1;
  sim::Nanos horizon = 60 * sim::kSecond;
  std::uint64_t max_ops = 0;
  std::uint64_t device_blocks = 262'144;  // 1 GiB
  std::string mount_opts;   // volume layout + FS tuning (blockdev/opts.h)
  blk::DeviceParams device;  // latency model (nblocks overridden)
  // ---- observability dumps (written while the bed is still mounted) ----
  std::string stats_path;  // non-empty: Kernel::dump_stats() JSON snapshot
  std::string trace_path;  // non-empty: trace ring JSONL (needs "trace=N")

  /// The deployment this run mounts.
  [[nodiscard]] wl::BedOptions bed() const {
    return {.fs = fs,
            .device_blocks = device_blocks,
            .device = device,
            .mount_opts = mount_opts};
  }
};

/// Join mount-option strings, skipping empty ones.
inline std::string join_opts(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view p : parts) {
    if (p.empty()) continue;
    if (!out.empty()) out += ',';
    out += p;
  }
  return out;
}

inline sim::RunStats run_bench(const BenchRun& cfg,
                               const WorkloadFactory& factory) {
  wl::TestBed bed(cfg.bed());
  std::vector<std::unique_ptr<sim::Workload>> jobs;
  jobs.reserve(static_cast<std::size_t>(cfg.nthreads));
  for (int t = 0; t < cfg.nthreads; ++t) jobs.push_back(factory(bed, t));
  sim::RunnerOptions ropts;
  ropts.horizon = cfg.horizon;
  ropts.max_ops = cfg.max_ops;
  sim::RunStats stats = sim::run_workloads(jobs, ropts);
  if (!cfg.stats_path.empty()) {
    (void)bed.kernel().dump_stats_to(cfg.stats_path);
  }
  if (!cfg.trace_path.empty() && bed.device().tracer() != nullptr) {
    (void)bed.device().tracer()->dump_jsonl(cfg.trace_path);
  }
  return stats;
}

inline void print_header(const char* title, const char* unit) {
  std::printf("\n%s  [%s]\n", title, unit);
  std::printf("%-12s", "");
}

inline void print_row_label(const char* label) { std::printf("%-12s", label); }

/// Machine-readable result sink: collects (series, label, value) rows and
/// writes BENCH_<name>.json next to the binary on destruction, so every
/// bench run leaves a data point and the perf trajectory accumulates
/// across PRs.
///
/// Schema v2: rows may carry their own unit and a gating direction —
/// "up" (higher is better; trend.py fails CI on a >threshold drop) or
/// "down" (lower is better, e.g. latency; trend.py fails on a >threshold
/// increase). Untagged rows keep the legacy behaviour (gated as "up" when
/// the report unit is MBps). A report can also record the BenchRun
/// configurations it measured (add_config) so the JSON artifact is
/// self-describing.
class JsonReport {
 public:
  explicit JsonReport(std::string name, std::string unit = "")
      : name_(std::move(name)), unit_(std::move(unit)) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { write(); }

  /// Legacy row in the report's default unit, e.g.
  /// add("Bento", "seq-1t/32KB", 114.2).
  void add(std::string series, std::string label, double value) {
    rows_.push_back(Row{std::move(series), std::move(label), value, "", ""});
  }

  /// Tagged row: `direction` is "up", "down", or "" (tracked, not gated).
  void add(std::string series, std::string label, double value,
           std::string unit, std::string direction) {
    rows_.push_back(Row{std::move(series), std::move(label), value,
                        std::move(unit), std::move(direction)});
  }

  /// Latency attribution: p50 rides along untagged-direction (tracked
  /// only), p99 is gated downward — a >threshold p99 increase fails CI
  /// even if bandwidth improved.
  void add_latency(const std::string& series, const std::string& label,
                   const sim::LatencyHistogram& h) {
    add(series + ".p50", label, static_cast<double>(h.quantile(0.50)), "ns",
        "");
    add(series + ".p99", label, static_cast<double>(h.quantile(0.99)), "ns",
        "down");
  }

  /// Record the provenance of one measured configuration. The mount
  /// options are the whole volume description.
  void add_config(std::string cname, const BenchRun& run) {
    configs_.push_back(Config{std::move(cname), run.fs, run.mount_opts,
                              run.nthreads, run.device_blocks});
  }

 private:
  struct Row {
    std::string series;
    std::string label;
    double value;
    std::string unit;       // "" = report default
    std::string direction;  // "up" | "down" | "" (tracked only)
  };

  struct Config {
    std::string name;
    std::string fs;
    std::string mount_opts;
    int nthreads = 1;
    std::uint64_t device_blocks = 0;
  };

  void write() const {
    sim::JsonWriter w;
    w.begin_object();
    w.field("bench", name_);
    w.field("schema_version", std::uint64_t{2});
    w.field("unit", unit_);
    if (!configs_.empty()) {
      w.key("configs");
      w.begin_array();
      for (const Config& c : configs_) {
        w.begin_object();
        w.field("name", c.name);
        w.field("fs", c.fs);
        w.field("mount_opts", c.mount_opts);
        w.field("threads", std::int64_t{c.nthreads});
        w.field("device_blocks", c.device_blocks);
        w.end_object();
      }
      w.end_array();
    }
    w.key("rows");
    w.begin_array();
    for (const Row& r : rows_) {
      w.begin_object();
      w.field("series", r.series);
      w.field("label", r.label);
      w.field("value", r.value);
      if (!r.unit.empty()) w.field("unit", r.unit);
      if (!r.direction.empty()) w.field("direction", r.direction);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fclose(f);
  }

  std::string name_;
  std::string unit_;
  std::vector<Row> rows_;
  std::vector<Config> configs_;
};

}  // namespace bsim::bench
