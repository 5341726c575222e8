// bm: one trial of one benchmark workload (see README.md). It prints the
// trial's result as one JSON line on stdout; run.py turns trials into
// metrics.
//
//   bm --workload NAME --seed N --out DIR [--trace [--dump-trace]] [--ops N]
//   bm --oracle
//
// A trial builds the deployment, runs the workload's setup and its
// measured op stream under sim::run_workloads, then unmounts, runs fsck,
// mounts again and checks the workload's output. --trace arms the block
// trace ring, records spans, and takes stats snapshots at the first
// measured op and at the end; --dump-trace also writes the ring as JSONL
// for bench/blkparse.py. --oracle checks that the mail op sequence,
// run through the shim with wl::Varmail's seeds, reproduces wl::Varmail's
// virtual results exactly.
#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <exception>
#include <string>
#include <unordered_map>
#include <vector>

#include "blockdev/opts.h"
#include "blockdev/parity.h"
#include "blockdev/striped.h"
#include "sim/jsonw.h"
#include "workloads.h"
#include "workloads/macro.h"
#include "xv6fs/fsck.h"

namespace bsim::bm {
namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

constexpr sim::Nanos kHorizon = 1'000'000 * sim::kSecond;

/// Volume-level counters the stats snapshot does not carry.
struct VolumeCounters {
  std::uint64_t fragments = 0;
  std::uint64_t full_stripe_writes = 0;
  std::uint64_t rmw_writes = 0;
  std::uint64_t rmw_read_blocks = 0;
  std::uint64_t parity_writes = 0;
};

VolumeCounters volume_counters(blk::BlockDevice& dev) {
  VolumeCounters v;
  if (const auto* s = dynamic_cast<const blk::StripedDevice*>(&dev)) {
    v.fragments = s->volume_stats().fragments;
  } else if (const auto* p = dynamic_cast<const blk::ParityDevice*>(&dev)) {
    const blk::ParityVolumeStats& ps = p->volume_stats();
    v.fragments = ps.fragments;
    v.full_stripe_writes = ps.full_stripe_writes;
    v.rmw_writes = ps.rmw_writes;
    v.rmw_read_blocks = ps.rmw_read_blocks;
    v.parity_writes = ps.parity_writes;
  }
  return v;
}

void put_volume(sim::JsonWriter& w, std::string_view key,
                const VolumeCounters& v) {
  w.key(key);
  w.begin_object();
  w.field("fragments", v.fragments);
  w.field("full_stripe_writes", v.full_stripe_writes);
  w.field("rmw_writes", v.rmw_writes);
  w.field("rmw_read_blocks", v.rmw_read_blocks);
  w.field("parity_writes", v.parity_writes);
  w.end_object();
}

/// Mount options without "trace=N", for remounting a traced device: the
/// tracer stays armed on the device across mounts.
std::string without_trace(std::string_view opts) {
  std::string out;
  blk::for_each_opt_token(opts, [&](std::string_view tok) {
    if (tok.starts_with("trace=")) return;
    if (!out.empty()) out += ',';
    out += tok;
  });
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

/// Raw little-endian int64 samples; run.py computes quantiles from them.
bool write_samples(const std::string& path,
                   const std::vector<sim::Nanos>& v) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(v.data(), sizeof(sim::Nanos), v.size(), f) ==
                  v.size();
  return std::fclose(f) == 0 && ok;
}

bool write_spans(const std::string& path, const Recorder& rec,
                 std::string_view workload) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : rec.spans()) {
    const std::string name = s.sys < 0 ? std::string(workload)
                                       : sys_name(static_cast<Sys>(s.sys));
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"thread\": %d, "
                 "\"name\": \"%s\", \"start\": %lld, \"end\": %lld%s}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread,
                 name.c_str(), static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 s.sys < 0 ? "" : (s.failed ? ", \"ok\": false"
                                            : ", \"ok\": true"));
  }
  return std::fclose(f) == 0;
}

/// Exact queue-to-complete latency of every bio queued on a leaf device
/// at or after the epoch, from the trace ring.
std::vector<sim::Nanos> leaf_q2c(const blk::Tracer& tr, sim::Nanos epoch) {
  const std::vector<std::string>& names = tr.devices();
  std::vector<bool> leaf(names.size(), true);
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (const std::string& n : names) {
      if (n.size() > names[i].size() && n.starts_with(names[i] + "/")) {
        leaf[i] = false;
      }
    }
  }
  const std::vector<blk::TraceEvent> evs = tr.events();
  std::unordered_map<std::uint64_t, sim::Nanos> queued;
  for (const blk::TraceEvent& e : evs) {
    if (e.ev == blk::TraceEv::Queue && e.t >= epoch && leaf[e.dev]) {
      queued.emplace(e.id, e.t);
    }
  }
  std::vector<sim::Nanos> out;
  out.reserve(queued.size());
  for (const blk::TraceEvent& e : evs) {
    if (e.ev != blk::TraceEv::Complete || !leaf[e.dev]) continue;
    const auto it = queued.find(e.id);
    if (it != queued.end()) out.push_back(e.t - it->second);
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t ops = 0;
  std::string out = ".";
  bool traced = false;
  bool dump_trace = false;
  bool oracle = false;
};

int run_trial(const Args& a) {
  std::unique_ptr<Bench> bench = make_bench(a.workload, a.seed, a.ops);
  if (!bench) {
    std::fprintf(stderr, "bm: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  Recorder rec(a.traced);
  wl::BedOptions bo = bench->bed();
  if (a.traced) {
    if (!bo.mount_opts.empty()) bo.mount_opts += ',';
    bo.mount_opts += "trace=" + std::to_string(bench->trace_events());
  }
  const std::string prefix = a.out + "/" + a.workload;

  const std::int64_t host0 = clock_ns(CLOCK_MONOTONIC);
  wl::TestBed bed(bo);
  const blk::Tracer* tracer = bed.device().tracer();
  if (a.traced && tracer == nullptr) {
    std::fprintf(stderr, "bm: trace ring not armed\n");
    return 2;
  }
  Shim sys(bed.kernel(), rec);
  Env env{bed, sys, rec};
  std::vector<std::unique_ptr<sim::Workload>> jobs;
  for (int t = 0; t < bench->threads(); ++t) jobs.push_back(bench->job(env, t));

  std::int64_t setup_ns = 0;
  std::int64_t cpu0 = 0;
  sim::Nanos epoch = 0;
  std::uint64_t emitted0 = 0;
  VolumeCounters vol0;
  std::string stats0;
  rec.on_epoch = [&] {
    setup_ns = clock_ns(CLOCK_MONOTONIC) - host0;
    epoch = sim::now();
    if (a.traced) {
      stats0 = bed.kernel().dump_stats();
      vol0 = volume_counters(bed.device());
      emitted0 = tracer->emitted();
    }
    cpu0 = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
  };
  sim::RunnerOptions ro;
  ro.horizon = kHorizon;
  ro.max_ops = bench->ops();
  const sim::RunStats rs = sim::run_workloads(jobs, ro);
  const std::int64_t cpu_ns = clock_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  rec.end_measure();
  if (rs.ops == 0) {
    std::fprintf(stderr, "bm: %s ran no ops\n", a.workload.c_str());
    return 2;
  }

  Checks checks;
  checks.expect(rec.failed(Phase::Setup) == 0, "setup.syscalls",
                std::to_string(rec.failed(Phase::Setup)) + " failed");
  checks.expect(write_samples(prefix + ".op_ns.i64", rec.op_ns()),
                "write.op_samples");
  VolumeCounters vol1;
  std::uint64_t emitted1 = 0;
  std::uint64_t dropped1 = 0;
  if (a.traced) {
    // The end snapshot and the trace dump are taken at the same instant,
    // so the trailer's counts and DeviceStats cover the same bios.
    vol1 = volume_counters(bed.device());
    emitted1 = tracer->emitted();
    dropped1 = tracer->dropped();
    checks.expect(write_file(prefix + ".stats0.json", stats0) &&
                      bed.kernel().dump_stats_to(prefix + ".stats1.json") ==
                          kern::Err::Ok &&
                      (!a.dump_trace ||
                       tracer->dump_jsonl(prefix + ".trace.jsonl")) &&
                      write_samples(prefix + ".q2c_ns.i64",
                                    leaf_q2c(*tracer, epoch)) &&
                      write_spans(prefix + ".spans.jsonl", rec, a.workload),
                  "write.trace_artifacts");
  }

  // Output checks, on a clock that starts where the measured run ended.
  sim::SimThread post(-2);
  post.wait_until(epoch + rs.elapsed);
  {
    sim::ScopedThread in(post);
    auto& k = bed.kernel();
    checks.expect(k.umount("/mnt") == kern::Err::Ok, "umount");
    const xv6::FsckReport fr = xv6::fsck(bed.device());
    checks.expect(fr.ok, "fsck", fr.ok ? "" : fr.summary());
    const bool mounted =
        k.mount(bo.fs, "ssd0", "/mnt", without_trace(bo.mount_opts)) ==
        kern::Err::Ok;
    checks.expect(mounted, "remount");
    if (mounted) bench->verify(env, checks);
    checks.expect(rec.failed(Phase::Verify) == 0, "verify.syscalls",
                  std::to_string(rec.failed(Phase::Verify)) + " failed");
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  sim::JsonWriter w;
  w.begin_object();
  w.field("workload", a.workload);
  w.field("seed", a.seed);
  w.field("traced", a.traced);
  w.field("threads", static_cast<std::uint64_t>(bench->threads()));
  w.field("ops", rs.ops);
  w.field("bytes", rs.bytes);
  w.field("bytes_written", rec.bytes_written());
  w.field("elapsed_ns", static_cast<std::int64_t>(rs.elapsed));
  w.field("epoch_ns", static_cast<std::int64_t>(epoch));
  w.field("setup_ns", setup_ns);
  w.field("cpu_ns", cpu_ns);
  w.field("peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
  w.field("attempted", rec.attempted(Phase::Measure));
  w.field("failed", rec.failed(Phase::Measure));
  w.field("channels", static_cast<std::int64_t>(bo.device.channels));
  w.key("calls");
  w.begin_object();
  for (std::size_t s = 0; s < kSysCount; ++s) {
    w.field(sys_name(static_cast<Sys>(s)), rec.calls(static_cast<Sys>(s)));
  }
  w.end_object();
  if (a.traced) {
    put_volume(w, "volume0", vol0);
    put_volume(w, "volume1", vol1);
    const Retired& r = sys.retired();
    w.key("page_cache_retired");
    w.begin_object();
    w.field("unlinked", r.unlinked);
    w.field("inodes", r.inodes);
    w.field("hits", r.stats.hits);
    w.field("misses", r.stats.misses);
    w.field("readahead_pages", r.stats.readahead_pages);
    w.field("writeback_pages", r.stats.writeback_pages);
    w.field("writeback_calls", r.stats.writeback_calls);
    w.end_object();
    w.key("trace");
    w.begin_object();
    w.field("capacity", static_cast<std::uint64_t>(tracer->capacity()));
    w.field("emitted_at_epoch", emitted0);
    w.field("emitted", emitted1);
    w.field("dropped", dropped1);
    w.end_object();
  }
  w.key("checks");
  w.begin_array();
  for (const Checks::Item& c : checks.items()) {
    w.begin_object();
    w.field("name", c.name);
    w.field("ok", c.ok);
    w.field("detail", c.detail);
    w.end_object();
  }
  w.end_array();
  w.field("correct", checks.all_ok());
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return checks.all_ok() ? 0 : 1;
}

/// wl::Varmail (seed 11, 16 threads, 20,000 iterations) against the mail
/// workload run through the shim with the same seeds: the virtual results
/// must be identical, so the shim and the bench's copy of the op sequence
/// add no virtual time.
int run_oracle() {
  constexpr std::uint64_t kSeed = 11;
  constexpr std::uint64_t kOps = 20'000;
  constexpr int kThreads = 16;
  sim::RunnerOptions ro;
  ro.horizon = kHorizon;
  ro.max_ops = kOps;

  sim::RunStats ref;
  {
    wl::TestBed bed(wl::BedOptions{});
    wl::MailSet set;
    std::vector<std::unique_ptr<sim::Workload>> jobs;
    for (int t = 0; t < kThreads; ++t) {
      jobs.push_back(std::make_unique<wl::Varmail>(bed, set, t, kSeed));
    }
    ref = sim::run_workloads(jobs, ro);
  }
  sim::RunStats got;
  {
    std::unique_ptr<Bench> bench = make_mail(kSeed, kOps, 99);
    Recorder rec(false);
    wl::TestBed bed(bench->bed());
    Shim sys(bed.kernel(), rec);
    Env env{bed, sys, rec};
    std::vector<std::unique_ptr<sim::Workload>> jobs;
    for (int t = 0; t < kThreads; ++t) jobs.push_back(bench->job(env, t));
    got = sim::run_workloads(jobs, ro);
  }
  const bool same = ref.ops == got.ops && ref.elapsed == got.elapsed &&
                    ref.latency.count() == got.latency.count() &&
                    ref.latency.mean() == got.latency.mean() &&
                    ref.latency.min() == got.latency.min() &&
                    ref.latency.max() == got.latency.max();
  sim::JsonWriter w;
  w.begin_object();
  w.field("oracle", "varmail");
  w.field("reference_ops_per_s", ref.ops_per_sec());
  w.field("shim_ops_per_s", got.ops_per_sec());
  w.field("reference_elapsed_ns", static_cast<std::int64_t>(ref.elapsed));
  w.field("shim_elapsed_ns", static_cast<std::int64_t>(got.elapsed));
  w.field("identical", same);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return same ? 0 : 1;
}

}  // namespace
}  // namespace bsim::bm

int main(int argc, char** argv) {
  using bsim::bm::Args;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (arg == "--ops" && has_value) {
      a.ops = std::stoull(argv[++i]);
    } else if (arg == "--out" && has_value) {
      a.out = argv[++i];
    } else if (arg == "--trace") {
      a.traced = true;
    } else if (arg == "--dump-trace") {
      a.dump_trace = true;
    } else if (arg == "--oracle") {
      a.oracle = true;
    } else {
      std::fprintf(stderr,
                   "usage: bm --workload NAME --seed N --out DIR "
                   "[--trace [--dump-trace]] [--ops N] | bm --oracle\n");
      return 2;
    }
  }
  try {
    return a.oracle ? bsim::bm::run_oracle() : bsim::bm::run_trial(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm: %s\n", e.what());
    return 2;
  }
}
