// Block-trace invariants across volume topologies: per-id event ordering
// (Q <= D <= C with ids global across device slots), exact trailer counts
// vs DeviceStats, and the zero-cost property — arming "trace=N" must
// leave every virtual-time result bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "blockdev/trace.h"
#include "kernel/types.h"
#include "sim/thread.h"
#include "workloads/testbed.h"

namespace bsim {
namespace {

struct Topology {
  const char* name;
  const char* volume;  // volume-layout mount options
};

const Topology kTopologies[] = {
    {"plain", ""},
    {"striped4", "stripe=4"},
    {"mirror2", "mirror=2"},
    {"parity4", "parity=4"},
};

/// Everything the workload's virtual-time outcome consists of: the final
/// clock and the device tree's aggregated counters.
struct RunResult {
  sim::Nanos end_time = 0;
  std::uint64_t reads = 0, writes = 0, flushes = 0;
  std::uint64_t read_requests = 0, write_requests = 0, merges = 0;
};

/// A deterministic mixed workload: create files, write, fsync, read back,
/// unlink one. `check` runs before teardown with the bed still mounted.
RunResult drive(const Topology& topo, const std::string& mount_opts,
                const std::function<void(wl::TestBed&)>& check = {}) {
  wl::BedOptions opts;
  opts.fs = "xv6_bento";
  opts.device_blocks = 32768;
  opts.mount_opts = std::string(topo.volume) + "," + mount_opts;
  wl::TestBed bed(opts);

  sim::SimThread thread(1);
  sim::ScopedThread in(thread);
  kern::Kernel& k = bed.kernel();
  kern::Process& p = k.proc();
  std::vector<std::byte> buf(4096);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 13 & 0xff);
  }
  for (int f = 0; f < 6; ++f) {
    const std::string path = "/mnt/t" + std::to_string(f);
    auto fd = k.open(p, path, kern::kOCreat | kern::kORdWr);
    EXPECT_TRUE(fd.ok());
    for (int b = 0; b < 24; ++b) {
      EXPECT_TRUE(k.pwrite(p, fd.value(), buf,
                           static_cast<std::uint64_t>(b) * buf.size())
                      .ok());
    }
    EXPECT_EQ(kern::Err::Ok, k.fsync(p, fd.value()));
    std::vector<std::byte> back(buf.size());
    EXPECT_TRUE(k.pread(p, fd.value(), back, 0).ok());
    EXPECT_EQ(kern::Err::Ok, k.close(p, fd.value()));
  }
  EXPECT_EQ(kern::Err::Ok, k.unlink(p, "/mnt/t0"));
  EXPECT_EQ(kern::Err::Ok, k.sync(p));

  if (check) check(bed);

  RunResult r;
  r.end_time = sim::now();
  const blk::DeviceStats& s = bed.device().stats();
  r.reads = s.reads;
  r.writes = s.writes;
  r.flushes = s.flushes;
  r.read_requests = s.read_requests;
  r.write_requests = s.write_requests;
  r.merges = s.merges;
  return r;
}

/// Device slots with no registered children (fragment D/C land here).
std::vector<std::uint16_t> leaf_slots(const blk::Tracer& tr) {
  const std::vector<std::string>& names = tr.devices();
  std::vector<std::uint16_t> leaves;
  for (std::size_t d = 0; d < names.size(); ++d) {
    const std::string prefix = names[d] + "/";
    const bool has_child =
        std::any_of(names.begin(), names.end(), [&](const std::string& n) {
          return n.compare(0, prefix.size(), prefix) == 0;
        });
    if (!has_child) leaves.push_back(static_cast<std::uint16_t>(d));
  }
  return leaves;
}

TEST(TraceInvariants, MonotoneAndCountsMatchStats) {
  for (const Topology& topo : kTopologies) {
    SCOPED_TRACE(topo.name);
    drive(topo, "trace=100000", [&](wl::TestBed& bed) {
      blk::Tracer* tr = bed.device().tracer();
      ASSERT_NE(tr, nullptr);
      ASSERT_EQ(tr->dropped(), 0u) << "ring sized to hold the whole run";

      // Per-id monotonicity, ids global across slots: a mirror read's Q
      // lands on the volume slot while D/C land on the serving member.
      std::map<std::uint64_t, sim::Nanos> max_q, min_d, max_d, min_c;
      for (const blk::TraceEvent& e : tr->events()) {
        switch (e.ev) {
          case blk::TraceEv::Queue:
            max_q.try_emplace(e.id, e.t);
            max_q[e.id] = std::max(max_q[e.id], e.t);
            break;
          case blk::TraceEv::Dispatch:
            min_d.try_emplace(e.id, e.t);
            min_d[e.id] = std::min(min_d[e.id], e.t);
            max_d.try_emplace(e.id, e.t);
            max_d[e.id] = std::max(max_d[e.id], e.t);
            break;
          case blk::TraceEv::Complete:
            min_c.try_emplace(e.id, e.t);
            min_c[e.id] = std::min(min_c[e.id], e.t);
            break;
          default:
            break;
        }
      }
      EXPECT_FALSE(max_q.empty());
      for (const auto& [id, d] : min_d) {
        auto q = max_q.find(id);
        if (q != max_q.end()) {
          EXPECT_LE(q->second, d) << "id " << id;
        }
      }
      for (const auto& [id, c] : min_c) {
        auto d = max_d.find(id);
        if (d != max_d.end()) {
          EXPECT_LE(d->second, c) << "id " << id;
        }
        auto q = max_q.find(id);
        if (q != max_q.end()) {
          EXPECT_LE(q->second, c) << "id " << id;
        }
      }

      // Exact trailer counts vs the aggregated DeviceStats: the volume's
      // stats() is the sum over leaves, and M/D/F only occur on leaves.
      std::uint64_t traced_m = 0, traced_d = 0, traced_f = 0;
      for (const std::uint16_t d : leaf_slots(*tr)) {
        traced_m += tr->count(d, blk::TraceEv::Merge);
        traced_d += tr->count(d, blk::TraceEv::Dispatch);
        traced_f += tr->count(d, blk::TraceEv::Flush);
      }
      const blk::DeviceStats& s = bed.device().stats();
      EXPECT_EQ(traced_m, s.merges);
      EXPECT_EQ(traced_d, s.read_requests + s.write_requests);
      EXPECT_EQ(traced_f, s.flushes);
    });
  }
}

TEST(TraceInvariants, ArmingTraceIsFreeOnTheSimClock) {
  for (const Topology& topo : kTopologies) {
    SCOPED_TRACE(topo.name);
    const RunResult off = drive(topo, "");
    const RunResult on = drive(topo, "trace=100000");
    EXPECT_EQ(off.end_time, on.end_time);
    EXPECT_EQ(off.reads, on.reads);
    EXPECT_EQ(off.writes, on.writes);
    EXPECT_EQ(off.flushes, on.flushes);
    EXPECT_EQ(off.read_requests, on.read_requests);
    EXPECT_EQ(off.write_requests, on.write_requests);
    EXPECT_EQ(off.merges, on.merges);
  }
}

TEST(TraceInvariants, RingOverflowKeepsExactCounts) {
  // A tiny ring drops oldest events but the per-device counters stay
  // exact — the analyzer's cross-check relies on this.
  const Topology plain{"plain", ""};
  drive(plain, "trace=16", [&](wl::TestBed& bed) {
    blk::Tracer* tr = bed.device().tracer();
    ASSERT_NE(tr, nullptr);
    EXPECT_EQ(tr->events().size(), 16u);
    EXPECT_GT(tr->dropped(), 0u);
    std::uint64_t traced_d = 0;
    for (const std::uint16_t d : leaf_slots(*tr)) {
      traced_d += tr->count(d, blk::TraceEv::Dispatch);
    }
    const blk::DeviceStats& s = bed.device().stats();
    EXPECT_EQ(traced_d, s.read_requests + s.write_requests);
  });
}

}  // namespace
}  // namespace bsim
