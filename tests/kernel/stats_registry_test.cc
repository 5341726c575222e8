// Stats-registry exhaustiveness: every *Stats owner in the tree must show
// up in Kernel::dump_stats(). Mounting each deployment and checking the
// snapshot for the known struct tags means a new stats struct that is
// never registered (or a registration that silently drops out) fails here
// rather than going dark in the bench artifacts.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "kernel/types.h"
#include "sim/thread.h"
#include "workloads/testbed.h"

namespace bsim {
namespace {

/// Mounts `fs` on the volume `mount_opts` describes, does a little I/O
/// (create, write, fsync, read), and returns the kernel's JSON stats
/// snapshot.
std::string snapshot(const std::string& fs, const char* mount_opts) {
  wl::BedOptions opts;
  opts.fs = fs;
  opts.device_blocks = 32768;
  opts.mount_opts = mount_opts;
  wl::TestBed bed(opts);

  sim::SimThread thread(1);
  sim::ScopedThread in(thread);
  kern::Kernel& k = bed.kernel();
  kern::Process& p = k.proc();
  auto fd = k.open(p, "/mnt/snap", kern::kOCreat | kern::kORdWr);
  EXPECT_TRUE(fd.ok());
  std::vector<std::byte> buf(4096, std::byte{0x42});
  EXPECT_TRUE(k.pwrite(p, fd.value(), buf, 0).ok());
  EXPECT_EQ(kern::Err::Ok, k.fsync(p, fd.value()));
  EXPECT_TRUE(k.pread(p, fd.value(), buf, 0).ok());
  EXPECT_EQ(kern::Err::Ok, k.close(p, fd.value()));
  return k.dump_stats();
}

bool has_struct(const std::string& snap, const std::string& name) {
  return snap.find("\"struct\": \"" + name + "\"") != std::string::npos;
}

TEST(StatsRegistry, EveryKnownStatsStructIsRegistered) {
  struct Deployment {
    const char* fs;
    const char* mount_opts;
    std::vector<const char*> expects;
  };
  // Structs common to every kernel-side deployment. FlusherStats is not
  // core: ext4j journals its own writeback and FUSE drains in userspace,
  // so neither attaches a kernel flusher.
  const std::vector<const char*> kCore = {
      "DeviceStats", "RequestQueueStats", "BufferCacheStats",
      "AddressSpaceStats"};
  const Deployment deployments[] = {
      {"xv6_bento", "", {"FlusherStats", "ModuleStats", "LogStats"}},
      {"xv6_bento", "stripe=4", {"AggregateVolumeStats", "LogStats"}},
      {"xv6_bento", "parity=4",
       {"AggregateVolumeStats", "ParityVolumeStats", "LogStats"}},
      {"xv6_nvmlog", "", {"ModuleStats", "NvmLogStats", "LogStats"}},
      {"xv6_vfs", "", {"FlusherStats", "CLogStats"}},
      {"xv6_fuse", "", {"FuseConnStats", "ModuleStats", "LogStats"}},
      {"ext4j", "", {"JournalStats", "MapStats"}},
  };

  // The exhaustiveness roll: every stats struct the tree defines must be
  // seen in at least one snapshot. Adding a new *Stats without wiring it
  // into dump_stats()/register_stats() fails this list.
  std::vector<std::string> all_known = {
      "DeviceStats",    "RequestQueueStats",
      "BufferCacheStats", "AddressSpaceStats", "FlusherStats",
      "AggregateVolumeStats", "ParityVolumeStats", "ModuleStats", "LogStats",
      "NvmLogStats",    "CLogStats",       "FuseConnStats",
      "JournalStats",   "MapStats"};
  std::string everything;

  for (const Deployment& d : deployments) {
    SCOPED_TRACE(std::string(d.fs) + "/" + d.mount_opts);
    const std::string snap = snapshot(d.fs, d.mount_opts);
    EXPECT_NE(snap.find("\"type\": \"stats_snapshot\""), std::string::npos);
    for (const char* want : kCore) {
      EXPECT_TRUE(has_struct(snap, want)) << want;
    }
    for (const char* want : d.expects) {
      EXPECT_TRUE(has_struct(snap, want)) << want;
    }
    everything += snap;
  }
  for (const std::string& want : all_known) {
    EXPECT_TRUE(has_struct(everything, want))
        << want << " is registered nowhere — wire it into dump_stats";
  }
}

TEST(StatsRegistry, SnapshotWritesToFile) {
  wl::BedOptions opts;
  opts.fs = "xv6_bento";
  opts.device_blocks = 32768;
  wl::TestBed bed(opts);
  sim::SimThread thread(1);
  sim::ScopedThread in(thread);
  const std::string path = "stats_registry_snapshot_test.json";
  EXPECT_EQ(kern::Err::Ok, bed.kernel().dump_stats_to(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bsim
