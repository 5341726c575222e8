// Durability oracle: every byte an fsync returned Ok for survives power
// loss, on all five deployments.
//
// A seeded trace of appends and fsyncs is replayed from a fresh image up
// to the k-th fsync that returns Ok. Then the device loses every write no
// FLUSH covered (crash with survive_p = 0), the NVM region loses every
// store no persist barrier covered, and a copy of the image is mounted so
// journal recovery (and the NVM log's replay) runs. Each file must then
// begin with exactly the bytes its last successful fsync covered. Files
// only grow, so a later write that happened to survive cannot hide a lost
// one.
//
// Each client creates its files and syncs before its trace starts:
// NvmLogFs passes namespace operations straight to the lower file system,
// whose journal makes them durable at its next sync, not at an fsync on
// the log.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "../testutil.h"
#include "sim/runner.h"

namespace bsim::test {
namespace {

using kern::Err;

constexpr std::uint64_t kBlocks = 8192;  // 32 MiB images
/// xv6_nvmlog digests every 256 KiB, so a trace crosses several digests.
constexpr std::size_t kDigestBytes = 256u << 10;
constexpr int kFilesPerClient = 2;
/// Blocks written to /b in the threshold-commit case. With this size (and
/// no other between 2000 and 2100) ext4j's 2048-block write-path commit
/// closes the last op of /b's writeback.
constexpr std::size_t kThresholdBlocks = 2042;
constexpr const char* kDeployments[] = {"xv6_bento", "xv6_vfs", "xv6_fuse",
                                        "ext4j", "xv6_nvmlog"};

/// What the trace wrote to each file, and how much an fsync covered.
struct Model {
  std::map<std::string, std::string> data;
  std::map<std::string, std::size_t> durable;
  int fsyncs_ok = 0;
  int stop_after = 0;  // end the trace at this many Ok fsyncs

  [[nodiscard]] bool done() const { return fsyncs_ok >= stop_after; }
};

/// A kernel with an 8192-block "ssd0" and every deployment registered.
/// xv6_nvmlog logs to `nvm`, so a recovering rig replays the crashed one's
/// log.
struct Rig {
  explicit Rig(const std::shared_ptr<blk::NvmRegion>& nvm) {
    blk::DeviceParams params;
    params.nblocks = kBlocks;
    dev = &kernel.add_device("ssd0", params);
    wl::register_deployments(kernel, nvm,
                             bento::NvmLogFs::Options{kDigestBytes});
  }

  /// Format "ssd0" for `fstype` and mount it at /mnt. "noflusher" keeps
  /// writeback a pure function of the trace.
  void format_and_mount(std::string_view fstype, std::string_view opts = "") {
    if (fstype == "ext4j") {
      ext4::mkfs(*dev, /*inodes_per_group=*/512);
    } else {
      xv6::mkfs(*dev, /*ninodes=*/512);
    }
    std::string all = "noflusher";
    if (!opts.empty()) all.append(",").append(opts);
    ASSERT_EQ(Err::Ok, kernel.mount(fstype, "ssd0", "/mnt", all));
    dev->enable_crash_tracking();
  }

  kern::Kernel kernel;
  blk::BlockDevice* dev = nullptr;
};

std::shared_ptr<blk::NvmRegion> small_nvm() {
  return std::make_shared<blk::NvmRegion>(blk::NvmParams{.bytes = 4u << 20});
}

/// Lose everything no FLUSH or persist barrier covered, mount a copy of
/// the device as `fstype` (recovery runs), and check every file against
/// the bytes its last Ok fsync covered.
void expect_fsynced_bytes_survive(std::string_view fstype, Rig& live,
                                  const std::shared_ptr<blk::NvmRegion>& nvm,
                                  const Model& model) {
  sim::Rng rng(1);
  live.dev->crash(/*survive_p=*/0.0, rng);
  nvm->crash();

  Rig rec(nvm);
  std::array<std::byte, blk::kBlockSize> buf{};
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    live.dev->read_untimed(b, buf);
    rec.dev->write_untimed(b, buf);
  }
  ASSERT_EQ(Err::Ok, rec.kernel.mount(fstype, "ssd0", "/mnt", "noflusher"));
  auto& p = rec.kernel.proc();
  for (const auto& [path, len] : model.durable) {
    auto st = rec.kernel.stat(p, path);
    ASSERT_TRUE(st.ok()) << path << " is gone";
    EXPECT_GE(st.value().size, len) << path << " lost its fsynced tail";
    auto fd = rec.kernel.open(p, path, kern::kORdWr);
    ASSERT_TRUE(fd.ok()) << path;
    std::vector<std::byte> got(len);
    auto n = rec.kernel.pread(p, fd.value(), got, 0);
    ASSERT_TRUE(n.ok()) << path;
    const std::string& want = model.data.at(path);
    std::size_t bad = 0;
    while (bad < n.value() && static_cast<char>(got[bad]) == want[bad]) {
      bad += 1;
    }
    EXPECT_EQ(bad, len) << path << ": fsynced bytes differ from offset "
                        << bad << " of " << len;
    (void)rec.kernel.close(p, fd.value());
  }
}

/// One client of the trace: appends to its own files and fsyncs them,
/// until the model has seen its last Ok fsync.
class Fsyncer final : public sim::Workload {
 public:
  Fsyncer(kern::Kernel& kernel, Model& model, int id)
      : kernel_(kernel), model_(model), id_(id),
        rng_(1000 + static_cast<std::uint64_t>(id)) {}

  void setup() override {
    proc_ = kernel_.new_process();
    for (int f = 0; f < kFilesPerClient; ++f) {
      const std::string path =
          "/mnt/c" + std::to_string(id_) + "_" + std::to_string(f);
      auto fd = kernel_.open(*proc_, path, kern::kOCreat | kern::kORdWr);
      ASSERT_TRUE(fd.ok()) << path;
      paths_.push_back(path);
      fds_.push_back(fd.value());
      model_.data[path];
    }
    ASSERT_EQ(Err::Ok, kernel_.sync(*proc_));
  }

  std::int64_t step() override {
    if (model_.done()) return -1;
    const std::size_t f = rng_.below(fds_.size());
    const std::string& path = paths_[f];
    std::string& data = model_.data[path];
    if (rng_.chance(0.3)) {
      const std::size_t covered = data.size();
      if (kernel_.fsync(*proc_, fds_[f]) == Err::Ok) {
        model_.durable[path] = covered;
        model_.fsyncs_ok += 1;
      }
      return 0;
    }
    const std::size_t n =
        rng_.chance(0.8) ? rng_.range(1, 4096) : rng_.range(4097, 48u << 10);
    std::string chunk(n, '\0');
    for (char& c : chunk) c = static_cast<char>('a' + rng_.below(26));
    auto w = kernel_.pwrite(*proc_, fds_[f], as_bytes(chunk), data.size());
    EXPECT_TRUE(w.ok() && w.value() == n) << path;
    data += chunk;
    return static_cast<std::int64_t>(n);
  }

 private:
  kern::Kernel& kernel_;
  Model& model_;
  int id_;
  sim::Rng rng_;
  std::unique_ptr<kern::Process> proc_;
  std::vector<std::string> paths_;
  std::vector<int> fds_;
};

struct OracleCase {
  const char* fs;
  int clients;
  std::vector<int> crash_after;  // the k-th Ok fsync values to crash at
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << c.fs << " with " << c.clients << " fsyncers";
}

class DurabilityOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(DurabilityOracle, FsyncedBytesSurviveCrash) {
  const OracleCase& c = GetParam();
  for (const int k : c.crash_after) {
    SCOPED_TRACE("crash after Ok fsync #" + std::to_string(k));
    sim::SimThread thread(0);
    sim::ScopedThread in(thread);
    auto nvm = small_nvm();
    Rig live(nvm);
    live.format_and_mount(c.fs);
    Model model;
    model.stop_after = k;
    std::vector<std::unique_ptr<sim::Workload>> jobs;
    for (int i = 0; i < c.clients; ++i) {
      jobs.push_back(std::make_unique<Fsyncer>(live.kernel, model, i));
    }
    (void)sim::run_workloads(jobs, sim::RunnerOptions{});
    ASSERT_EQ(model.fsyncs_ok, k);
    expect_fsynced_bytes_survive(c.fs, live, nvm, model);
  }
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  for (const char* fs : kDeployments) {
    OracleCase one{fs, 1, {}};
    OracleCase many{fs, 16, {}};
    for (int k = 1; k <= 24; ++k) one.crash_after.push_back(k);
    for (int k = 4; k <= 64; k += 4) many.crash_after.push_back(k);
    cases.push_back(one);
    cases.push_back(many);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllDeployments, DurabilityOracle, ::testing::ValuesIn(oracle_cases()),
    [](const auto& info) {
      return std::string(info.param.fs) + "_" +
             std::to_string(info.param.clients) + "fsyncers";
    });

/// Append `bytes` of `fill` to `path` through a fresh descriptor and fsync
/// it; record the fsynced contents in `model`.
void append_and_fsync(kern::Kernel& kernel, Model& model,
                      const std::string& path, std::size_t bytes, char fill) {
  auto& p = kernel.proc();
  auto fd = kernel.open(p, path, kern::kORdWr);
  ASSERT_TRUE(fd.ok()) << path;
  std::string& data = model.data[path];
  const std::string chunk(bytes, fill);
  auto w = kernel.pwrite(p, fd.value(), as_bytes(chunk), data.size());
  ASSERT_TRUE(w.ok() && w.value() == bytes) << path;
  data += chunk;
  ASSERT_EQ(Err::Ok, kernel.fsync(p, fd.value()));
  model.durable[path] = data.size();
  ASSERT_EQ(Err::Ok, kernel.close(p, fd.value()));
}

/// On a fresh `fstype` rig holding empty, synced /mnt/a and /mnt/b, run
/// `script`, then crash and check what it fsynced.
void crash_after_script(
    const char* fstype,
    const std::function<void(kern::Kernel&, Model&)>& script) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  auto nvm = small_nvm();
  Rig live(nvm);
  live.format_and_mount(fstype);
  Model model;
  auto& p = live.kernel.proc();
  for (const char* path : {"/mnt/a", "/mnt/b"}) {
    auto fd = live.kernel.open(p, path, kern::kOCreat | kern::kORdWr);
    ASSERT_TRUE(fd.ok()) << path;
    ASSERT_EQ(Err::Ok, live.kernel.close(p, fd.value()));
    model.data[path];
  }
  ASSERT_EQ(Err::Ok, live.kernel.sync(p));
  script(live.kernel, model);
  expect_fsynced_bytes_survive(fstype, live, nvm, model);
}

class DurabilityScript : public ::testing::TestWithParam<const char*> {};

TEST_P(DurabilityScript, FsyncAfterThresholdCommitStillFlushes) {
  // The write path's threshold commit closes every op of /b's writeback
  // before /b's fsync forces anything, so that fsync has nothing left to
  // commit. It must still FLUSH. The gaps put each fsync well past the
  // previous FLUSH.
  crash_after_script(GetParam(), [](kern::Kernel& k, Model& m) {
    sim::current().wait(sim::msec(5));
    append_and_fsync(k, m, "/mnt/a", 4096, 'a');
    sim::current().wait(sim::msec(5));
    append_and_fsync(k, m, "/mnt/b", kThresholdBlocks * 4096, 'b');
  });
}

TEST_P(DurabilityScript, BackToBackFsyncsBothSurvive) {
  // An fsync that closes a commit shortly after another fsync's FLUSH
  // needs a FLUSH of its own, however short the gap.
  for (const sim::Nanos gap : {sim::Nanos{0}, sim::usec(100), sim::msec(1)}) {
    SCOPED_TRACE("gap " + std::to_string(gap) + " ns");
    crash_after_script(GetParam(), [gap](kern::Kernel& k, Model& m) {
      append_and_fsync(k, m, "/mnt/a", 4096, 'a');
      sim::current().wait(gap);
      append_and_fsync(k, m, "/mnt/b", 4096, 'b');
    });
  }
}

INSTANTIATE_TEST_SUITE_P(AllDeployments, DurabilityScript,
                         ::testing::ValuesIn(kDeployments),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// Format "ssd0" for `fstype` and plant one committed transaction that
/// journal replay has not installed yet: it carries `bytes` for block
/// `home`. Returns the journal block whose contents mark the transaction
/// committed (the xv6 log header, ext4's descriptor).
std::uint64_t plant_committed_txn(std::string_view fstype,
                                  blk::BlockDevice& dev, std::uint32_t home,
                                  std::span<const std::byte> bytes) {
  std::array<std::byte, blk::kBlockSize> buf{};
  if (fstype == "ext4j") {
    const ext4::Super s = ext4::mkfs(dev, /*inodes_per_group=*/512);
    ext4::JDescriptor desc;
    desc.magic = ext4::kJDescMagic;
    desc.seq = 1;
    desc.n = 1;
    desc.blocks[0] = home;
    std::memcpy(buf.data(), &desc, sizeof(desc));
    dev.write_untimed(s.jstart, buf);
    dev.write_untimed(s.jstart + 1, bytes);
    buf.fill(std::byte{0});
    const ext4::JCommit commit{ext4::kJCommitMagic, desc.seq};
    std::memcpy(buf.data(), &commit, sizeof(commit));
    dev.write_untimed(s.jstart + 2, buf);
    return s.jstart;
  }
  const xv6::DiskSuperblock s = xv6::mkfs(dev, /*ninodes=*/512);
  xv6::LogHeader header;
  header.n = 1;
  header.blocks[0] = home;
  std::memcpy(buf.data(), &header, sizeof(header));
  dev.write_untimed(s.logstart, buf);
  dev.write_untimed(s.logstart + 1, bytes);
  return s.logstart;
}

class ReplayWriteError : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplayWriteError, FailedHomeWriteFailsTheMountAndKeepsTheJournal) {
  // jbd2's "recovery failed": a replay whose home write fails must fail
  // the mount and leave the transaction in the journal. Clearing it would
  // lose the committed bytes for good, even once the sector is repaired.
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Rig rig(small_nvm());
  const auto home = static_cast<std::uint32_t>(kBlocks - 1);  // a free block
  std::array<std::byte, blk::kBlockSize> committed{};
  committed.fill(std::byte{0x5a});
  const std::uint64_t mark =
      plant_committed_txn(GetParam(), *rig.dev, home, committed);
  std::array<std::byte, blk::kBlockSize> planted{};
  std::array<std::byte, blk::kBlockSize> now{};
  rig.dev->read_untimed(mark, planted);

  rig.dev->inject_write_error(home);
  EXPECT_EQ(Err::Io, rig.kernel.mount(GetParam(), "ssd0", "/mnt"));
  EXPECT_EQ(nullptr, rig.kernel.sb_at("/mnt"));
  rig.dev->read_untimed(mark, now);
  EXPECT_TRUE(planted == now) << "the failed replay cleared the journal";

  rig.dev->clear_write_error(home);
  ASSERT_EQ(Err::Ok, rig.kernel.mount(GetParam(), "ssd0", "/mnt"));
  ASSERT_EQ(Err::Ok, rig.kernel.umount("/mnt"));
  rig.dev->read_untimed(home, now);
  EXPECT_TRUE(committed == now) << "the committed bytes never reached home";
}

INSTANTIATE_TEST_SUITE_P(VerifiedJournals, ReplayWriteError,
                         ::testing::Values("xv6_bento", "xv6_nvmlog",
                                           "xv6_vfs", "xv6_fuse", "ext4j"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// A scripted client: one action per step.
class Script final : public sim::Workload {
 public:
  explicit Script(std::vector<std::function<void()>> steps)
      : steps_(std::move(steps)) {}

  std::int64_t step() override {
    if (next_ == steps_.size()) return -1;
    steps_[next_++]();
    return 0;
  }

 private:
  std::vector<std::function<void()>> steps_;
  std::size_t next_ = 0;
};

class FsyncTiming : public ::testing::TestWithParam<const char*> {};

TEST_P(FsyncTiming, FsyncThatSkipsItsFlushWaitsForTheCoveringFlush) {
  // A writes /a while B creates /b; A fsyncs, then B. A's commit carries
  // B's create, so B's fsync has nothing left to commit and skips its
  // FLUSH. B must still not return before A's FLUSH completes.
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  auto nvm = small_nvm();
  Rig live(nvm);
  live.format_and_mount(GetParam(), "trace=65536");
  kern::Kernel& k = live.kernel;
  auto flushes = [&] {
    std::vector<sim::Nanos> done;
    for (const blk::TraceEvent& e : live.dev->tracer()->events()) {
      if (e.ev == blk::TraceEv::Flush) done.push_back(e.t);
    }
    return done;
  };
  auto pa = k.new_process();
  auto pb = k.new_process();
  int fa = -1;
  int fb = -1;
  std::size_t flushes_before_b = 0;
  sim::Nanos b_done = 0;
  std::vector<std::unique_ptr<sim::Workload>> jobs;
  jobs.push_back(std::make_unique<Script>(std::vector<std::function<void()>>{
      [&] {
        fa = k.open(*pa, "/mnt/a", kern::kOCreat | kern::kORdWr).value();
        ASSERT_TRUE(k.write(*pa, fa, as_bytes(std::string(4096, 'a'))).ok());
      },
      [&] { ASSERT_EQ(Err::Ok, k.fsync(*pa, fa)); }}));
  jobs.push_back(std::make_unique<Script>(std::vector<std::function<void()>>{
      [&] {
        fb = k.open(*pb, "/mnt/b", kern::kOCreat | kern::kORdWr).value();
      },
      // Let A's fsync go first.
      [&] { sim::current().wait(sim::usec(50)); },
      [&] {
        flushes_before_b = flushes().size();
        ASSERT_EQ(Err::Ok, k.fsync(*pb, fb));
        b_done = sim::now();
      }}));
  (void)sim::run_workloads(jobs, sim::RunnerOptions{});

  const std::vector<sim::Nanos> done = flushes();
  ASSERT_FALSE(done.empty());
  ASSERT_EQ(done.size(), flushes_before_b) << "B's fsync issued a FLUSH";
  EXPECT_GE(b_done, *std::max_element(done.begin(), done.end()));
}

INSTANTIATE_TEST_SUITE_P(JournaledDeployments, FsyncTiming,
                         ::testing::Values("xv6_bento", "xv6_fuse", "ext4j"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace bsim::test
