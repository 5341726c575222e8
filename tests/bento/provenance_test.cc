// Tests for the provenance stacking file system (paper §3, third
// motivating use case): source tracking, transitive lineage, invalidation
// queries, version retention, and garbage collection.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../testutil.h"
#include "bento/provenance.h"

namespace bsim::test {
namespace {

using bento::Ino;
using bento::ProvSource;
using kern::Err;

class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    auto prov = std::make_unique<bento::ProvenanceFs>(
        std::make_unique<xv6::Xv6FileSystem>());
    fs_ = prov.get();
    mount_ = std::make_unique<bento::UserMount>(xv6_image(), std::move(prov));
    ASSERT_EQ(Err::Ok, mount_->mount_init());
  }

  bento::Request req_as(std::uint32_t pid) {
    auto r = mount_->mkreq();
    r.pid = pid;
    return r;
  }

  Ino create_file(std::string_view name) {
    auto made = fs_->create(req_as(0), mount_->borrow(), bento::kRootIno,
                            name, 0644);
    EXPECT_TRUE(made.ok());
    mount_->check_borrows();
    return made.value().ino;
  }

  void write_as(std::uint32_t pid, Ino ino, std::string_view data,
                std::uint64_t off = 0) {
    auto w = fs_->write(req_as(pid), mount_->borrow(), ino, 0, off,
                        as_bytes(data));
    ASSERT_TRUE(w.ok());
    mount_->check_borrows();
  }

  std::string read_as(std::uint32_t pid, Ino ino, std::size_t n,
                      std::uint64_t off = 0) {
    std::vector<std::byte> buf(n);
    auto r = fs_->read(req_as(pid), mount_->borrow(), ino, 0, off, buf);
    EXPECT_TRUE(r.ok());
    mount_->check_borrows();
    buf.resize(r.value());
    return to_string(buf);
  }

  void barrier(Ino ino) {
    ASSERT_EQ(Err::Ok, fs_->fsync(req_as(0), mount_->borrow(), ino, 0, false));
    mount_->check_borrows();
  }

  bento::ProvenanceStore& store() { return fs_->store(); }

  sim::SimThread thread_{0};
  std::unique_ptr<bento::UserMount> mount_;
  bento::ProvenanceFs* fs_ = nullptr;
};

TEST_F(ProvenanceTest, DirectSourceRecorded) {
  fs_->register_process(100, "transform");
  const Ino a = create_file("input.csv");
  const Ino b = create_file("output.dat");
  write_as(0, a, "raw data");
  barrier(a);

  (void)read_as(100, a, 8);
  write_as(100, b, "derived");

  const auto sources = store().sources_of(b);
  EXPECT_TRUE(sources.contains(ProvSource::file(a, store().current_seq(a))));
  EXPECT_TRUE(sources.contains(ProvSource::img("transform")));
}

TEST_F(ProvenanceTest, UnreadInputsAreNotSources) {
  fs_->register_process(100, "tool");
  const Ino a = create_file("used.txt");
  const Ino c = create_file("unrelated.txt");
  const Ino b = create_file("out.txt");
  write_as(0, a, "x");
  write_as(0, c, "y");

  (void)read_as(100, a, 1);
  write_as(100, b, "z");

  const auto sources = store().sources_of(b);
  EXPECT_TRUE(sources.contains(ProvSource::file(a, store().current_seq(a))));
  for (const auto& s : sources) {
    if (s.kind == ProvSource::Kind::FileVersion) EXPECT_NE(c, s.ino);
  }
}

TEST_F(ProvenanceTest, LineageIsTransitive) {
  fs_->register_process(1, "stage1");
  fs_->register_process(2, "stage2");
  const Ino a = create_file("a");
  const Ino b = create_file("b");
  const Ino c = create_file("c");
  write_as(0, a, "origin");
  barrier(a);

  (void)read_as(1, a, 6);
  write_as(1, b, "mid");
  barrier(b);
  (void)read_as(2, b, 3);
  write_as(2, c, "final");

  const auto lineage = store().lineage_of(c);
  bool has_a = false, has_b = false, has_s1 = false, has_s2 = false;
  for (const auto& s : lineage) {
    if (s.kind == ProvSource::Kind::FileVersion && s.ino == a) has_a = true;
    if (s.kind == ProvSource::Kind::FileVersion && s.ino == b) has_b = true;
    if (s.kind == ProvSource::Kind::Image && s.image == "stage1") has_s1 = true;
    if (s.kind == ProvSource::Kind::Image && s.image == "stage2") has_s2 = true;
  }
  EXPECT_TRUE(has_a);
  EXPECT_TRUE(has_b);
  EXPECT_TRUE(has_s1);  // the image that built b is in c's lineage
  EXPECT_TRUE(has_s2);
}

TEST_F(ProvenanceTest, TaintedByFindsAllDerivedData) {
  // The paper's scenario: "If a data source becomes invalid (e.g., because
  // of a change to sensor calibration), provenance can be used to track
  // down what derived data needs to be regenerated."
  fs_->register_process(1, "calib");
  fs_->register_process(2, "report");
  const Ino sensor = create_file("sensor.raw");
  const Ino calibrated = create_file("calibrated.dat");
  const Ino report = create_file("report.pdf");
  const Ino other = create_file("untouched.txt");
  write_as(0, sensor, "readings");
  barrier(sensor);
  write_as(0, other, "independent");

  (void)read_as(1, sensor, 8);
  write_as(1, calibrated, "fixed");
  barrier(calibrated);
  (void)read_as(2, calibrated, 5);
  write_as(2, report, "summary");

  const auto tainted = store().tainted_by(sensor);
  EXPECT_TRUE(tainted.contains(calibrated));
  EXPECT_TRUE(tainted.contains(report));
  EXPECT_FALSE(tainted.contains(other));
}

TEST_F(ProvenanceTest, TaintedByImageFindsToolOutputs) {
  fs_->register_process(7, "buggy-tool-v3");
  const Ino in = create_file("in");
  const Ino out1 = create_file("out1");
  const Ino out2 = create_file("out2");
  write_as(0, in, "i");
  (void)read_as(7, in, 1);
  write_as(7, out1, "o1");
  write_as(7, out2, "o2");

  const auto tainted = store().tainted_by_image("buggy-tool-v3");
  EXPECT_TRUE(tainted.contains(out1));
  EXPECT_TRUE(tainted.contains(out2));
  EXPECT_FALSE(tainted.contains(in));
}

TEST_F(ProvenanceTest, OverwriteStartsNewVersionAndRetainsOld) {
  fs_->register_process(1, "reader");
  const Ino src = create_file("source.txt");
  const Ino out = create_file("out.txt");
  write_as(0, src, "version zero");
  barrier(src);

  // Reader consumes v0 and produces out (edge to src@v0).
  (void)read_as(1, src, 12);
  write_as(1, out, "derived from v0");
  barrier(out);

  // Source is overwritten: v0's bytes must be retained because out's
  // provenance still references them.
  const auto v0 = store().current_seq(src);
  write_as(0, src, "VERSION ONE!");
  barrier(src);
  EXPECT_GT(store().current_seq(src), v0);

  const auto retained = store().read_version(src, v0);
  ASSERT_TRUE(retained.has_value());
  EXPECT_EQ("version zero", to_string(*retained));
  // The live file shows the new contents.
  EXPECT_EQ("VERSION ONE!", read_as(0, src, 12));
}

TEST_F(ProvenanceTest, SourcesArePerVersion) {
  fs_->register_process(1, "gen1");
  fs_->register_process(2, "gen2");
  const Ino a = create_file("a");
  const Ino b = create_file("b");
  const Ino out = create_file("out");
  write_as(0, a, "a");
  write_as(0, b, "b");

  (void)read_as(1, a, 1);
  write_as(1, out, "from a");
  barrier(out);
  const auto seq_v0 = store().current_seq(out);

  (void)read_as(2, b, 1);
  write_as(2, out, "from b");

  const auto v0_sources = store().sources_of(out, seq_v0);
  const auto v1_sources = store().sources_of(out);
  bool v0_has_a = false, v1_has_b = false, v1_has_a = false;
  for (const auto& s : v0_sources) {
    if (s.kind == ProvSource::Kind::FileVersion && s.ino == a) v0_has_a = true;
  }
  for (const auto& s : v1_sources) {
    if (s.kind == ProvSource::Kind::FileVersion && s.ino == b) v1_has_b = true;
    if (s.kind == ProvSource::Kind::FileVersion && s.ino == a) v1_has_a = true;
  }
  EXPECT_TRUE(v0_has_a);
  EXPECT_TRUE(v1_has_b);
  EXPECT_FALSE(v1_has_a);  // gen2 never read a
}

TEST_F(ProvenanceTest, GcReclaimsUnreferencedVersions) {
  fs_->register_process(1, "consumer");
  const Ino src = create_file("big.bin");
  const Ino out = create_file("out.bin");

  // v0 is read and referenced by out.
  write_as(0, src, std::string(1000, 'v'));
  barrier(src);
  (void)read_as(1, src, 1000);
  write_as(1, out, "uses v0");
  barrier(out);

  // v1 is read by a process that never writes: retained on overwrite but
  // referenced by nobody once the read set is discarded.
  write_as(0, src, std::string(500, 'w'));
  barrier(src);
  fs_->register_process(9, "idle");
  (void)read_as(9, src, 500);
  write_as(0, src, std::string(10, 'x'));
  barrier(src);
  store().forget_process(9);  // exit without producing output

  // Both pre-images were snapshotted. The v1 snapshot is the whole
  // 1000-byte file (the 500-byte overwrite left the old tail in place).
  const auto before = store().retained_bytes();
  EXPECT_EQ(2000U, before);

  const auto reclaimed = store().gc();
  EXPECT_EQ(1000U, reclaimed);  // v1 dropped; v0 kept (out still needs it)
  EXPECT_TRUE(store().read_version(src, 0).has_value());
  EXPECT_FALSE(store().read_version(src, 1).has_value());
}

TEST_F(ProvenanceTest, GcKeepsChainThroughDeadIntermediates) {
  // a -> b -> c, then b is unlinked: a and b versions must survive gc while
  // c is live (the paper: retained "if they are part of the provenance of
  // live output files").
  fs_->register_process(1, "p1");
  fs_->register_process(2, "p2");
  const Ino a = create_file("a");
  const Ino b = create_file("b");
  const Ino c = create_file("c");
  write_as(0, a, "aaaa");
  barrier(a);
  (void)read_as(1, a, 4);
  write_as(1, b, "bbbb");
  barrier(b);
  (void)read_as(2, b, 4);
  write_as(2, c, "cccc");
  barrier(c);

  ASSERT_EQ(Err::Ok, fs_->unlink(req_as(0), mount_->borrow(), bento::kRootIno,
                                 "b"));
  mount_->check_borrows();
  (void)store().gc();

  // b's version record survives: c's lineage still reaches a through it.
  const auto lineage = store().lineage_of(c);
  bool has_a = false;
  for (const auto& s : lineage) {
    if (s.kind == ProvSource::Kind::FileVersion && s.ino == a) has_a = true;
  }
  EXPECT_TRUE(has_a);
}

TEST_F(ProvenanceTest, GcDropsFullyDeadFiles) {
  const Ino tmp = create_file("scratch.tmp");
  write_as(0, tmp, "temp");
  ASSERT_EQ(Err::Ok, fs_->unlink(req_as(0), mount_->borrow(), bento::kRootIno,
                                 "scratch.tmp"));
  mount_->check_borrows();
  const auto tracked_before = store().tracked_files();
  (void)store().gc();
  EXPECT_LT(store().tracked_files(), tracked_before);
}

TEST_F(ProvenanceTest, SelfAppendDoesNotSelfReference) {
  fs_->register_process(1, "appender");
  const Ino log = create_file("log.txt");
  write_as(1, log, "line1\n");
  (void)read_as(1, log, 6);
  write_as(1, log, "line2\n", 6);

  // The current version must not list itself as an input.
  const auto seq = store().current_seq(log);
  for (const auto& s : store().sources_of(log, seq)) {
    if (s.kind == ProvSource::Kind::FileVersion) {
      EXPECT_FALSE(s.ino == log && s.seq == seq);
    }
  }
}

TEST_F(ProvenanceTest, IndependentPidsDoNotCrossContaminate) {
  fs_->register_process(1, "p1");
  fs_->register_process(2, "p2");
  const Ino a = create_file("a");
  const Ino b = create_file("b");
  const Ino out = create_file("out");
  write_as(0, a, "a");
  write_as(0, b, "b");

  (void)read_as(1, a, 1);  // p1 reads a
  (void)read_as(2, b, 1);  // p2 reads b
  write_as(2, out, "by p2");

  for (const auto& s : store().sources_of(out)) {
    if (s.kind == ProvSource::Kind::FileVersion) EXPECT_NE(a, s.ino);
    if (s.kind == ProvSource::Kind::Image) EXPECT_EQ("p2", s.image);
  }
}

TEST_F(ProvenanceTest, SurvivesOnlineUpgrade) {
  // §4.8: the provenance graph is internal in-memory state that must move
  // to the new file-system version during an online upgrade.
  fs_->register_process(1, "tool");
  const Ino a = create_file("in");
  const Ino b = create_file("out");
  write_as(0, a, "data");
  (void)read_as(1, a, 4);
  write_as(1, b, "cooked");

  auto* old_fs = fs_;
  auto state = old_fs->prepare_transfer(req_as(0), mount_->borrow());
  mount_->check_borrows();

  bento::ProvenanceFs next(std::make_unique<xv6::Xv6FileSystem>());
  ASSERT_EQ(Err::Ok, next.restore_state(req_as(0), mount_->borrow(),
                                        std::move(state)));
  mount_->check_borrows();

  const auto sources = next.store().sources_of(b);
  bool has_a = false;
  for (const auto& s : sources) {
    if (s.kind == ProvSource::Kind::FileVersion && s.ino == a) has_a = true;
  }
  EXPECT_TRUE(has_a);
  // The data plane still works through the restored lower file system.
  std::vector<std::byte> buf(6);
  auto r = next.read(req_as(1), mount_->borrow(), b, 0, 0, buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ("cooked", to_string(std::span<const std::byte>(buf.data(),
                                                           r.value())));
  mount_->check_borrows();
}

TEST_F(ProvenanceTest, BorrowLedgerStaysBalanced) {
  fs_->register_process(1, "t");
  const Ino a = create_file("x");
  write_as(1, a, "1");
  (void)read_as(1, a, 1);
  // One ledger covers the whole stack: the lower borrows the same
  // capability.
  EXPECT_TRUE(mount_->ledger().balanced());
}

}  // namespace
}  // namespace bsim::test
