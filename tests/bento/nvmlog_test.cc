// Tests for the Strata-style NVM op-log file system (paper §3): overlay
// correctness, digest write-through, fsync-at-barrier-cost, and crash
// recovery from the persisted log (including torn-tail detection).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../testutil.h"
#include "bento/nvmlog.h"

namespace bsim::test {
namespace {

using bento::Ino;
using kern::Err;

/// Harness: NvmLogFs over xv6 on one shared MemBlockBackend/superblock,
/// with direct access to the lower FS (bypassing the log) and the NVM
/// region (for crash simulation).
class NvmLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    nvm_ = std::make_shared<blk::NvmRegion>(blk::NvmParams{});
    blk::DeviceParams params;
    params.nblocks = 8192;
    image_ = std::make_unique<blk::BlockDevice>(params);
    xv6::mkfs(*image_, 512);
    remount();
  }

  /// Build (or rebuild, after a crash) the mount from the device image.
  /// The NVM region always survives.
  void remount() {
    mount_.reset();
    auto backend = std::make_unique<bento::MemBlockBackend>(*image_);
    backend_raw_ = backend.get();
    bento::NvmLogFs::Options opts;
    opts.digest_watermark = 4ull << 20;
    auto fs = std::make_unique<bento::NvmLogFs>(
        std::make_unique<xv6::Xv6FileSystem>(), nvm_, opts);
    fs_ = fs.get();
    mount_ = std::make_unique<bento::UserMount>(std::move(backend),
                                                std::move(fs));
    ASSERT_EQ(Err::Ok, mount_->mount_init());
  }

  /// Simulate power loss: NVM loses unbarriered stores; the in-memory
  /// block device (standing in for the disk) is captured as-is — the
  /// durability question under test is the *log's*, the lower xv6 journal
  /// has its own crash suite.
  void crash_and_remount() {
    {
      auto cap = bento::CapTestAccess::make(*backend_raw_);
      for (std::uint64_t b = 0; b < image_->nblocks(); ++b) {
        auto bh = cap->getblk(b);
        image_->write_untimed(b, bh.value().data());
      }
    }
    mount_->abandon();  // power loss: no orderly unmount, no digest
    nvm_->crash();
    remount();
  }

  Ino create_file(std::string_view name) {
    auto made = fs_->create(mount_->mkreq(), mount_->borrow(), bento::kRootIno,
                            name, 0644);
    EXPECT_TRUE(made.ok());
    mount_->check_borrows();
    return made.value().ino;
  }

  void write_at(Ino ino, std::uint64_t off, std::string_view data) {
    auto w = fs_->write(mount_->mkreq(), mount_->borrow(), ino, 0, off,
                        as_bytes(data));
    ASSERT_TRUE(w.ok());
    mount_->check_borrows();
  }

  std::string read_at(Ino ino, std::uint64_t off, std::size_t n) {
    std::vector<std::byte> buf(n);
    auto r = fs_->read(mount_->mkreq(), mount_->borrow(), ino, 0, off, buf);
    EXPECT_TRUE(r.ok());
    mount_->check_borrows();
    buf.resize(r.value());
    return to_string(buf);
  }

  std::string read_lower(Ino ino, std::uint64_t off, std::size_t n) {
    std::vector<std::byte> buf(n);
    auto r = fs_->lower().read(mount_->mkreq(), mount_->borrow(), ino, 0, off,
                               buf);
    EXPECT_TRUE(r.ok());
    mount_->check_borrows();
    buf.resize(r.value());
    return to_string(buf);
  }

  void fsync_file(Ino ino) {
    ASSERT_EQ(Err::Ok,
              fs_->fsync(mount_->mkreq(), mount_->borrow(), ino, 0, false));
    mount_->check_borrows();
  }

  void digest() {
    ASSERT_EQ(Err::Ok, fs_->digest(mount_->mkreq(), mount_->borrow()));
    mount_->check_borrows();
  }

  sim::SimThread thread_{0};
  std::shared_ptr<blk::NvmRegion> nvm_;
  std::unique_ptr<blk::BlockDevice> image_;  // the "disk" across crashes
  bento::MemBlockBackend* backend_raw_ = nullptr;
  std::unique_ptr<bento::UserMount> mount_;
  bento::NvmLogFs* fs_ = nullptr;
};

TEST_F(NvmLogTest, WriteGoesToLogNotLower) {
  const Ino ino = create_file("fast.txt");
  write_at(ino, 0, "logged, not written through");
  EXPECT_EQ("logged, not written through", read_at(ino, 0, 27));
  // The lower FS has not seen the data.
  EXPECT_EQ("", read_lower(ino, 0, 27));
  EXPECT_EQ(1U, fs_->stats().log_appends);
  EXPECT_GT(nvm_->stats().bytes_written, 27U);
}

TEST_F(NvmLogTest, GetattrReflectsLoggedSize) {
  const Ino ino = create_file("sized.txt");
  write_at(ino, 100, std::string(50, 's'));
  auto attr = fs_->getattr(mount_->mkreq(), mount_->borrow(), ino);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(150U, attr.value().size);
  mount_->check_borrows();
}

TEST_F(NvmLogTest, OverlappingWritesLastWins) {
  const Ino ino = create_file("overlap.txt");
  write_at(ino, 0, "aaaaaaaaaa");
  write_at(ino, 3, "BBB");
  write_at(ino, 5, "cccc");
  EXPECT_EQ("aaaBBcccca", read_at(ino, 0, 10));
}

TEST_F(NvmLogTest, ReadMergesLowerAndLoggedData) {
  const Ino ino = create_file("mixed.txt");
  write_at(ino, 0, "0123456789");
  digest();  // now in the lower FS
  EXPECT_EQ("0123456789", read_lower(ino, 0, 10));
  write_at(ino, 4, "XY");  // logged only
  EXPECT_EQ("0123XY6789", read_at(ino, 0, 10));
}

TEST_F(NvmLogTest, HoleBetweenLowerEofAndLoggedExtentReadsZero) {
  const Ino ino = create_file("hole.txt");
  write_at(ino, 0, "head");
  digest();
  write_at(ino, 10, "tail");
  const std::string got = read_at(ino, 0, 14);
  ASSERT_EQ(14U, got.size());
  EXPECT_EQ("head", got.substr(0, 4));
  EXPECT_EQ(std::string(6, '\0'), got.substr(4, 6));
  EXPECT_EQ("tail", got.substr(10, 4));
}

TEST_F(NvmLogTest, DigestWritesThroughAndTruncatesLog) {
  const Ino ino = create_file("digested.txt");
  const std::string data(10000, 'd');
  write_at(ino, 0, data);
  EXPECT_GT(fs_->pending_bytes(), 0U);

  digest();
  EXPECT_EQ(0U, fs_->pending_bytes());
  EXPECT_EQ(1U, fs_->stats().digests);
  EXPECT_EQ(data, read_lower(ino, 0, data.size()));
  EXPECT_EQ(data, read_at(ino, 0, data.size()));
}

TEST_F(NvmLogTest, WatermarkTriggersAutoDigest) {
  const Ino ino = create_file("auto.txt");
  const std::string chunk(64 * 1024, 'w');
  // 4 MiB watermark: ~64 chunks force at least one digest.
  for (int i = 0; i < 80; ++i) {
    write_at(ino, static_cast<std::uint64_t>(i) * chunk.size(), chunk);
  }
  EXPECT_GE(fs_->stats().digests, 1U);
  // All data readable regardless of which side of the digest it is on.
  EXPECT_EQ(chunk, read_at(ino, 42ull * chunk.size(), chunk.size()));
}

TEST_F(NvmLogTest, FsyncIsOneBarrierNoBlockIo) {
  const Ino ino = create_file("sync.txt");
  write_at(ino, 0, "durable");
  const auto barriers_before = nvm_->stats().barriers;
  const auto t0 = sim::now();
  fsync_file(ino);
  const auto dt = sim::now() - t0;
  EXPECT_EQ(barriers_before + 1, nvm_->stats().barriers);
  // Strata's point: fsync costs a persist barrier, not a journal commit.
  EXPECT_LE(dt, 2 * blk::NvmParams{}.barrier);
  EXPECT_EQ("", read_lower(ino, 0, 7));  // still nothing on the "disk"
}

TEST_F(NvmLogTest, PersistedWritesSurviveCrash) {
  const Ino ino = create_file("precious.txt");
  write_at(ino, 0, "must survive");
  fsync_file(ino);  // barrier: log records durable

  crash_and_remount();

  EXPECT_EQ("must survive", read_at(ino, 0, 12));
  EXPECT_GE(fs_->stats().recovered_records, 1U);
}

TEST_F(NvmLogTest, UnbarrieredTailIsLostButPrefixSurvives) {
  const Ino ino = create_file("partial.txt");
  write_at(ino, 0, "persisted-part");
  fsync_file(ino);
  write_at(ino, 100, "volatile-part");  // never barriered

  crash_and_remount();

  EXPECT_EQ("persisted-part", read_at(ino, 0, 14));
  auto attr = fs_->getattr(mount_->mkreq(), mount_->borrow(), ino);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(14U, attr.value().size);  // the tail write is gone
  mount_->check_borrows();
}

// Offset into the second record's payload: records are header(40B) +
// payload, appended back to back from offset 0.
std::size_t offset_into_second_record_payload() {
  const std::size_t header = 48;
  return header + 11 + header + 4;
}

TEST_F(NvmLogTest, CorruptedRecordStopsReplayAtTear) {
  const Ino ino = create_file("torn.txt");
  write_at(ino, 0, "good record");
  write_at(ino, 50, "doomed record");
  fsync_file(ino);

  // Corrupt the second record's payload directly in NVM (bit rot / torn
  // line), then persist the corruption so the crash keeps it.
  std::array<std::byte, 1> evil{std::byte{0xff}};
  nvm_->write(offset_into_second_record_payload(), evil);
  nvm_->persist_barrier();

  crash_and_remount();
  EXPECT_EQ("good record", read_at(ino, 0, 11));
  EXPECT_EQ(1U, fs_->stats().torn_records_dropped);
  EXPECT_EQ(1U, fs_->stats().recovered_records);
}

TEST_F(NvmLogTest, DigestedStateNeedsNoLog) {
  const Ino ino = create_file("settled.txt");
  write_at(ino, 0, "settled data");
  digest();

  crash_and_remount();  // log is empty (truncated at digest + barrier)
  EXPECT_EQ(0U, fs_->stats().recovered_records);
  EXPECT_EQ("settled data", read_at(ino, 0, 12));
}

TEST_F(NvmLogTest, UnlinkDropsPendingExtents) {
  const Ino ino = create_file("victim.txt");
  write_at(ino, 0, "doomed");
  EXPECT_GT(fs_->pending_bytes(), 0U);
  ASSERT_EQ(Err::Ok, fs_->unlink(mount_->mkreq(), mount_->borrow(),
                                 bento::kRootIno, "victim.txt"));
  mount_->check_borrows();
  EXPECT_EQ(0U, fs_->pending_bytes());

  // An inode-number reuse must not see the ghost.
  const Ino reuse = create_file("fresh.txt");
  if (reuse == ino) {
    EXPECT_EQ("", read_at(reuse, 0, 6));
  }
}

TEST_F(NvmLogTest, TruncateDropsPendingBeyondNewSize) {
  const Ino ino = create_file("trunc.txt");
  write_at(ino, 0, std::string(200, 't'));
  bento::SetAttrIn in;
  in.set_size = true;
  in.size = 100;
  auto r = fs_->setattr(mount_->mkreq(), mount_->borrow(), ino, in);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(100U, r.value().size);
  mount_->check_borrows();
  EXPECT_EQ(std::string(100, 't'), read_at(ino, 0, 200));
}

// ---- randomized overlay property sweep ----
//
// The extent overlay (split/trim/merge on overlapping writes) is compared
// against a flat byte-array model under random write/truncate/digest/
// remount-after-fsync patterns.
struct OverlayCase {
  std::uint64_t seed;
  bool digest_sometimes;
};

class NvmLogOverlayProperty
    : public NvmLogTest,
      public ::testing::WithParamInterface<OverlayCase> {};

TEST_P(NvmLogOverlayProperty, MatchesFlatBufferModel) {
  const auto [seed, digest_sometimes] = GetParam();
  sim::Rng rng(seed);
  const Ino ino = create_file("prop.bin");
  std::string model;  // the whole file as a flat byte array

  for (int step = 0; step < 120; ++step) {
    const std::uint64_t dice = rng.below(100);
    if (dice < 70) {
      // Random write: offset within [0, 40000), size [1, 3000).
      const std::uint64_t off = rng.below(40000);
      const std::size_t len = 1 + rng.below(2999);
      std::string data(len, static_cast<char>('a' + rng.below(26)));
      write_at(ino, off, data);
      if (model.size() < off + len) model.resize(off + len, '\0');
      model.replace(static_cast<std::size_t>(off), len, data);
    } else if (dice < 80 && !model.empty()) {
      // Truncate to a random size.
      const std::uint64_t nsize = rng.below(model.size() + 1);
      bento::SetAttrIn in;
      in.set_size = true;
      in.size = nsize;
      auto r = fs_->setattr(mount_->mkreq(), mount_->borrow(), ino, in);
      ASSERT_TRUE(r.ok());
      mount_->check_borrows();
      model.resize(nsize, '\0');
    } else if (dice < 90 && digest_sometimes) {
      digest();
    } else {
      // Spot-check a random window.
      if (model.empty()) continue;
      const std::uint64_t off = rng.below(model.size());
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(4000), model.size() - off);
      ASSERT_EQ(model.substr(static_cast<std::size_t>(off), len),
                read_at(ino, off, len))
          << "step " << step << " window " << off << "+" << len;
    }
  }

  // Full-file comparison, then again after digest and after a persisted
  // crash + replay.
  ASSERT_EQ(model, read_at(ino, 0, model.size() + 100));
  auto attr = fs_->getattr(mount_->mkreq(), mount_->borrow(), ino);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(model.size(), attr.value().size);
  mount_->check_borrows();

  fsync_file(ino);
  crash_and_remount();
  EXPECT_EQ(model, read_at(ino, 0, model.size() + 100));

  digest();
  EXPECT_EQ(model, read_at(ino, 0, model.size() + 100));
}

INSTANTIATE_TEST_SUITE_P(
    RandomPatterns, NvmLogOverlayProperty,
    ::testing::Values(OverlayCase{11, false}, OverlayCase{12, false},
                      OverlayCase{13, true}, OverlayCase{14, true},
                      OverlayCase{15, true}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.digest_sometimes ? "_digest" : "_logonly");
    });

TEST_F(NvmLogTest, SyncFsDigestsEverything) {
  const Ino a = create_file("a.txt");
  const Ino b = create_file("b.txt");
  write_at(a, 0, "alpha");
  write_at(b, 0, "beta");
  ASSERT_EQ(Err::Ok, fs_->sync_fs(mount_->mkreq(), mount_->borrow()));
  mount_->check_borrows();
  EXPECT_EQ(0U, fs_->pending_bytes());
  EXPECT_EQ("alpha", read_lower(a, 0, 5));
  EXPECT_EQ("beta", read_lower(b, 0, 4));
}

}  // namespace
}  // namespace bsim::test
