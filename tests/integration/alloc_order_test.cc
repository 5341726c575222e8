// Allocation order on xv6 (Bento and FUSE), xv6c and ext4j, against a
// scan of the on-disk bitmaps from bit 0.
//
// Every allocator resumes its bitmap scan at a first-free cursor. That
// saves scan time and must change no choice: a seeded mix of creates,
// appends and unlinks, each followed by sync(2), must allocate exactly the
// blocks and inodes a scan from the start of each bitmap names first. The
// images start with most of the first bitmap block (xv6) or of every group
// (ext4j) marked allocated, with scattered holes, so the cursors start past
// a full prefix, the scan crosses into the next block or group, and frees
// reopen holes below a cursor.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "sim/rng.h"

namespace bsim::test {
namespace {

using kern::Err;

constexpr std::uint32_t kBits = blk::kBlockSize * 8;

/// A run of allocation bits in a file system's scan order: bits
/// [begin, end) of the bitmap block at `bitmap` name objects base + bit.
struct Span {
  std::uint64_t bitmap = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint64_t base = 0;
};

/// A copy of the bitmap of each span of a family: a set bit is an
/// allocated object.
using FreeMap = std::vector<std::array<std::byte, blk::kBlockSize>>;

bool is_free(const FreeMap& m, std::size_t k, std::uint32_t i) {
  return (m[k][i / 8] & (std::byte{1} << (i % 8))) == std::byte{0};
}

/// The reference: the first `n` free objects of `m`, scanning the spans
/// from `start` on and wrapping, lowest bit first within each. Each comes
/// with the span it lies in.
std::vector<std::pair<std::uint64_t, std::size_t>> first_free(
    const std::vector<Span>& spans, const FreeMap& m, std::size_t start,
    std::size_t n) {
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  for (std::size_t step = 0; step < spans.size() && out.size() < n; ++step) {
    const std::size_t k = (start + step) % spans.size();
    for (std::uint32_t i = spans[k].begin; i < spans[k].end && out.size() < n;
         ++i) {
      if (is_free(m, k, i)) out.emplace_back(spans[k].base + i, k);
    }
  }
  return out;
}

/// The objects `before` had free and `after` has taken, ascending, and
/// how many went the other way.
std::vector<std::uint64_t> taken(const std::vector<Span>& spans,
                                 const FreeMap& before, const FreeMap& after,
                                 std::size_t* released) {
  std::vector<std::uint64_t> out;
  *released = 0;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    for (std::uint32_t i = spans[k].begin; i < spans[k].end; ++i) {
      if (before[k][i / 8] == after[k][i / 8]) continue;
      const bool was = is_free(before, k, i);
      const bool is = is_free(after, k, i);
      if (was && !is) out.push_back(spans[k].base + i);
      if (!was && is) *released += 1;
    }
  }
  return out;
}

class AllocOrderTest : public ::testing::TestWithParam<const char*> {
 protected:
  static constexpr std::uint32_t kExt4InodesPerGroup = 64;
  static constexpr std::uint32_t kXv6Inodes = 256;
  /// ext4j groups are 32,768 blocks past a 4,099-block head; two of them.
  static constexpr std::uint64_t kExt4Blocks = 4099 + 2 * 32768;
  /// xv6: bitmap block 1 names the last 600 blocks.
  static constexpr std::uint64_t kXv6Blocks = kBits + 600;

  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = ext4() ? kExt4Blocks : kXv6Blocks;
    dev_ = &kernel_.add_device("ssd0", params);
    if (ext4()) {
      const ext4::Super s = ext4::mkfs(*dev_, kExt4InodesPerGroup);
      ipg_ = s.inodes_per_group;
      std::array<std::byte, blk::kBlockSize> gdt{};
      dev_->read_untimed(s.gdt_start, gdt);
      auto* gd = reinterpret_cast<ext4::GroupDesc*>(gdt.data());
      for (std::uint32_t g = 0; g < s.ngroups; ++g) {
        const std::uint64_t base =
            s.first_group + std::uint64_t{g} * s.blocks_per_group;
        const std::uint32_t begin =
            static_cast<std::uint32_t>(gd[g].data_start - base);
        block_spans_.push_back(
            {gd[g].block_bitmap, begin, begin + gd[g].data_blocks, base});
        inode_spans_.push_back(
            {gd[g].inode_bitmap, 0, ipg_, std::uint64_t{g} * ipg_});
        gd[g].free_blocks -= prefill(block_spans_.back(), 97 - 8 * g);
      }
      dev_->write_untimed(s.gdt_start, gdt);
    } else {
      xv6_dsb_ = xv6::mkfs(*dev_, kXv6Inodes);
      for (std::uint32_t bi = 0; bi < xv6_dsb_.nbitmap; ++bi) {
        const xv6::BitmapRange r = xv6::bitmap_range(xv6_dsb_, bi);
        block_spans_.push_back({xv6_dsb_.bmapstart + bi, r.begin, r.end,
                                std::uint64_t{bi} * kBits});
      }
      prefill(block_spans_[0], 97);
      // xv6 keeps no inode bitmap: read_inodes builds one over inodes 1.. .
      inode_spans_.push_back({0, 1, xv6_dsb_.ninodes, 0});
    }
    wl::register_deployments(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
    blocks_ = read_bitmaps(block_spans_);
  }

  bool ext4() const { return std::string_view(GetParam()) == "ext4j"; }
  kern::Process& proc() { return kernel_.proc(); }

  /// Mark every bit of `s` allocated on the image except every
  /// `stride`-th; returns how many bits it marked.
  std::uint32_t prefill(const Span& s, std::uint32_t stride) {
    std::array<std::byte, blk::kBlockSize> bits{};
    dev_->read_untimed(s.bitmap, bits);
    std::uint32_t marked = 0;
    for (std::uint32_t i = s.begin; i < s.end; ++i) {
      const std::byte mask = std::byte{1} << (i % 8);
      if (i % stride == 0 || (bits[i / 8] & mask) != std::byte{0}) continue;
      bits[i / 8] |= mask;
      marked += 1;
    }
    dev_->write_untimed(s.bitmap, bits);
    return marked;
  }

  /// The on-disk bitmaps of `spans` (untimed).
  FreeMap read_bitmaps(const std::vector<Span>& spans) {
    FreeMap m(spans.size());
    for (std::size_t k = 0; k < spans.size(); ++k) {
      dev_->read_untimed(spans[k].bitmap, m[k]);
    }
    return m;
  }

  /// The on-disk inode bitmaps (ext4j), or one built from the inode table
  /// (xv6), untimed.
  FreeMap read_inodes() {
    if (ext4()) return read_bitmaps(inode_spans_);
    FreeMap m(1);
    m[0].fill(std::byte{0});
    alignas(xv6::Dinode) std::array<std::byte, blk::kBlockSize> buf{};
    for (std::uint32_t inum = 1; inum < xv6_dsb_.ninodes; ++inum) {
      if (inum == 1 || inum % xv6::kInodesPerBlock == 0) {
        dev_->read_untimed(xv6_dsb_.inode_block(inum), buf);
      }
      const auto* di = reinterpret_cast<const xv6::Dinode*>(buf.data());
      if (di[inum % xv6::kInodesPerBlock].type !=
          static_cast<std::uint16_t>(xv6::InodeKind::Free)) {
        m[0][inum / 8] |= std::byte{1} << (inum % 8);
      }
    }
    return m;
  }

  std::size_t free_blocks() const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < block_spans_.size(); ++k) {
      for (std::uint32_t i = block_spans_[k].begin; i < block_spans_[k].end;
           ++i) {
        n += is_free(blocks_, k, i) ? 1 : 0;
      }
    }
    return n;
  }

  /// Run `op` and sync. The blocks it took must be the first free ones
  /// from the span its scan starts in: the goal group (ext4j) or the
  /// bitmap block of the last block allocated (xv6). It must free none,
  /// and take at most one inode, the lowest free (xv6) or the first free
  /// from group 0, the root's (ext4j). Returns that inode, or 0.
  template <class Op>
  std::uint64_t check_alloc(const std::string& what, std::size_t goal,
                            Op&& op) {
    const FreeMap inodes0 = read_inodes();
    op();
    EXPECT_EQ(Err::Ok, kernel_.sync(proc()));
    const FreeMap blocks1 = read_bitmaps(block_spans_);
    const FreeMap inodes1 = read_inodes();

    std::size_t released = 0;
    const std::vector<std::uint64_t> got =
        taken(block_spans_, blocks_, blocks1, &released);
    EXPECT_EQ(0u, released) << what;
    const std::size_t start = ext4() ? goal : xv6_hint_;
    // In scan order: balloc's hint is the bitmap block of the last one.
    std::vector<std::uint64_t> want;
    for (const auto& [blockno, span] :
         first_free(block_spans_, blocks_, start, got.size())) {
      want.push_back(blockno);
      xv6_hint_ = span;
      if (span != start) crossed_ += 1;
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(want, got) << what << ": blocks";
    blocks_taken_ += got.size();
    blocks_ = blocks1;

    const std::vector<std::uint64_t> inode =
        taken(inode_spans_, inodes0, inodes1, &released);
    EXPECT_EQ(0u, released) << what;
    EXPECT_LE(inode.size(), 1u) << what;
    if (inode.empty()) return 0;
    const auto ref = first_free(inode_spans_, inodes0, 0, 1);
    EXPECT_TRUE(!ref.empty() && ref[0].first == inode[0])
        << what << ": inode " << inode[0];
    return inode[0];
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  blk::BlockDevice* dev_ = nullptr;
  std::vector<Span> block_spans_;
  std::vector<Span> inode_spans_;
  std::uint32_t ipg_ = 0;
  xv6::DiskSuperblock xv6_dsb_;
  /// The on-disk block bitmaps after the last op.
  FreeMap blocks_;
  std::size_t xv6_hint_ = 0;
  std::size_t blocks_taken_ = 0;
  /// Blocks taken outside the span their op's scan started in.
  int crossed_ = 0;
};

INSTANTIATE_TEST_SUITE_P(Deployments, AllocOrderTest,
                         ::testing::Values("xv6_bento", "xv6_fuse", "xv6_vfs",
                                           "ext4j"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(AllocOrderTest, EveryAllocationIsTheFirstFreeFromTheScanStart) {
  struct File {
    std::string path;
    std::uint64_t ino = 0;
    std::uint64_t blocks = 0;
  };
  std::vector<File> files;
  sim::Rng rng(32);
  int next_name = 0;
  int frees = 0;
  const std::vector<std::byte> page(blk::kBlockSize, std::byte{0x5A});
  const std::size_t free_at_start = free_blocks();
  for (int op = 0; op < 1000; ++op) {
    const std::string tag = "op " + std::to_string(op);
    const bool low = free_blocks() < 80 || files.size() >= 100;
    const auto pick = rng.below(10);
    if (!files.empty() && (low || pick >= 8)) {
      const std::size_t i = rng.below(files.size());
      ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), files[i].path)) << tag;
      ASSERT_EQ(Err::Ok, kernel_.sync(proc())) << tag;
      const FreeMap after = read_bitmaps(block_spans_);
      std::size_t released = 0;
      EXPECT_TRUE(taken(block_spans_, blocks_, after, &released).empty())
          << tag;
      EXPECT_GE(released, files[i].blocks) << tag;
      blocks_ = after;
      files[i] = files.back();
      files.pop_back();
      frees += 1;
    } else if (files.empty() || pick < 3) {
      File f{"/mnt/f" + std::to_string(next_name++)};
      f.ino = check_alloc(tag + " create " + f.path, 0, [&] {
        auto fd = kernel_.open(proc(), f.path, kern::kOCreat | kern::kOWrOnly);
        ASSERT_TRUE(fd.ok()) << f.path;
        ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
      });
      auto st = kernel_.stat(proc(), f.path);
      ASSERT_TRUE(st.ok()) << f.path;
      EXPECT_EQ(st.value().ino, f.ino) << tag;
      files.push_back(f);
    } else {
      File& f = files[rng.below(files.size())];
      const std::uint64_t n = 1 + rng.below(8);
      const std::size_t goal = ext4() ? f.ino / ipg_ : 0;
      check_alloc(tag + " append " + f.path, goal, [&] {
        auto fd = kernel_.open(proc(), f.path, kern::kOWrOnly);
        ASSERT_TRUE(fd.ok()) << f.path;
        for (std::uint64_t b = 0; b < n; ++b) {
          auto w = kernel_.pwrite(proc(), fd.value(), page,
                                  (f.blocks + b) * blk::kBlockSize);
          ASSERT_TRUE(w.ok()) << f.path;
        }
        ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
      });
      f.blocks += n;
    }
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
  // The run took more blocks than were free at the start, so it reused
  // freed ones, and its scans crossed spans more than once (xv6: to bitmap
  // block 1 and back; ext4j: into the other group from either goal).
  EXPECT_GT(blocks_taken_, free_at_start);
  EXPECT_GT(frees, 60);
  EXPECT_GE(crossed_, 2);
  EXPECT_EQ(Err::Ok, kernel_.umount("/mnt"));
}

}  // namespace
}  // namespace bsim::test
