// On-disk format of the xv6 file system port (paper §6.1).
//
// Layout (4 KiB blocks):
//   [ 0: boot | 1: superblock | log (header + data) | inode blocks |
//     free bitmap | data blocks ]
//
// Only the first `ninitblocks` inode blocks are initialised, as ext4's
// uninit_bg leaves the tail of each group's inode table: mkfs writes the
// root's block alone, and every block at or past the count holds only free
// inodes whatever its bytes. Mount reads just the initialised blocks;
// ialloc zero-fills the next block when its cursor reaches it, without a
// device read, and raises the count in the same transaction.
//
// Divergences from stock xv6, exactly the ones the paper made:
//   - double-indirect blocks so files up to 4 GB can be created (§6.1);
//   - allocation locks around inode and block-number allocation (§6.1);
//   - 4 KiB blocks to match the page size of the host kernel.
//
// The same format is shared by all three deployments (Bento kernel, FUSE
// userspace, and the VFS C baseline), mirroring the paper's "nearly
// identical" file systems.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "blockdev/device.h"
#include "kernel/bitmap.h"
#include "kernel/errno.h"
#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::xv6 {

inline constexpr std::uint32_t kBlockSize = blk::kBlockSize;  // 4096
inline constexpr std::uint32_t kMagic = 0x10203040;

inline constexpr std::uint32_t kNDirect = 10;
inline constexpr std::uint32_t kNIndirect = kBlockSize / 4;  // 1024
inline constexpr std::uint64_t kNDoubleIndirect =
    static_cast<std::uint64_t>(kNIndirect) * kNIndirect;
/// Max file size in blocks: 10 + 1024 + 1024^2 blocks = ~4.2 GB.
inline constexpr std::uint64_t kMaxFileBlocks =
    kNDirect + kNIndirect + kNDoubleIndirect;

/// Log geometry: one header block + up to kLogSize data blocks. A single
/// transaction may hold at most kMaxOpBlocks modified blocks; large writes
/// are chunked into multiple transactions.
inline constexpr std::uint32_t kLogSize = 320;
inline constexpr std::uint32_t kMaxOpBlocks = 64;

enum class InodeKind : std::uint16_t { Free = 0, Dir = 1, File = 2 };

/// On-disk inode: 64 bytes, 64 per block.
struct Dinode {
  std::uint16_t type = 0;   // InodeKind
  std::uint16_t nlink = 0;
  std::uint32_t mode = 0;
  std::uint64_t size = 0;
  std::uint32_t addrs[kNDirect] = {};
  std::uint32_t indirect = 0;
  std::uint32_t dindirect = 0;
};
static_assert(sizeof(Dinode) == 64);

inline constexpr std::uint32_t kInodesPerBlock = kBlockSize / sizeof(Dinode);

/// Directory entry: 32 bytes, 128 per block. inum == 0 marks a free slot.
inline constexpr std::size_t kDirNameLen = 28;
struct Dirent {
  std::uint32_t inum = 0;
  char name[kDirNameLen] = {};
};
static_assert(sizeof(Dirent) == 32);
inline constexpr std::uint32_t kDirentsPerBlock = kBlockSize / sizeof(Dirent);

inline constexpr std::uint32_t kBitsPerBlock = kBlockSize * 8;

/// On-disk superblock (stored in block 1).
struct DiskSuperblock {
  std::uint32_t magic = 0;
  std::uint32_t size = 0;        // total blocks
  std::uint32_t nlog = 0;        // log blocks (incl. header)
  std::uint32_t logstart = 0;
  std::uint32_t ninodes = 0;
  std::uint32_t inodestart = 0;
  std::uint32_t nbitmap = 0;
  std::uint32_t bmapstart = 0;
  std::uint32_t datastart = 0;
  std::uint32_t ndata = 0;       // data blocks
  /// Initialised inode blocks, from inodestart: the blocks past them hold
  /// only free inodes. At least 1 (the root's block), at most
  /// ninodeblocks().
  std::uint32_t ninitblocks = 0;

  [[nodiscard]] std::uint32_t ninodeblocks() const {
    return (ninodes + kInodesPerBlock - 1) / kInodesPerBlock;
  }
  [[nodiscard]] std::uint32_t inode_block(std::uint32_t inum) const {
    return inodestart + inum / kInodesPerBlock;
  }
  [[nodiscard]] bool ninitblocks_valid() const {
    return ninitblocks >= 1 && ninitblocks <= ninodeblocks();
  }
  /// Does inode `inum` lie in an initialised inode block?
  [[nodiscard]] bool inode_initialised(std::uint32_t inum) const {
    return inum / kInodesPerBlock < ninitblocks;
  }
  [[nodiscard]] std::uint32_t bitmap_block(std::uint32_t blockno) const {
    return bmapstart + blockno / kBitsPerBlock;
  }
};

/// The bits of bitmap block `bi` that name data blocks: from the first
/// at or past datastart to the last before the device's end.
struct BitmapRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};
[[nodiscard]] inline BitmapRange bitmap_range(const DiskSuperblock& dsb,
                                              std::uint32_t bi) {
  const std::uint64_t base = static_cast<std::uint64_t>(bi) * kBitsPerBlock;
  auto clamp = [&](std::uint64_t blockno) {
    return static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(blockno, base, base + kBitsPerBlock) - base);
  };
  return {clamp(dsb.datastart), clamp(dsb.size)};
}

/// The first free bit of bitmap block `bi` (contents `bits`) that names a
/// data block, or kBitsPerBlock if none does. `cursor` is the block's
/// balloc cursor: every data bit below it is allocated, so the scan
/// resumes there, charges only the lines it examines
/// (kern::scan_bitmap), and leaves the cursor past the bit it returns.
[[nodiscard]] inline std::uint32_t first_free_bit(
    const DiskSuperblock& dsb, std::uint32_t bi,
    std::span<const std::byte> bits, std::uint32_t& cursor) {
  const BitmapRange r = bitmap_range(dsb, bi);
  const std::uint32_t i = kern::scan_bitmap(bits, r.begin, r.end, cursor);
  return i == r.end ? kBitsPerBlock : i;
}

/// Scan the inode block that holds inode `cursor` (its dinodes `di`) for a
/// free inode, from `cursor` on. Returns it, or 0 if the block holds none
/// there, and leaves `cursor` just past the last inode examined. Each inode
/// examined costs ialloc_scan_per_inode. ialloc's cursor is the lowest inode
/// that may be free: every inode below it is allocated, so resuming there
/// finds the first free inode, as a scan from inode 1 would.
[[nodiscard]] inline std::uint32_t first_free_inode(
    const DiskSuperblock& dsb, const Dinode* di, std::uint32_t& cursor) {
  assert(cursor != 0 && cursor < dsb.ninodes);
  const std::uint32_t start = cursor;
  const std::uint32_t end = std::min(
      (cursor / kInodesPerBlock + 1) * kInodesPerBlock, dsb.ninodes);
  std::uint32_t found = 0;
  while (cursor < end && found == 0) {
    if (di[cursor % kInodesPerBlock].type ==
        static_cast<std::uint16_t>(InodeKind::Free)) {
      found = cursor;
    }
    cursor += 1;
  }
  sim::charge((cursor - start) * sim::costs().ialloc_scan_per_inode);
  return found;
}

/// What mount learns from the allocation metadata: the free inodes and
/// data blocks statfs reports, ialloc's starting cursor, and balloc's
/// cursor in each bitmap block (its first free data bit, or the end of its
/// data bits).
struct FreeCounts {
  std::uint64_t inodes = 0;
  std::uint64_t blocks = 0;
  std::uint32_t ialloc_cursor = 0;
  std::vector<std::uint32_t> balloc_cursors;
};

/// Mount-time accounting, shared by every xv6 deployment. It reads the
/// initialised inode blocks and the bitmap, one block at a time, through
/// `read(blockno, use)`, which reads the block and calls `use` with its
/// bytes. Every inode of an uninitialised block counts free without a
/// read, and each cursor starts at the first free inode or data bit.
template <class ReadBlock>
kern::Err count_free(const DiskSuperblock& dsb, ReadBlock&& read,
                     FreeCounts& out) {
  out = FreeCounts{};
  const std::uint64_t first_uninit =
      static_cast<std::uint64_t>(dsb.ninitblocks) * kInodesPerBlock;
  out.ialloc_cursor =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(first_uninit,
                                                         dsb.ninodes));
  out.inodes = dsb.ninodes - out.ialloc_cursor;
  for (std::uint32_t b = 0; b < dsb.ninitblocks; ++b) {
    BSIM_TRY(read(dsb.inodestart + b, [&](std::span<const std::byte> bytes) {
      const auto* di = reinterpret_cast<const Dinode*>(bytes.data());
      for (std::uint32_t i = 0; i < kInodesPerBlock; ++i) {
        const std::uint32_t inum = b * kInodesPerBlock + i;
        if (inum == 0 || inum >= dsb.ninodes ||
            di[i].type != static_cast<std::uint16_t>(InodeKind::Free)) {
          continue;
        }
        out.inodes += 1;
        out.ialloc_cursor = std::min(out.ialloc_cursor, inum);
      }
    }));
  }
  out.balloc_cursors.resize(dsb.nbitmap);
  for (std::uint32_t b = 0; b < dsb.nbitmap; ++b) {
    const BitmapRange r = bitmap_range(dsb, b);
    std::uint32_t& cursor = out.balloc_cursors[b];
    cursor = r.end;
    BSIM_TRY(read(dsb.bmapstart + b, [&](std::span<const std::byte> bits) {
      for (std::uint32_t i = 0; i < kBitsPerBlock; ++i) {
        const std::uint64_t blockno =
            static_cast<std::uint64_t>(b) * kBitsPerBlock + i;
        if (blockno >= dsb.size) break;
        if ((bits[i / 8] & (std::byte{1} << (i % 8))) == std::byte{0}) {
          out.blocks += 1;
          if (i >= r.begin) cursor = std::min(cursor, i);
        }
      }
    }));
  }
  return kern::Err::Ok;
}

/// Log header block (commit record). n == 0 means the log is empty.
struct LogHeader {
  std::uint32_t n = 0;
  std::uint32_t blocks[kLogSize] = {};
};
static_assert(sizeof(LogHeader) <= kBlockSize);

inline constexpr std::uint32_t kRootInum = 1;

/// Compute geometry for a device and write a fresh, empty file system
/// (untimed; the paper's mkfs runs before the measured interval).
DiskSuperblock mkfs(blk::BlockDevice& dev, std::uint32_t ninodes = 65536);

/// Read the superblock (untimed, for tools/tests).
DiskSuperblock read_superblock(blk::BlockDevice& dev);

}  // namespace bsim::xv6
