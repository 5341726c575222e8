// On-disk format of the ext4-flavoured comparator (paper §6: "we therefore
// also compare against ext4 ... mounted with the data=journal option").
//
// This is not a byte-compatible ext4; it is a commercial-grade-shaped FS
// reproducing the mechanisms that make ext4 faster than xv6 in the paper's
// macrobenchmarks:
//   - block groups with bitmap allocators and per-group free counters
//     (no linear inode-table scans),
//   - a JBD2-style journal with in-memory running transactions and group
//     commit (metadata ops do not synchronously write),
//   - data=journal: file data goes through the journal like xv6's log,
//   - batched ->writepages writeback.
//
// Layout (4 KiB blocks):
//   [0 boot | 1 super | GDT blocks | journal | group 0 | group 1 | ...]
//   each group: [block bitmap | inode bitmap | inode table | data]
//   The last group may be short: it covers the device's tail when that
//   holds its inode table and 16 blocks more (GroupDesc::data_blocks).
#pragma once

#include <cstdint>
#include <cstring>

#include "blockdev/device.h"

namespace bsim::ext4 {

inline constexpr std::uint32_t kBlockSize = blk::kBlockSize;
inline constexpr std::uint32_t kMagic = 0xEF53'2021;

inline constexpr std::uint32_t kNDirect = 12;
inline constexpr std::uint32_t kNIndirect = kBlockSize / 4;
inline constexpr std::uint64_t kMaxFileBlocks =
    kNDirect + kNIndirect +
    static_cast<std::uint64_t>(kNIndirect) * kNIndirect;

/// On-disk inode: 128 bytes (ext4 uses 256; the difference is immaterial
/// to any measured behaviour), 32 per block.
struct Dinode {
  std::uint16_t type = 0;  // 0 free, 1 dir, 2 file
  std::uint16_t nlink = 0;
  std::uint32_t mode = 0;
  std::uint64_t size = 0;
  std::uint32_t addrs[kNDirect] = {};
  std::uint32_t indirect = 0;
  std::uint32_t dindirect = 0;
  std::uint8_t pad[56] = {};
};
static_assert(sizeof(Dinode) == 128);
inline constexpr std::uint32_t kInodesPerBlock = kBlockSize / sizeof(Dinode);

/// Directory entry, ext2-style fixed slots for simplicity.
inline constexpr std::size_t kDirNameLen = 28;
struct Dirent {
  std::uint32_t inum = 0;
  char name[kDirNameLen] = {};
};
static_assert(sizeof(Dirent) == 32);
inline constexpr std::uint32_t kDirentsPerBlock = kBlockSize / sizeof(Dirent);

struct GroupDesc {
  std::uint32_t block_bitmap = 0;   // block number
  std::uint32_t inode_bitmap = 0;
  std::uint32_t inode_table = 0;    // first inode-table block
  std::uint32_t data_start = 0;
  std::uint32_t data_blocks = 0;
  std::uint32_t free_blocks = 0;
  std::uint32_t free_inodes = 0;
  std::uint32_t pad = 0;
};
inline constexpr std::uint32_t kGroupDescsPerBlock =
    kBlockSize / sizeof(GroupDesc);

struct Super {
  std::uint32_t magic = 0;
  std::uint32_t size = 0;            // total blocks
  std::uint32_t ngroups = 0;
  std::uint32_t blocks_per_group = 0;
  std::uint32_t inodes_per_group = 0;
  std::uint32_t gdt_start = 0;
  std::uint32_t gdt_blocks = 0;
  std::uint32_t jstart = 0;          // journal region
  std::uint32_t jblocks = 0;
  std::uint32_t first_group = 0;
};

/// Journal block tags: a committed transaction is
///   [descriptor(seq, n, home blocknos...)] [n data blocks] [commit(seq)]
inline constexpr std::uint32_t kJDescMagic = 0x4A44'4553;
inline constexpr std::uint32_t kJCommitMagic = 0x4A43'4F4D;
struct JDescriptor {
  std::uint32_t magic = 0;
  std::uint32_t seq = 0;
  std::uint32_t n = 0;
  std::uint32_t blocks[kBlockSize / 4 - 3] = {};
};
static_assert(sizeof(JDescriptor) == kBlockSize);
struct JCommit {
  std::uint32_t magic = 0;
  std::uint32_t seq = 0;
};

inline constexpr std::uint32_t kRootInum = 1;

/// Format a device (untimed). Returns the superblock.
Super mkfs(blk::BlockDevice& dev, std::uint32_t inodes_per_group = 8192);

}  // namespace bsim::ext4
