#include <algorithm>
#include <array>
#include <stdexcept>

#include "ext4/layout.h"

namespace bsim::ext4 {

namespace {

void put(blk::BlockDevice& dev, std::uint64_t blockno, const void* src,
         std::size_t len) {
  std::array<std::byte, kBlockSize> buf{};
  std::memcpy(buf.data(), src, len);
  dev.write_untimed(blockno, buf);
}

void set_bit(std::array<std::byte, kBlockSize>& bits, std::uint32_t i) {
  bits[i / 8] |= std::byte{1} << (i % 8);
}

}  // namespace

Super mkfs(blk::BlockDevice& dev, std::uint32_t inodes_per_group) {
  constexpr std::uint32_t kBitsPerBlock = kBlockSize * 8;
  Super s;
  s.magic = kMagic;
  s.size = static_cast<std::uint32_t>(dev.nblocks());
  s.blocks_per_group = kBitsPerBlock;  // 128 MiB groups
  s.inodes_per_group = inodes_per_group;
  s.gdt_start = 2;
  s.jstart = 0;
  s.jblocks = 4096;  // 16 MiB journal

  const std::uint32_t itable_blocks =
      (inodes_per_group + kInodesPerBlock - 1) / kInodesPerBlock;
  // Provisional layout to compute group count.
  std::uint32_t gdt_blocks = 1;
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint32_t first_group = s.gdt_start + gdt_blocks + s.jblocks;
    if (first_group + s.blocks_per_group > s.size) {
      // Small device: shrink to one partial group.
      s.blocks_per_group = s.size - first_group;
      if (s.blocks_per_group < itable_blocks + 16) {
        throw std::invalid_argument("device too small for ext4 mkfs");
      }
    }
    // Full groups, plus a short last group over the tail when the tail
    // holds its inode table and 16 blocks more, as ext4 formats one.
    const std::uint32_t span = s.size - first_group;
    s.ngroups = span / s.blocks_per_group;
    if (span % s.blocks_per_group >= itable_blocks + 16) s.ngroups += 1;
    gdt_blocks = (s.ngroups + kGroupDescsPerBlock - 1) / kGroupDescsPerBlock;
    s.gdt_blocks = gdt_blocks;
    s.jstart = s.gdt_start + gdt_blocks;
    s.first_group = s.jstart + s.jblocks;
  }

  put(dev, 1, &s, sizeof(s));

  // Zero the journal's first descriptor so recovery sees an empty journal.
  const std::array<std::byte, kBlockSize> zero{};
  dev.write_untimed(s.jstart, zero);

  // Groups.
  std::vector<GroupDesc> gds(s.ngroups);
  for (std::uint32_t g = 0; g < s.ngroups; ++g) {
    const std::uint32_t base = s.first_group + g * s.blocks_per_group;
    const std::uint32_t group_blocks =
        std::min(s.blocks_per_group, s.size - base);
    GroupDesc& gd = gds[g];
    gd.block_bitmap = base;
    gd.inode_bitmap = base + 1;
    gd.inode_table = base + 2;
    gd.data_start = base + 2 + itable_blocks;
    gd.data_blocks = group_blocks - 2 - itable_blocks;
    gd.free_blocks = gd.data_blocks;
    gd.free_inodes = inodes_per_group;

    // Block bitmap: metadata blocks of this group are in use.
    std::array<std::byte, kBlockSize> bbm{};
    for (std::uint32_t i = 0; i < 2 + itable_blocks; ++i) set_bit(bbm, i);
    dev.write_untimed(gd.block_bitmap, bbm);

    std::array<std::byte, kBlockSize> ibm{};
    if (g == 0) set_bit(ibm, 0);  // inum 0 is invalid
    dev.write_untimed(gd.inode_bitmap, ibm);

    for (std::uint32_t b = 0; b < itable_blocks; ++b) {
      dev.write_untimed(gd.inode_table + b, zero);
    }
  }

  // Root directory: inum 1 in group 0.
  {
    GroupDesc& g0 = gds[0];
    std::array<std::byte, kBlockSize> ibm{};
    dev.read_untimed(g0.inode_bitmap, ibm);
    set_bit(ibm, 0);
    set_bit(ibm, 1);
    dev.write_untimed(g0.inode_bitmap, ibm);
    g0.free_inodes -= 2;  // inum 0 (reserved) + root

    const std::uint32_t root_block = g0.data_start;
    std::array<std::byte, kBlockSize> bbm{};
    dev.read_untimed(g0.block_bitmap, bbm);
    set_bit(bbm, root_block - s.first_group);
    dev.write_untimed(g0.block_bitmap, bbm);
    g0.free_blocks -= 1;

    std::array<std::byte, kBlockSize> iblk{};
    auto* di = reinterpret_cast<Dinode*>(iblk.data());
    Dinode& root = di[kRootInum % kInodesPerBlock];
    root.type = 1;  // dir
    root.nlink = 2;
    root.mode = 0755;
    root.size = 2 * sizeof(Dirent);
    root.addrs[0] = root_block;
    dev.write_untimed(g0.inode_table + kRootInum / kInodesPerBlock, iblk);

    std::array<std::byte, kBlockSize> dblk{};
    auto* de = reinterpret_cast<Dirent*>(dblk.data());
    de[0].inum = kRootInum;
    std::strncpy(de[0].name, ".", kDirNameLen);
    de[1].inum = kRootInum;
    std::strncpy(de[1].name, "..", kDirNameLen);
    dev.write_untimed(root_block, dblk);
  }

  // Persist the GDT.
  for (std::uint32_t b = 0; b < s.gdt_blocks; ++b) {
    std::array<std::byte, kBlockSize> gblk{};
    const std::uint32_t first = b * kGroupDescsPerBlock;
    const std::uint32_t n =
        std::min<std::uint32_t>(kGroupDescsPerBlock, s.ngroups - first);
    std::memcpy(gblk.data(), gds.data() + first, n * sizeof(GroupDesc));
    dev.write_untimed(s.gdt_start + b, gblk);
  }
  return s;
}

}  // namespace bsim::ext4
