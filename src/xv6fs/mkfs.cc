#include <array>
#include <cassert>
#include <stdexcept>

#include "xv6fs/layout.h"

namespace bsim::xv6 {

namespace {

void put_block(blk::BlockDevice& dev, std::uint64_t blockno, const void* src,
               std::size_t len) {
  std::array<std::byte, kBlockSize> buf{};
  std::memcpy(buf.data(), src, len);
  dev.write_untimed(blockno, buf);
}

}  // namespace

DiskSuperblock mkfs(blk::BlockDevice& dev, std::uint32_t ninodes) {
  DiskSuperblock sb;
  sb.magic = kMagic;
  sb.size = static_cast<std::uint32_t>(dev.nblocks());
  sb.nlog = kLogSize + 1;
  sb.logstart = 2;
  sb.ninodes = ninodes;
  sb.inodestart = sb.logstart + sb.nlog;
  sb.ninitblocks = 1;  // the root's block; ialloc initialises the rest
  sb.nbitmap = (sb.size + kBitsPerBlock - 1) / kBitsPerBlock;
  sb.bmapstart = sb.inodestart + sb.ninodeblocks();
  sb.datastart = sb.bmapstart + sb.nbitmap;
  if (sb.datastart + 16 >= sb.size) {
    throw std::invalid_argument("device too small for xv6 file system");
  }
  sb.ndata = sb.size - sb.datastart;

  put_block(dev, 1, &sb, sizeof(sb));

  // Empty log.
  LogHeader lh;
  put_block(dev, sb.logstart, &lh, sizeof(lh));

  // Bitmap: mark metadata blocks (everything below datastart) in use.
  for (std::uint32_t b = 0; b < sb.nbitmap; ++b) {
    std::array<std::byte, kBlockSize> bits{};
    for (std::uint32_t i = 0; i < kBitsPerBlock; ++i) {
      const std::uint64_t blockno =
          static_cast<std::uint64_t>(b) * kBitsPerBlock + i;
      if (blockno < sb.datastart) {
        bits[i / 8] |= std::byte{1} << (i % 8);
      }
    }
    dev.write_untimed(sb.bmapstart + b, bits);
  }

  // Root directory: inode 1, containing "." and "..".
  const std::uint32_t root_data = sb.datastart;
  {
    // Mark the root's data block allocated.
    std::array<std::byte, kBlockSize> bits{};
    dev.read_untimed(sb.bitmap_block(root_data), bits);
    bits[(root_data % kBitsPerBlock) / 8] |=
        std::byte{1} << (root_data % kBitsPerBlock % 8);
    dev.write_untimed(sb.bitmap_block(root_data), bits);
  }
  {
    // The one initialised inode block: the root, every other inode free.
    std::array<std::byte, kBlockSize> iblock{};
    auto* dinodes = reinterpret_cast<Dinode*>(iblock.data());
    Dinode& root = dinodes[kRootInum % kInodesPerBlock];
    root.type = static_cast<std::uint16_t>(InodeKind::Dir);
    root.nlink = 2;  // "." and the (virtual) parent link
    root.mode = 0755;
    root.size = 2 * sizeof(Dirent);
    root.addrs[0] = root_data;
    dev.write_untimed(sb.inode_block(kRootInum), iblock);
  }
  {
    std::array<std::byte, kBlockSize> dblock{};
    auto* de = reinterpret_cast<Dirent*>(dblock.data());
    de[0].inum = kRootInum;
    std::strncpy(de[0].name, ".", kDirNameLen);
    de[1].inum = kRootInum;
    std::strncpy(de[1].name, "..", kDirNameLen);
    dev.write_untimed(root_data, dblock);
  }
  return sb;
}

DiskSuperblock read_superblock(blk::BlockDevice& dev) {
  std::array<std::byte, kBlockSize> buf{};
  dev.read_untimed(1, buf);
  DiskSuperblock sb;
  std::memcpy(&sb, buf.data(), sizeof(sb));
  return sb;
}

}  // namespace bsim::xv6
