#include "xv6fs/fsck.h"

#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "xv6fs/layout.h"

namespace bsim::xv6 {

namespace {

class Checker {
 public:
  explicit Checker(blk::BlockDevice& dev) : dev_(dev) {}

  FsckReport run() {
    read_super();
    if (!report_.errors.empty()) return finish();
    check_log_empty();
    scan_inodes();
    walk_directories();
    check_link_counts();
    check_bitmap();
    return finish();
  }

 private:
  void fail(std::string msg) { report_.errors.push_back(std::move(msg)); }

  FsckReport finish() {
    report_.ok = report_.errors.empty();
    return report_;
  }

  void read_block(std::uint64_t blockno, std::byte* out) {
    dev_.read_untimed(blockno, {out, kBlockSize});
  }

  void read_super() {
    std::byte buf[kBlockSize];
    read_block(1, buf);
    std::memcpy(&sb_, buf, sizeof(sb_));
    if (sb_.magic != kMagic) fail("bad superblock magic");
    if (sb_.size > dev_.nblocks()) fail("superblock size beyond device");
    if (!sb_.ninitblocks_valid()) {
      fail("superblock ninitblocks=" + std::to_string(sb_.ninitblocks) +
           " outside 1.." + std::to_string(sb_.ninodeblocks()));
    }
  }

  void check_log_empty() {
    std::byte buf[kBlockSize];
    read_block(sb_.logstart, buf);
    LogHeader lh;
    std::memcpy(&lh, buf, sizeof(lh));
    if (lh.n != 0) fail("log not empty (recovery was not run?)");
  }

  /// Claim a data block for an inode; detects double references.
  void claim(std::uint32_t blockno, std::uint32_t inum) {
    if (blockno < sb_.datastart || blockno >= sb_.size) {
      fail("inode " + std::to_string(inum) + " references block " +
           std::to_string(blockno) + " outside the data area");
      return;
    }
    auto [it, fresh] = block_owner_.emplace(blockno, inum);
    if (!fresh) {
      fail("block " + std::to_string(blockno) + " referenced by inodes " +
           std::to_string(it->second) + " and " + std::to_string(inum));
    }
  }

  void scan_inode_blocks(std::uint32_t inum, const Dinode& d) {
    std::uint64_t expected_max =
        (d.size + kBlockSize - 1) / kBlockSize;
    std::uint64_t found = 0;
    for (std::uint32_t i = 0; i < kNDirect; ++i) {
      if (d.addrs[i] != 0) {
        claim(d.addrs[i], inum);
        found += 1;
      }
    }
    if (d.indirect != 0) {
      claim(d.indirect, inum);
      std::byte buf[kBlockSize];
      read_block(d.indirect, buf);
      const auto* e = reinterpret_cast<const std::uint32_t*>(buf);
      for (std::uint32_t i = 0; i < kNIndirect; ++i) {
        if (e[i] != 0) {
          claim(e[i], inum);
          found += 1;
        }
      }
    }
    if (d.dindirect != 0) {
      claim(d.dindirect, inum);
      std::byte l1[kBlockSize];
      read_block(d.dindirect, l1);
      const auto* l1e = reinterpret_cast<const std::uint32_t*>(l1);
      for (std::uint32_t o = 0; o < kNIndirect; ++o) {
        if (l1e[o] == 0) continue;
        claim(l1e[o], inum);
        std::byte l2[kBlockSize];
        read_block(l1e[o], l2);
        const auto* l2e = reinterpret_cast<const std::uint32_t*>(l2);
        for (std::uint32_t i = 0; i < kNIndirect; ++i) {
          if (l2e[i] != 0) {
            claim(l2e[i], inum);
            found += 1;
          }
        }
      }
    }
    if (found > expected_max) {
      // Sparse files can have fewer; never more than size implies.
      fail("inode " + std::to_string(inum) + " has " + std::to_string(found) +
           " data blocks but size implies at most " +
           std::to_string(expected_max));
    }
  }

  /// Every inode of the initialised blocks; the rest of the table holds
  /// only free inodes by definition, so it is not read.
  void scan_inodes() {
    alignas(Dinode) std::byte buf[kBlockSize];
    for (std::uint32_t inum = 1;
         inum < sb_.ninodes && sb_.inode_initialised(inum); ++inum) {
      if (inum == 1 || inum % kInodesPerBlock == 0) {
        read_block(sb_.inode_block(inum), buf);
      }
      const Dinode& d =
          reinterpret_cast<const Dinode*>(buf)[inum % kInodesPerBlock];
      if (d.type == static_cast<std::uint16_t>(InodeKind::Free)) continue;
      if (d.type != static_cast<std::uint16_t>(InodeKind::Dir) &&
          d.type != static_cast<std::uint16_t>(InodeKind::File)) {
        fail("inode " + std::to_string(inum) + " has invalid type " +
             std::to_string(d.type));
        continue;
      }
      live_[inum] = d;
      if (d.type == static_cast<std::uint16_t>(InodeKind::Dir)) {
        report_.dirs += 1;
      } else {
        report_.files += 1;
      }
      scan_inode_blocks(inum, d);
    }
  }

  std::vector<Dirent> read_dir(std::uint32_t inum, const Dinode& d) {
    std::vector<Dirent> out;
    std::byte ind[kBlockSize];
    const auto* inde = reinterpret_cast<const std::uint32_t*>(ind);
    bool have_ind = false;
    for (std::uint64_t off = 0; off < d.size; off += kBlockSize) {
      const std::uint64_t bn = off / kBlockSize;
      std::uint32_t addr = 0;
      if (bn < kNDirect) {
        addr = d.addrs[bn];
      } else if (bn < kNDirect + kNIndirect && d.indirect != 0) {
        if (!have_ind) {
          read_block(d.indirect, ind);
          have_ind = true;
        }
        addr = inde[bn - kNDirect];
      }
      if (addr == 0) continue;
      std::byte buf[kBlockSize];
      read_block(addr, buf);
      const auto* de = reinterpret_cast<const Dirent*>(buf);
      const std::uint64_t nents = std::min<std::uint64_t>(
          kDirentsPerBlock,
          (d.size - off + sizeof(Dirent) - 1) / sizeof(Dirent));
      for (std::uint64_t i = 0; i < nents; ++i) {
        if (de[i].inum != 0) out.push_back(de[i]);
      }
    }
    (void)inum;
    return out;
  }

  void walk_directories() {
    if (!live_.contains(kRootInum)) {
      fail("root inode missing");
      return;
    }
    std::set<std::uint32_t> visited;
    std::vector<std::uint32_t> stack{kRootInum};
    while (!stack.empty()) {
      const std::uint32_t inum = stack.back();
      stack.pop_back();
      if (!visited.insert(inum).second) continue;
      const Dinode& d = live_.at(inum);
      for (const Dirent& de : read_dir(inum, d)) {
        const std::string name(de.name, strnlen(de.name, kDirNameLen));
        auto it = live_.find(de.inum);
        if (de.inum < sb_.ninodes && !sb_.inode_initialised(de.inum)) {
          fail("dirent '" + name + "' in dir " + std::to_string(inum) +
               " points to inode " + std::to_string(de.inum) +
               " past the initialised inode blocks");
          continue;
        }
        if (it == live_.end()) {
          fail("dirent '" + name + "' in dir " + std::to_string(inum) +
               " points to free inode " + std::to_string(de.inum));
          continue;
        }
        if (name == ".") {
          if (de.inum != inum) fail("'.' of dir " + std::to_string(inum) +
                                    " points elsewhere");
          continue;
        }
        if (name == "..") continue;
        refs_[de.inum] += 1;
        if (it->second.type == static_cast<std::uint16_t>(InodeKind::Dir)) {
          parent_of_[de.inum] = inum;
          stack.push_back(de.inum);
        }
      }
    }
    for (const auto& [inum, d] : live_) {
      if (!visited.contains(inum) &&
          d.type == static_cast<std::uint16_t>(InodeKind::Dir)) {
        fail("directory inode " + std::to_string(inum) +
             " unreachable from root");
      }
      if (!visited.contains(inum) &&
          d.type == static_cast<std::uint16_t>(InodeKind::File) &&
          refs_[inum] == 0 && d.nlink > 0) {
        fail("file inode " + std::to_string(inum) +
             " has nlink but no directory entry");
      }
    }
  }

  void check_link_counts() {
    for (const auto& [inum, d] : live_) {
      if (d.type == static_cast<std::uint16_t>(InodeKind::File)) {
        const std::uint32_t expect = refs_[inum];
        // nlink 0 with no refs is a legal post-crash orphan candidate only
        // if unreachable; open-but-unlinked does not survive remount.
        if (d.nlink != expect) {
          fail("file inode " + std::to_string(inum) + " nlink=" +
               std::to_string(d.nlink) + " but " + std::to_string(expect) +
               " directory references");
        }
      } else {
        // dir: nlink = 2 ('.' + parent entry) + number of subdirectories.
        std::uint32_t subdirs = 0;
        for (const auto& [child, parent] : parent_of_) {
          if (parent == inum) subdirs += 1;
        }
        const std::uint32_t expect = 2 + subdirs;
        if (inum != kRootInum && d.nlink != expect) {
          fail("dir inode " + std::to_string(inum) + " nlink=" +
               std::to_string(d.nlink) + " expected " +
               std::to_string(expect));
        }
      }
    }
  }

  void check_bitmap() {
    for (std::uint32_t blockno = sb_.datastart; blockno < sb_.size;
         ++blockno) {
      std::byte buf[kBlockSize];
      // Read each bitmap block once (cache the current one).
      const std::uint32_t bmb = sb_.bitmap_block(blockno);
      if (bmb != cached_bitmap_block_) {
        read_block(bmb, cached_bitmap_);
        cached_bitmap_block_ = bmb;
      }
      (void)buf;
      const std::uint32_t bit = blockno % kBitsPerBlock;
      const bool marked =
          (cached_bitmap_[bit / 8] & (std::byte{1} << (bit % 8))) !=
          std::byte{0};
      const bool referenced = block_owner_.contains(blockno);
      if (referenced && !marked) {
        fail("block " + std::to_string(blockno) +
             " in use but free in bitmap");
      }
      if (!referenced && marked) {
        fail("block " + std::to_string(blockno) +
             " marked allocated but unreferenced (leak)");
      }
      if (referenced) report_.used_data_blocks += 1;
    }
  }

  blk::BlockDevice& dev_;
  DiskSuperblock sb_;
  FsckReport report_;
  std::map<std::uint32_t, Dinode> live_;          // inum -> dinode
  std::map<std::uint32_t, std::uint32_t> block_owner_;
  std::map<std::uint32_t, std::uint32_t> refs_;   // inum -> dirent refs
  std::map<std::uint32_t, std::uint32_t> parent_of_;
  std::uint32_t cached_bitmap_block_ = 0;
  std::byte cached_bitmap_[kBlockSize] = {};
};

}  // namespace

std::string FsckReport::summary() const {
  std::ostringstream os;
  os << (ok ? "clean" : "INCONSISTENT") << ": " << files << " files, " << dirs
     << " dirs, " << used_data_blocks << " data blocks";
  for (const auto& e : errors) os << "\n  - " << e;
  return os.str();
}

FsckReport fsck(blk::BlockDevice& dev) { return Checker(dev).run(); }

}  // namespace bsim::xv6
