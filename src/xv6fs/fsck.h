// Offline consistency checker for the xv6 on-disk format (fsck).
//
// Used by the crash-consistency property tests: after a simulated power
// loss and journal recovery, the image must pass every structural
// invariant — valid superblock, every reachable block allocated exactly
// once and marked in the bitmap, no bitmap leaks, directory entries
// pointing at live inodes, and link counts matching directory references.
// Only the initialised inode blocks are read: the superblock's count must
// fit the inode table, and a directory entry naming an inode past it means
// the count fell behind an allocation.
#pragma once

#include <string>
#include <vector>

#include "blockdev/device.h"

namespace bsim::xv6 {

struct FsckReport {
  bool ok = false;
  std::vector<std::string> errors;
  std::uint64_t files = 0;
  std::uint64_t dirs = 0;
  std::uint64_t used_data_blocks = 0;

  [[nodiscard]] std::string summary() const;
};

/// Check the image on `dev` (untimed; reads raw device state). The log
/// must be empty — run recovery (mount + unmount) first.
FsckReport fsck(blk::BlockDevice& dev);

}  // namespace bsim::xv6
