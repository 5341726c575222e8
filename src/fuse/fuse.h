// The FUSE deployment (paper §2.2, §6.2): the same file system served from
// "userspace" behind the FUSE transport.
//
// Architecture mirrors real FUSE:
//   - FuseModule is the kernel driver: it reuses the shared VFS-
//     interposition core (BentoModule) — historically accurate, since the
//     paper built BentoFS out of the FUSE kernel module — but every call
//     into the file system is a *request*: marshalled, queued to the
//     daemon, and replied to, costing two user/kernel crossings plus
//     per-page payload copies. The writeback cache is on (like the paper's
//     modified fuse-rs), so cached reads/writes stay in the kernel.
//   - The daemon side runs the identical bento::FileSystem implementation
//     over a UserBlockBackend: block I/O goes through a /dev file opened
//     O_DIRECT, and every batch of block writes costs a pwrite per block
//     plus an fsync of the whole disk file (§6.4) — the behaviour that
//     produces FUSE's collapse on metadata- and sync-heavy workloads.
#pragma once

#include <memory>
#include <string>

#include "bento/bentofs.h"
#include "bento/user.h"
#include "fuse/extfuse.h"

namespace bsim::fuse {

struct FuseConnStats {
  std::uint64_t requests = 0;
  std::uint64_t payload_bytes = 0;
};

/// The FUSE kernel driver for one mount.
class FuseModule final : public bento::BentoModule {
 public:
  FuseModule(kern::SuperBlock& sb, std::unique_ptr<bento::FileSystem> fs,
             const blk::MountOpts& opts,
             std::unique_ptr<bento::BlockBackend> backend,
             std::unique_ptr<kern::Process> daemon, int devfd);
  /// The daemon closes its disk.
  ~FuseModule() override;

  [[nodiscard]] const FuseConnStats& conn_stats() const { return conn_; }

  /// Attach an ExtFUSE eBPF filter (paper §2.2, [5]): verified programs
  /// that answer lookup/getattr from in-kernel BPF maps, skipping the
  /// daemon round trip on a hit.
  void attach_extfuse(std::unique_ptr<ExtFuseFilter> filter) {
    filter_ = std::move(filter);
  }
  [[nodiscard]] ExtFuseFilter* extfuse() { return filter_.get(); }

  /// FUSE caps write requests at max_pages (128 KiB default); large
  /// writeback runs are split into multiple requests.
  kern::Err writepages(kern::Inode& inode,
                       std::span<const kern::PageRun> runs,
                       std::size_t& completed_runs) override;

  /// Readahead is capped the same way: a run becomes ceil(n/max_pages)
  /// FUSE READ requests (each one still a daemon round trip).
  kern::Err readpages(kern::Inode& inode, std::uint64_t first_pgoff,
                      std::span<const std::span<std::byte>> pages) override;

  // ---- ExtFUSE interception (fast path + invalidation) ----
  kern::Result<kern::Inode*> lookup(kern::Inode& dir,
                              std::string_view name) override;
  kern::Err getattr(kern::Inode& inode, kern::Stat& out) override;
  kern::Err setattr(kern::Inode& inode, const kern::SetAttr& attr) override;
  kern::Result<kern::Inode*> create(kern::Inode& dir, std::string_view name,
                              std::uint32_t mode) override;
  kern::Result<kern::Inode*> mkdir(kern::Inode& dir, std::string_view name,
                             std::uint32_t mode) override;
  kern::Err unlink(kern::Inode& dir, std::string_view name) override;
  kern::Err rmdir(kern::Inode& dir, std::string_view name) override;
  kern::Err rename(kern::Inode& old_dir, std::string_view old_name,
                   kern::Inode& new_dir, std::string_view new_name) override;
  kern::Result<std::uint64_t> write(kern::Inode& inode, kern::FileHandle& fh,
                              std::uint64_t off,
                              std::span<const std::byte> in) override;

  static constexpr std::size_t kMaxPages = 32;

 protected:
  /// Request transport: marshal + two crossings + payload copies.
  void channel(std::size_t payload_in, std::size_t payload_out) override;

 private:
  /// Daemon-reply install of a freshly materialized entry.
  void install_from(kern::Inode& inode, kern::Ino parent,
                    std::string_view name);

  std::unique_ptr<kern::Process> daemon_;
  int devfd_;
  std::unique_ptr<ExtFuseFilter> filter_;
  FuseConnStats conn_;
};

/// Register a userspace (FUSE) file system with the kernel. The factory's
/// FileSystem runs in a daemon process over O_DIRECT block I/O.
void register_fuse_fs(kern::Kernel& kernel, std::string name,
                      bento::FsFactory factory);

}  // namespace bsim::fuse
