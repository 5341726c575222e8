// The kernel facade: registered file system types, block devices, the
// mount table, processes with file descriptor tables, and the syscall
// surface the workloads drive. Every syscall charges the user/kernel
// crossing and VFS dispatch costs from the cost model.
//
// Block devices are exposed as "/dev/<name>" files so a userspace file
// system daemon (the FUSE deployment, §6.2) can open its backing disk with
// O_DIRECT exactly like the paper's baseline does.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blockdev/device.h"
#include "kernel/vfs.h"

namespace bsim::kern {

class Kernel;

/// One open file description.
struct OpenFile {
  SuperBlock* sb = nullptr;
  Inode* inode = nullptr;       // null for device files
  blk::BlockDevice* bdev = nullptr;  // set for /dev files
  FileHandle fh;
  std::uint64_t pos = 0;
  int flags = 0;
};

/// A process: a file-descriptor table.
class Process {
 public:
  explicit Process(Kernel& k) : kernel_(&k) {}
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] Kernel& kernel() { return *kernel_; }

 private:
  friend class Kernel;
  Kernel* kernel_;
  std::vector<std::unique_ptr<OpenFile>> fds_;
};

enum class Whence { Set, Cur, End };

class Kernel {
 public:
  Kernel();
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ---- configuration (not syscalls; untimed) ----
  /// Register a file system type (insmod): `name` mounts via `fill_super`.
  void register_fs(std::string name, FillSuper fill_super);
  blk::BlockDevice& add_device(std::string name, blk::DeviceParams params);
  /// Register a prebuilt (possibly aggregate) device under `name`.
  blk::BlockDevice& add_device(std::string name,
                               std::unique_ptr<blk::BlockDevice> dev);
  /// Build the volume a mount-option string describes (blockdev/opts.h)
  /// and expose it as one device: plain, RAID0 (`stripe=`), RAID1
  /// (`mirror=`), RAID5 (`parity=`), or a stripe of mirrors (RAID10) or
  /// of parity volumes (RAID50). Parity beats mirror when both are given.
  /// `params.nblocks` is the LOGICAL volume size; member sizes derive from
  /// it. Tokens the volume does not use are ignored, so the same string
  /// mounts the file system. Throws std::invalid_argument when `opts` does
  /// not parse.
  blk::BlockDevice& add_volume(std::string name, std::string_view opts,
                               blk::DeviceParams params);
  [[nodiscard]] blk::BlockDevice* device(std::string_view name);
  /// Reverse lookup (used by drivers that need the /dev path of a device).
  [[nodiscard]] std::string device_name_of(const blk::BlockDevice* dev) const;
  [[nodiscard]] SuperBlock* sb_at(std::string_view mountpoint);
  [[nodiscard]] Process& proc() { return *default_proc_; }
  std::unique_ptr<Process> new_process();

  // ---- mount management ----
  /// Parse `opts` (Inval when it does not parse), arm the device tree
  /// from them, build the superblock and hand it, with the typed
  /// blk::MountOpts, to the type's FillSuper. No layer below parses the
  /// string again.
  Err mount(std::string_view fstype, std::string_view devname,
            std::string_view mountpoint, std::string_view opts = "");
  /// Tear the mount down: sync_all, the file system's put_super, then
  /// destroy its state and the superblock.
  Err umount(std::string_view mountpoint);

  // ---- syscalls ----
  Result<int> open(Process& p, std::string_view path, int flags,
                   std::uint32_t mode = 0644);
  Err close(Process& p, int fd);
  Result<std::uint64_t> read(Process& p, int fd, std::span<std::byte> out);
  Result<std::uint64_t> write(Process& p, int fd,
                              std::span<const std::byte> in);
  Result<std::uint64_t> pread(Process& p, int fd, std::span<std::byte> out,
                              std::uint64_t off);
  Result<std::uint64_t> pwrite(Process& p, int fd,
                               std::span<const std::byte> in,
                               std::uint64_t off);
  Result<std::uint64_t> lseek(Process& p, int fd, std::int64_t off,
                              Whence whence);
  Err fsync(Process& p, int fd, bool datasync = false);
  Err mkdir(Process& p, std::string_view path, std::uint32_t mode = 0755);
  Err unlink(Process& p, std::string_view path);
  Err rmdir(Process& p, std::string_view path);
  Err rename(Process& p, std::string_view from, std::string_view to);
  Result<Stat> stat(Process& p, std::string_view path);
  Err truncate(Process& p, std::string_view path, std::uint64_t size);
  Result<std::vector<DirEnt>> readdir(Process& p, std::string_view path);
  Result<StatFs> statfs(Process& p, std::string_view path);
  Err sync(Process& p);

  /// Resolve a path to a referenced inode (internal + test use; timed).
  Result<Inode*> resolve(std::string_view path, SuperBlock** sb_out = nullptr);

  // ---- unified stats snapshot (untimed; see kernel/stats_snapshot.cc) ----
  /// One JSON document covering every device tree (DeviceStats with
  /// latency histograms, RequestQueueStats, volume stats) and
  /// every mount (buffer cache, page cache, flusher, plus whatever the
  /// file system registered via SuperBlock::register_stats).
  [[nodiscard]] std::string dump_stats();
  /// Same, written to `path` (bench exit hook).
  Err dump_stats_to(const std::string& path);

 private:
  // IoUring executes batched ops through the private file helpers so it
  // pays per-SQE dispatch instead of a full syscall per op (see uring.h).
  friend class IoUring;

  struct Mount {
    std::string mountpoint;
    std::unique_ptr<SuperBlock> sb;
    std::string devname;
  };

  struct PathTarget {
    SuperBlock* sb = nullptr;
    Inode* dir = nullptr;      // referenced parent inode
    std::string last;          // final component
  };

  void charge_syscall();
  Result<Mount*> mount_for(std::string_view path, std::string_view* rest);
  /// One path component: `name` in `dir`, from the dcache, else through
  /// ->lookup (then cached). Returns the child referenced; `dir` keeps
  /// its reference.
  Result<Inode*> lookup_child(SuperBlock& sb, Inode& dir,
                              std::string_view name);
  /// Walk to the parent of the final component. Caller iputs `dir`.
  Result<PathTarget> walk_parent(std::string_view path);
  /// Walk the full path to an inode (referenced).
  Result<Inode*> walk_full(std::string_view path, SuperBlock** sb_out);
  /// open(O_CREAT)'s one walk (Linux's path_openat/lookup_open): walk to
  /// the parent, look the final component up and, if it is absent,
  /// create it under the parent. Returns the inode referenced;
  /// `*created` says whether this call made it.
  Result<Inode*> walk_create(std::string_view path, std::uint32_t mode,
                             SuperBlock** sb_out, bool* created);
  Result<OpenFile*> file_for(Process& p, int fd);
  /// fsync(2) body, minus the syscall charge (shared with IoUring).
  Err do_fsync(OpenFile& f, bool datasync);
  Result<std::uint64_t> file_read(OpenFile& f, std::span<std::byte> out,
                                  std::uint64_t off);
  Result<std::uint64_t> file_write(OpenFile& f, std::span<const std::byte> in,
                                   std::uint64_t off);
  Result<std::uint64_t> bdev_read(OpenFile& f, std::span<std::byte> out,
                                  std::uint64_t off);
  Result<std::uint64_t> bdev_write(OpenFile& f, std::span<const std::byte> in,
                                   std::uint64_t off);

  std::unordered_map<std::string, FillSuper> fs_types_;
  std::unordered_map<std::string, std::unique_ptr<blk::BlockDevice>> devices_;
  std::vector<Mount> mounts_;  // kept sorted by mountpoint length, desc
  std::unique_ptr<Process> default_proc_;
};

}  // namespace bsim::kern
