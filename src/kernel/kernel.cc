#include "kernel/kernel.h"

#include <cassert>
#include <optional>
#include <stdexcept>

#include "blockdev/mirrored.h"
#include "blockdev/opts.h"
#include "blockdev/parity.h"
#include "blockdev/striped.h"
#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::kern {

namespace {

/// Split a relative path into components (no leading '/').
std::vector<std::string_view> split_components(std::string_view rest) {
  std::vector<std::string_view> parts;
  std::size_t i = 0;
  while (i < rest.size()) {
    while (i < rest.size() && rest[i] == '/') ++i;
    std::size_t j = i;
    while (j < rest.size() && rest[j] != '/') ++j;
    if (j > i) parts.push_back(rest.substr(i, j - i));
    i = j;
  }
  return parts;
}

/// The one teardown, for umount and for a mount whose fill_super failed
/// (Linux's kill_block_super): write back what the mount holds and let the
/// file system release it, then destroy its state and the superblock. A
/// failed fill_super left no state, so there is nothing to write back.
void kill_super(std::unique_ptr<SuperBlock> sb) {
  if (sb->s_op != nullptr) {
    sb->sync_all();
    sb->s_op->put_super(*sb);
  }
}

}  // namespace

Kernel::Kernel() { default_proc_ = std::make_unique<Process>(*this); }

Kernel::~Kernel() {
  // Unmount longest mountpoint first; file systems flush themselves.
  for (auto& m : mounts_) kill_super(std::move(m.sb));
}

void Kernel::register_fs(std::string name, FillSuper fill_super) {
  fs_types_[std::move(name)] = std::move(fill_super);
}

blk::BlockDevice& Kernel::add_device(std::string name,
                                     blk::DeviceParams params) {
  return add_device(std::move(name), std::make_unique<blk::BlockDevice>(params));
}

blk::BlockDevice& Kernel::add_device(std::string name,
                                     std::unique_ptr<blk::BlockDevice> dev) {
  auto* raw = dev.get();
  devices_[std::move(name)] = std::move(dev);
  return *raw;
}

blk::BlockDevice& Kernel::add_volume(std::string name, std::string_view opts,
                                     blk::DeviceParams params) {
  const std::optional<blk::MountOpts> mo = blk::parse_mount_opts(opts);
  if (!mo) throw std::invalid_argument("bad volume options");
  blk::MirrorParams mp;
  mp.nmirrors = mo->mirror;
  blk::ParityParams pp;
  pp.ndata = mo->parity;
  pp.chunk_blocks = mo->chunk;
  // One redundancy scheme per leaf: parity beats mirror.
  auto leaf = [&](blk::DeviceParams p) -> std::unique_ptr<blk::BlockDevice> {
    if (pp.ndata >= 2) {
      return std::make_unique<blk::ParityDevice>(
          pp, blk::ParityDevice::member_shape(pp, p));
    }
    if (mp.nmirrors > 1) return std::make_unique<blk::MirroredDevice>(mp, p);
    return std::make_unique<blk::BlockDevice>(p);
  };
  if (mo->stripe <= 1) return add_device(std::move(name), leaf(params));
  // A stripe over leaves: the logical size splits evenly across members.
  params.nblocks /= mo->stripe;
  std::vector<std::unique_ptr<blk::BlockDevice>> members;
  members.reserve(mo->stripe);
  for (std::size_t i = 0; i < mo->stripe; ++i) members.push_back(leaf(params));
  const blk::StripeParams sp{mo->stripe, mo->chunk};
  return add_device(std::move(name), std::make_unique<blk::StripedDevice>(
                                         sp, std::move(members)));
}

blk::BlockDevice* Kernel::device(std::string_view name) {
  auto it = devices_.find(std::string{name});
  return it == devices_.end() ? nullptr : it->second.get();
}

std::string Kernel::device_name_of(const blk::BlockDevice* dev) const {
  for (const auto& [name, d] : devices_) {
    if (d.get() == dev) return name;
  }
  return {};
}

SuperBlock* Kernel::sb_at(std::string_view mountpoint) {
  for (auto& m : mounts_) {
    if (m.mountpoint == mountpoint) return m.sb.get();
  }
  return nullptr;
}

std::unique_ptr<Process> Kernel::new_process() {
  return std::make_unique<Process>(*this);
}

Err Kernel::mount(std::string_view fstype, std::string_view devname,
                  std::string_view mountpoint, std::string_view opts) {
  auto type = fs_types_.find(std::string{fstype});
  if (type == fs_types_.end()) return Err::NoDev;
  blk::BlockDevice* dev = device(devname);
  if (dev == nullptr) return Err::NoDev;
  if (mountpoint.empty() || mountpoint.front() != '/') return Err::Inval;
  if (sb_at(mountpoint) != nullptr) return Err::Busy;
  // Strict option parsing: a typo'd "mirrro=2" must fail the mount, not
  // silently mount unmirrored.
  const std::optional<blk::MountOpts> mo = blk::parse_mount_opts(opts);
  if (!mo) return Err::Inval;
  // Arm tracing and the bounded-retry policy on the device tree BEFORE the
  // file system mounts, so journal replay and the first metadata reads are
  // covered. Tracing never touches the simulated clock, so results stay
  // bit-identical with it on.
  if (mo->trace > 0) dev->arm_trace(mo->trace, std::string{devname});
  dev->set_retry_policy(mo->retry);

  auto sb = std::make_unique<SuperBlock>(*dev, /*buffer_cache_blocks=*/16384);
  sb->fs_name = fstype;
  // Error behaviour (ext4's errors= option, honored for every FS here):
  // what a journal abort / unrecoverable FS error does to the mount,
  // journal replay included.
  sb->errors_mode = mo->errors;
  auto fs = type->second(*sb, *mo);
  if (!fs.ok()) {
    kill_super(std::move(sb));
    return fs.error();
  }
  sb->s_op = std::move(fs.value());
  mounts_.push_back(
      Mount{std::string{mountpoint}, std::move(sb), std::string{devname}});
  std::sort(mounts_.begin(), mounts_.end(), [](const Mount& a, const Mount& b) {
    return a.mountpoint.size() > b.mountpoint.size();
  });
  return Err::Ok;
}

Err Kernel::umount(std::string_view mountpoint) {
  for (auto it = mounts_.begin(); it != mounts_.end(); ++it) {
    if (it->mountpoint == mountpoint) {
      kill_super(std::move(it->sb));
      mounts_.erase(it);
      return Err::Ok;
    }
  }
  return Err::NoEnt;
}

void Kernel::charge_syscall() {
  sim::charge(sim::costs().syscall + sim::costs().vfs_dispatch);
}

Result<Kernel::Mount*> Kernel::mount_for(std::string_view path,
                                         std::string_view* rest) {
  if (path.empty() || path.front() != '/') return Err::Inval;
  for (auto& m : mounts_) {  // sorted longest-first
    if (path == m.mountpoint) {
      *rest = "";
      return &m;
    }
    if (path.size() > m.mountpoint.size() && path.starts_with(m.mountpoint) &&
        path[m.mountpoint.size()] == '/') {
      *rest = path.substr(m.mountpoint.size() + 1);
      return &m;
    }
  }
  return Err::NoEnt;
}

Result<Inode*> Kernel::lookup_child(SuperBlock& sb, Inode& dir,
                                    std::string_view name) {
  Inode* child = sb.dcache_lookup(dir, name);
  if (child != nullptr) {
    sim::charge(sim::costs().path_component);
    return child;
  }
  sim::charge(sim::costs().path_component_miss);
  auto r = dir.iop->lookup(dir, name);
  if (!r.ok()) return r.error();
  sb.dcache_add(dir, name, r.value()->ino());
  return r.value();
}

Result<Kernel::PathTarget> Kernel::walk_parent(std::string_view path) {
  std::string_view rest;
  auto m = mount_for(path, &rest);
  if (!m.ok()) return m.error();
  SuperBlock* sb = m.value()->sb.get();

  auto parts = split_components(rest);
  if (parts.empty()) return Err::Inval;  // the mountpoint itself
  for (const auto& part : parts) {
    if (part.size() > kNameMax) return Err::NameTooLong;
  }

  Inode* dir = sb->root;
  SuperBlock::ihold(*dir);
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (dir->type != FileType::Directory) {
      sb->iput(dir);
      return Err::NotDir;
    }
    auto next = lookup_child(*sb, *dir, parts[i]);
    sb->iput(dir);
    if (!next.ok()) return next.error();
    dir = next.value();
  }
  if (dir->type != FileType::Directory) {
    sb->iput(dir);
    return Err::NotDir;
  }
  return PathTarget{sb, dir, std::string{parts.back()}};
}

Result<Inode*> Kernel::walk_full(std::string_view path, SuperBlock** sb_out) {
  std::string_view rest;
  auto m = mount_for(path, &rest);
  if (!m.ok()) return m.error();
  SuperBlock* sb = m.value()->sb.get();
  if (sb_out != nullptr) *sb_out = sb;

  Inode* cur = sb->root;
  SuperBlock::ihold(*cur);
  for (const auto& part : split_components(rest)) {
    if (part.size() > kNameMax) {
      sb->iput(cur);
      return Err::NameTooLong;
    }
    if (cur->type != FileType::Directory) {
      sb->iput(cur);
      return Err::NotDir;
    }
    auto next = lookup_child(*sb, *cur, part);
    sb->iput(cur);
    if (!next.ok()) return next.error();
    cur = next.value();
  }
  return cur;
}

Result<Inode*> Kernel::walk_create(std::string_view path, std::uint32_t mode,
                                   SuperBlock** sb_out, bool* created) {
  *created = false;
  auto target = walk_parent(path);
  if (!target.ok()) {
    // Inval: the mount point itself, which has no parent here and exists
    // (or a relative path, which walk_full rejects the same way).
    if (target.error() == Err::Inval) return walk_full(path, sb_out);
    return target.error();
  }
  auto& t = target.value();
  *sb_out = t.sb;
  // Looked up outside the parent's rwsem, which is held across ->create
  // alone: under it, every create in a shared directory (bench/bm mail)
  // would hold the lock longer for its other clients.
  auto found = lookup_child(*t.sb, *t.dir, t.last);
  if (found.ok() || found.error() != Err::NoEnt) {
    t.sb->iput(t.dir);
    return found;
  }
  if (t.sb->read_only()) {
    t.sb->iput(t.dir);
    return Err::RoFs;
  }
  t.dir->rwsem.lock();
  auto made = t.dir->iop->create(*t.dir, t.last, mode);
  t.dir->rwsem.unlock();
  if (made.ok()) {
    t.sb->dcache_add(*t.dir, t.last, made.value()->ino());
    *created = true;
  }
  t.sb->iput(t.dir);
  return made;
}

Result<Inode*> Kernel::resolve(std::string_view path, SuperBlock** sb_out) {
  return walk_full(path, sb_out);
}

Result<OpenFile*> Kernel::file_for(Process& p, int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= p.fds_.size() ||
      p.fds_[static_cast<std::size_t>(fd)] == nullptr) {
    return Err::BadF;
  }
  return p.fds_[static_cast<std::size_t>(fd)].get();
}

Result<int> Kernel::open(Process& p, std::string_view path, int flags,
                         std::uint32_t mode) {
  charge_syscall();

  auto of = std::make_unique<OpenFile>();
  of->flags = flags;

  // Device special files.
  if (path.starts_with("/dev/")) {
    blk::BlockDevice* dev = device(path.substr(5));
    if (dev == nullptr) return Err::NoEnt;
    of->bdev = dev;
  } else {
    SuperBlock* sb = nullptr;
    bool created = false;
    auto inode = (flags & kOCreat) != 0
                     ? walk_create(path, mode, &sb, &created)
                     : walk_full(path, &sb);
    if (!inode.ok()) return inode.error();
    if (!created) {
      if ((flags & kOCreat) != 0 && (flags & kOExcl) != 0) {
        sb->iput(inode.value());
        return Err::Exist;
      }
      if (inode.value()->type == FileType::Directory &&
          (flags & kOAccMask) != kORdOnly) {
        sb->iput(inode.value());
        return Err::IsDir;
      }
    }
    of->sb = sb;
    of->inode = inode.value();

    Err e = of->inode->fop->open(*of->inode, of->fh);
    if (e != Err::Ok) {
      of->sb->iput(of->inode);
      return e;
    }
    // Sample the writeback error sequences (f_wb_err): errors recorded
    // before this open are not this fd's to report at fsync.
    of->fh.wb_err = of->inode->mapping.wb_err().sample();
    of->fh.bc_wb_err = of->sb->bufcache().wb_err().sample();
    if ((flags & kOTrunc) != 0 && of->inode->type == FileType::Regular) {
      if (of->sb->read_only()) {
        of->sb->iput(of->inode);
        return Err::RoFs;
      }
      SetAttr attr;
      attr.set_size = true;
      attr.size = 0;
      of->inode->rwsem.lock();
      e = of->inode->iop->setattr(*of->inode, attr);
      of->inode->rwsem.unlock();
      if (e != Err::Ok) {
        of->sb->iput(of->inode);
        return e;
      }
    }
  }

  for (std::size_t i = 0; i < p.fds_.size(); ++i) {
    if (p.fds_[i] == nullptr) {
      p.fds_[i] = std::move(of);
      return static_cast<int>(i);
    }
  }
  p.fds_.push_back(std::move(of));
  return static_cast<int>(p.fds_.size() - 1);
}

Err Kernel::close(Process& p, int fd) {
  charge_syscall();
  auto f = file_for(p, fd);
  if (!f.ok()) return f.error();
  OpenFile& of = *f.value();
  if (of.inode != nullptr) {
    if ((of.flags & kOAccMask) != kORdOnly) {
      // ->flush on last writer close (this is where FUSE's writeback cache
      // and BentoFS push dirty pages to the FS).
      BSIM_TRY(of.inode->fop->flush(*of.inode, of.fh));
    }
    BSIM_TRY(of.inode->fop->release(*of.inode, of.fh));
    of.sb->iput(of.inode);
  }
  p.fds_[static_cast<std::size_t>(fd)] = nullptr;
  return Err::Ok;
}

Result<std::uint64_t> Kernel::file_read(OpenFile& f, std::span<std::byte> out,
                                        std::uint64_t off) {
  if ((f.flags & kOAccMask) == kOWrOnly) return Err::BadF;
  if (f.inode->type == FileType::Directory) return Err::IsDir;
  return f.inode->fop->read(*f.inode, f.fh, off, out);
}

Result<std::uint64_t> Kernel::file_write(OpenFile& f,
                                         std::span<const std::byte> in,
                                         std::uint64_t off) {
  if ((f.flags & kOAccMask) == kORdOnly) return Err::BadF;
  if (f.sb->read_only()) return Err::RoFs;  // errors=remount-ro degradation
  f.inode->rwsem.lock();
  auto r = f.inode->fop->write(*f.inode, f.fh, off, in);
  f.inode->rwsem.unlock();
  return r;
}

Result<std::uint64_t> Kernel::bdev_read(OpenFile& f, std::span<std::byte> out,
                                        std::uint64_t off) {
  auto& dev = *f.bdev;
  if (off % dev.block_size() != 0 || out.size() % dev.block_size() != 0) {
    return Err::Inval;  // O_DIRECT alignment
  }
  sim::charge(sim::costs().user_blockio_extra);
  // The whole span is one contiguous run: submit it as ONE multi-block
  // bio instead of block-at-a-time reads.
  blk::Bio bio(blk::BioOp::Read);
  for (std::uint64_t done = 0; done < out.size(); done += dev.block_size()) {
    bio.add_read((off + done) / dev.block_size(),
                 out.subspan(static_cast<std::size_t>(done), dev.block_size()));
  }
  if (!bio.empty()) dev.submit(bio);
  if (bio.io_error) return Err::Io;
  return static_cast<std::uint64_t>(out.size());
}

Result<std::uint64_t> Kernel::bdev_write(OpenFile& f,
                                         std::span<const std::byte> in,
                                         std::uint64_t off) {
  auto& dev = *f.bdev;
  if (off % dev.block_size() != 0 || in.size() % dev.block_size() != 0) {
    return Err::Inval;
  }
  sim::charge(sim::costs().user_blockio_extra);
  blk::Bio bio(blk::BioOp::Write);
  for (std::uint64_t done = 0; done < in.size(); done += dev.block_size()) {
    bio.add_write((off + done) / dev.block_size(),
                  in.subspan(static_cast<std::size_t>(done), dev.block_size()));
  }
  if (!bio.empty()) dev.submit(bio);
  if (bio.io_error) return Err::Io;
  return static_cast<std::uint64_t>(in.size());
}

Result<std::uint64_t> Kernel::read(Process& p, int fd,
                                   std::span<std::byte> out) {
  charge_syscall();
  auto f = file_for(p, fd);
  if (!f.ok()) return f.error();
  auto r = f.value()->bdev != nullptr ? bdev_read(*f.value(), out, f.value()->pos)
                                      : file_read(*f.value(), out, f.value()->pos);
  if (r.ok()) f.value()->pos += r.value();
  return r;
}

Result<std::uint64_t> Kernel::write(Process& p, int fd,
                                    std::span<const std::byte> in) {
  charge_syscall();
  auto f = file_for(p, fd);
  if (!f.ok()) return f.error();
  OpenFile& of = *f.value();
  std::uint64_t off = of.pos;
  if (of.inode != nullptr && (of.flags & kOAppend) != 0) off = of.inode->size;
  auto r = of.bdev != nullptr ? bdev_write(of, in, off)
                              : file_write(of, in, off);
  if (r.ok()) of.pos = off + r.value();
  return r;
}

Result<std::uint64_t> Kernel::pread(Process& p, int fd,
                                    std::span<std::byte> out,
                                    std::uint64_t off) {
  charge_syscall();
  auto f = file_for(p, fd);
  if (!f.ok()) return f.error();
  return f.value()->bdev != nullptr ? bdev_read(*f.value(), out, off)
                                    : file_read(*f.value(), out, off);
}

Result<std::uint64_t> Kernel::pwrite(Process& p, int fd,
                                     std::span<const std::byte> in,
                                     std::uint64_t off) {
  charge_syscall();
  auto f = file_for(p, fd);
  if (!f.ok()) return f.error();
  return f.value()->bdev != nullptr ? bdev_write(*f.value(), in, off)
                                    : file_write(*f.value(), in, off);
}

Result<std::uint64_t> Kernel::lseek(Process& p, int fd, std::int64_t off,
                                    Whence whence) {
  charge_syscall();
  auto f = file_for(p, fd);
  if (!f.ok()) return f.error();
  OpenFile& of = *f.value();
  std::int64_t base = 0;
  switch (whence) {
    case Whence::Set: base = 0; break;
    case Whence::Cur: base = static_cast<std::int64_t>(of.pos); break;
    case Whence::End:
      base = of.inode != nullptr ? static_cast<std::int64_t>(of.inode->size)
                                 : 0;
      break;
  }
  const std::int64_t target = base + off;
  if (target < 0) return Err::Inval;
  of.pos = static_cast<std::uint64_t>(target);
  return of.pos;
}

Err Kernel::fsync(Process& p, int fd, bool datasync) {
  charge_syscall();
  auto f = file_for(p, fd);
  if (!f.ok()) return f.error();
  return do_fsync(*f.value(), datasync);
}

Err Kernel::do_fsync(OpenFile& of, bool datasync) {
  if (of.bdev != nullptr) {
    // fsync on the raw disk file from userspace: host file-interface
    // traversal plus a full device cache flush (§6.4 "the whole disk file
    // must be synced every time one block needs to be synced"). Mostly
    // device/journal wait, so it is not subject to CPU contention scaling.
    sim::current().wait(sim::costs().host_file_fsync);
    of.bdev->flush();
    return Err::Ok;
  }
  // Catch up with THIS inode's background writeback before the FS fsync
  // runs: pages the flusher already pushed through the file system must
  // be complete in virtual time before fsync can claim durability over
  // them. Per-inode (like waiting on PAGECACHE_TAG_WRITEBACK), so an
  // unrelated file's background writeback never charges this fsync; done
  // here (not per-FS) so every deployment that attaches a flusher gets
  // the ordering for free. A no-op when writeback ran on this thread.
  sim::current().wait_until(of.inode->mapping.writeback_done_at());
  Err e = of.inode->fop->fsync(*of.inode, of.fh, datasync);
  // Report-once writeback errors (file_check_and_advance_wb_err): a
  // failure recorded against this inode's mapping or the mount's buffer
  // cache since this fd last looked surfaces NOW — even when the fsync
  // call itself succeeded — and advances the fd's cursor so the next
  // fsync on this fd reports clean while other fds still see their own.
  const Err we = of.inode->mapping.wb_err().check(of.fh.wb_err);
  const Err be = of.sb->bufcache().wb_err().check(of.fh.bc_wb_err);
  if (e == Err::Ok) e = we != Err::Ok ? we : be;
  return e;
}

Err Kernel::mkdir(Process&, std::string_view path, std::uint32_t mode) {
  charge_syscall();
  auto target = walk_parent(path);
  if (!target.ok()) return target.error();
  auto& t = target.value();
  if (t.sb->read_only()) {
    t.sb->iput(t.dir);
    return Err::RoFs;
  }
  t.dir->rwsem.lock();
  auto r = t.dir->iop->mkdir(*t.dir, t.last, mode);
  t.dir->rwsem.unlock();
  if (r.ok()) {
    t.sb->dcache_add(*t.dir, t.last, r.value()->ino());
    t.sb->iput(r.value());
  }
  t.sb->iput(t.dir);
  return r.ok() ? Err::Ok : r.error();
}

Err Kernel::unlink(Process&, std::string_view path) {
  charge_syscall();
  auto target = walk_parent(path);
  if (!target.ok()) return target.error();
  auto& t = target.value();
  if (t.sb->read_only()) {
    t.sb->iput(t.dir);
    return Err::RoFs;
  }
  t.dir->rwsem.lock();
  Err e = t.dir->iop->unlink(*t.dir, t.last);
  t.dir->rwsem.unlock();
  if (e == Err::Ok) t.sb->dcache_remove(*t.dir, t.last);
  t.sb->iput(t.dir);
  return e;
}

Err Kernel::rmdir(Process&, std::string_view path) {
  charge_syscall();
  auto target = walk_parent(path);
  if (!target.ok()) return target.error();
  auto& t = target.value();
  if (t.sb->read_only()) {
    t.sb->iput(t.dir);
    return Err::RoFs;
  }
  t.dir->rwsem.lock();
  Err e = t.dir->iop->rmdir(*t.dir, t.last);
  t.dir->rwsem.unlock();
  if (e == Err::Ok) t.sb->dcache_remove(*t.dir, t.last);
  t.sb->iput(t.dir);
  return e;
}

Err Kernel::rename(Process&, std::string_view from, std::string_view to) {
  charge_syscall();
  auto src = walk_parent(from);
  if (!src.ok()) return src.error();
  auto dst = walk_parent(to);
  if (!dst.ok()) {
    src.value().sb->iput(src.value().dir);
    return dst.error();
  }
  auto& s = src.value();
  auto& d = dst.value();
  if (s.sb->read_only() || d.sb->read_only()) {
    s.sb->iput(s.dir);
    d.sb->iput(d.dir);
    return Err::RoFs;
  }
  Err e = Err::Inval;
  if (s.sb == d.sb) {
    s.dir->rwsem.lock();
    if (d.dir != s.dir) d.dir->rwsem.lock();
    e = s.dir->iop->rename(*s.dir, s.last, *d.dir, d.last);
    if (d.dir != s.dir) d.dir->rwsem.unlock();
    s.dir->rwsem.unlock();
    if (e == Err::Ok) {
      s.sb->dcache_remove(*s.dir, s.last);
      d.sb->dcache_remove(*d.dir, d.last);
    }
  }
  s.sb->iput(s.dir);
  d.sb->iput(d.dir);
  return e;
}

Result<Stat> Kernel::stat(Process&, std::string_view path) {
  charge_syscall();
  SuperBlock* sb = nullptr;
  auto inode = walk_full(path, &sb);
  if (!inode.ok()) return inode.error();
  Stat st;
  Err e = inode.value()->iop->getattr(*inode.value(), st);
  sb->iput(inode.value());
  if (e != Err::Ok) return e;
  return st;
}

Err Kernel::truncate(Process&, std::string_view path, std::uint64_t size) {
  charge_syscall();
  SuperBlock* sb = nullptr;
  auto inode = walk_full(path, &sb);
  if (!inode.ok()) return inode.error();
  if (sb->read_only()) {
    sb->iput(inode.value());
    return Err::RoFs;
  }
  SetAttr attr;
  attr.set_size = true;
  attr.size = size;
  inode.value()->rwsem.lock();
  Err e = inode.value()->iop->setattr(*inode.value(), attr);
  inode.value()->rwsem.unlock();
  sb->iput(inode.value());
  return e;
}

Result<std::vector<DirEnt>> Kernel::readdir(Process&, std::string_view path) {
  charge_syscall();
  SuperBlock* sb = nullptr;
  auto inode = walk_full(path, &sb);
  if (!inode.ok()) return inode.error();
  if (inode.value()->type != FileType::Directory) {
    sb->iput(inode.value());
    return Err::NotDir;
  }
  std::vector<DirEnt> out;
  std::uint64_t pos = 0;
  Err e = inode.value()->fop->readdir(*inode.value(), pos,
                                      [&out](const DirEnt& de) {
                                        out.push_back(de);
                                        return true;
                                      });
  sb->iput(inode.value());
  if (e != Err::Ok) return e;
  return out;
}

Result<StatFs> Kernel::statfs(Process&, std::string_view path) {
  charge_syscall();
  std::string_view rest;
  auto m = mount_for(path, &rest);
  if (!m.ok()) return m.error();
  StatFs out;
  Err e = m.value()->sb->s_op->statfs(*m.value()->sb, out);
  if (e != Err::Ok) return e;
  return out;
}

Err Kernel::sync(Process&) {
  charge_syscall();
  for (auto& m : mounts_) BSIM_TRY(m.sb->sync_all());
  return Err::Ok;
}

}  // namespace bsim::kern
