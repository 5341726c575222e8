#include "bento/bentofs.h"

#include <cassert>

#include "kernel/flusher.h"
#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::bento {

namespace {

kern::FileType to_kern(kern::FileType t) { return t; }

kern::Stat to_stat(const FileAttr& a) {
  kern::Stat st;
  st.ino = a.ino;
  st.type = a.kind;
  st.mode = a.mode;
  st.nlink = a.nlink;
  st.size = a.size;
  st.blocks = a.blocks;
  st.atime = a.atime;
  st.mtime = a.mtime;
  st.ctime = a.ctime;
  return st;
}

}  // namespace

BentoModule::BentoModule(kern::SuperBlock& sb, std::unique_ptr<FileSystem> fs,
                         const blk::MountOpts& opts)
    : BentoModule(sb, std::move(fs), opts,
                  std::make_unique<KernelBlockBackend>(sb.bufcache())) {}

BentoModule::BentoModule(kern::SuperBlock& sb, std::unique_ptr<FileSystem> fs,
                         const blk::MountOpts& opts,
                         std::unique_ptr<BlockBackend> backend)
    : sb_(&sb),
      backend_(std::move(backend)),
      cap_(SuperBlockCap::Key{}, *backend_),
      opts_(opts),
      fs_(std::move(fs)) {
  fs_->apply_mount_opts(opts_);
  // Route journal-abort notifications into the kernel superblock's
  // errors= policy (covers both the kernel and the FUSE deployment —
  // FuseModule passes through this constructor too).
  backend_->set_fs_error_hook(
      [this](kern::Err e) { sb_->fs_error(e); });
}

Request BentoModule::mkreq() {
  Request req;
  req.unique = next_unique_++;
  return req;
}

void BentoModule::channel(std::size_t, std::size_t) {
  sim::charge(sim::costs().bento_dispatch);
  mstats_.dispatches += 1;
}

void BentoModule::refresh(kern::Inode& inode, const FileAttr& attr) {
  inode.type = to_kern(attr.kind);
  inode.mode = attr.mode;
  inode.nlink = attr.nlink;
  inode.size = attr.size;
  inode.atime = attr.atime;
  inode.mtime = attr.mtime;
  inode.ctime = attr.ctime;
}

kern::Inode& BentoModule::materialize(const EntryOut& entry) {
  kern::Inode* ip = sb_->iget_cached(entry.ino);
  if (ip == nullptr) {
    ip = &sb_->inew(entry.ino);
    ip->iop = this;
    ip->fop = this;
    ip->aops = this;
  }
  refresh(*ip, entry.attr);
  return *ip;
}

Err BentoModule::mount_init() {
  Err e = fs_->init(mkreq(), borrow());
  assert(ledger_.balanced() && "file system escaped a borrowed capability");
  if (e != Err::Ok) return e;

  auto attr = fs_->getattr(mkreq(), borrow(), kRootIno);
  assert(ledger_.balanced());
  if (!attr.ok()) return attr.error();
  EntryOut root;
  root.ino = kRootIno;
  root.attr = attr.value();
  sb_->root = &materialize(root);  // holds the mount's root reference
  return Err::Ok;
}

Err BentoModule::upgrade(std::unique_ptr<FileSystem> next) {
  // Quiesce: with the module's operations dispatched synchronously there
  // are no in-flight calls between steps; charge the drain + swap cost the
  // paper's mediating layer would incur.
  sim::charge(sim::costs().upgrade_swap);

  TransferableState state = fs_->prepare_transfer(mkreq(), borrow());
  assert(ledger_.balanced());

  // The successor runs under the same mount, so it gets the same options
  // whether it adopts the old state or cold-attaches.
  next->apply_mount_opts(opts_);
  Err e = next->restore_state(mkreq(), borrow(), std::move(state));
  if (e == Err::NoSys) {
    // Successor has no transfer support: cold-attach like a fresh mount.
    e = next->init(mkreq(), borrow());
  }
  assert(ledger_.balanced());
  if (e != Err::Ok) return e;  // old version keeps running

  fs_ = std::move(next);
  mstats_.upgrades += 1;
  return Err::Ok;
}

// ---- InodeOps ----

Result<kern::Inode*> BentoModule::lookup(kern::Inode& dir,
                                         std::string_view name) {
  channel(0, 0);
  auto r = fs_->lookup(mkreq(), borrow(), dir.ino(), name);
  assert(ledger_.balanced());
  if (!r.ok()) return r.error();
  return &materialize(r.value());
}

Result<kern::Inode*> BentoModule::create(kern::Inode& dir,
                                         std::string_view name,
                                         std::uint32_t mode) {
  channel(0, 0);
  auto r = fs_->create(mkreq(), borrow(), dir.ino(), name, mode);
  assert(ledger_.balanced());
  if (!r.ok()) return r.error();
  return &materialize(r.value());
}

Err BentoModule::unlink(kern::Inode& dir, std::string_view name) {
  channel(0, 0);
  kern::Inode* victim = sb_->dcache_lookup(dir, name);  // ref if cached
  Err e = fs_->unlink(mkreq(), borrow(), dir.ino(), name);
  assert(ledger_.balanced());
  if (victim != nullptr) {
    if (e == Err::Ok && victim->nlink > 0) victim->nlink -= 1;
    sb_->iput(victim);
  }
  return e;
}

Result<kern::Inode*> BentoModule::mkdir(kern::Inode& dir,
                                        std::string_view name,
                                        std::uint32_t mode) {
  channel(0, 0);
  auto r = fs_->mkdir(mkreq(), borrow(), dir.ino(), name, mode);
  assert(ledger_.balanced());
  if (!r.ok()) return r.error();
  return &materialize(r.value());
}

Err BentoModule::rmdir(kern::Inode& dir, std::string_view name) {
  channel(0, 0);
  kern::Inode* victim = sb_->dcache_lookup(dir, name);
  Err e = fs_->rmdir(mkreq(), borrow(), dir.ino(), name);
  assert(ledger_.balanced());
  if (victim != nullptr) {
    if (e == Err::Ok) victim->nlink = 0;
    sb_->iput(victim);
  }
  return e;
}

Err BentoModule::rename(kern::Inode& old_dir, std::string_view old_name,
                        kern::Inode& new_dir, std::string_view new_name) {
  channel(0, 0);
  kern::Inode* displaced = sb_->dcache_lookup(new_dir, new_name);
  Err e = fs_->rename(mkreq(), borrow(), old_dir.ino(), old_name,
                      new_dir.ino(), new_name);
  assert(ledger_.balanced());
  if (displaced != nullptr) {
    if (e == Err::Ok && displaced->nlink > 0) displaced->nlink -= 1;
    sb_->iput(displaced);
  }
  return e;
}

Err BentoModule::setattr(kern::Inode& inode, const kern::SetAttr& attr) {
  channel(0, 0);
  SetAttrIn in;
  in.set_size = attr.set_size;
  in.size = attr.size;
  in.set_mode = attr.set_mode;
  in.mode = attr.mode;
  in.set_mtime = attr.set_mtime;
  in.mtime = attr.mtime;

  if (attr.set_size) {
    // Shrinks must drop cached pages beyond the new EOF before the FS
    // frees the blocks; the page cache is BentoFS's responsibility.
    kern::generic_truncate_pagecache(inode, attr.size);
  }
  auto r = fs_->setattr(mkreq(), borrow(), inode.ino(), in);
  assert(ledger_.balanced());
  if (!r.ok()) return r.error();
  refresh(inode, r.value());
  return Err::Ok;
}

Err BentoModule::getattr(kern::Inode& inode, kern::Stat& out) {
  channel(0, 0);
  auto r = fs_->getattr(mkreq(), borrow(), inode.ino());
  assert(ledger_.balanced());
  if (!r.ok()) return r.error();
  refresh(inode, r.value());
  out = to_stat(r.value());
  // The page cache can be ahead of the FS for buffered writes.
  out.size = std::max(out.size, inode.size);
  return Err::Ok;
}

// ---- FileOps ----

Err BentoModule::open(kern::Inode& inode, kern::FileHandle& fh) {
  channel(0, 0);
  auto r = fs_->open(mkreq(), borrow(), inode.ino(), fh.flags);
  assert(ledger_.balanced());
  if (!r.ok()) return r.error();
  fh.fh = r.value();
  return Err::Ok;
}

Err BentoModule::release(kern::Inode& inode, kern::FileHandle& fh) {
  channel(0, 0);
  Err e = fs_->release(mkreq(), borrow(), inode.ino(), fh.fh);
  assert(ledger_.balanced());
  return e;
}

Result<std::uint64_t> BentoModule::read(kern::Inode& inode, kern::FileHandle&,
                                        std::uint64_t off,
                                        std::span<std::byte> out) {
  // Cached reads are served from the page cache without entering FS code —
  // "implemented ... in the file operations layer in Bento" (§6.5.1).
  return kern::generic_file_read(inode, off, out);
}

Result<std::uint64_t> BentoModule::write(kern::Inode& inode,
                                         kern::FileHandle&, std::uint64_t off,
                                         std::span<const std::byte> in) {
  // Writeback caching: dirty the page cache; data reaches the FS via
  // ->writepages on flush/fsync/threshold.
  return kern::generic_file_write(inode, off, in);
}

Err BentoModule::fsync(kern::Inode& inode, kern::FileHandle& fh,
                       bool datasync) {
  BSIM_TRY(kern::generic_writeback(inode));
  channel(0, 0);
  Err e = fs_->fsync(mkreq(), borrow(), inode.ino(), fh.fh, datasync);
  assert(ledger_.balanced());
  return e;
}

Err BentoModule::flush(kern::Inode& inode, kern::FileHandle&) {
  // Writer close: push dirty pages through the FS (writeback-cache flush).
  return kern::generic_writeback(inode);
}

Err BentoModule::readdir(kern::Inode& inode, std::uint64_t& pos,
                         const kern::DirFiller& fill) {
  channel(0, 0);
  Err e = fs_->readdir(mkreq(), borrow(), inode.ino(), pos, fill);
  assert(ledger_.balanced());
  return e;
}

// ---- SuperOps ----

Err BentoModule::sync_fs(kern::SuperBlock&, bool) {
  channel(0, 0);
  Err e = fs_->sync_fs(mkreq(), borrow());
  assert(ledger_.balanced());
  return e;
}

Err BentoModule::statfs(kern::SuperBlock&, kern::StatFs& out) {
  channel(0, 0);
  auto r = fs_->statfs(mkreq(), borrow());
  assert(ledger_.balanced());
  if (!r.ok()) return r.error();
  out.total_blocks = r.value().total_blocks;
  out.free_blocks = r.value().free_blocks;
  out.total_inodes = r.value().total_inodes;
  out.free_inodes = r.value().free_inodes;
  out.block_size = r.value().block_size;
  out.fs_name = sb_->fs_name;
  return Err::Ok;
}

void BentoModule::put_super(kern::SuperBlock&) {
  fs_->destroy(mkreq(), borrow());
  assert(ledger_.balanced());
  assert(sb_->bufcache().outstanding_refs() == 0 &&
         "file system leaked buffer references past unmount");
}

void BentoModule::evict_inode(kern::Inode& inode) {
  inode.mapping.drop_all();
  fs_->forget(mkreq(), borrow(), inode.ino());
  assert(ledger_.balanced());
}

// ---- AddressSpaceOps ----

Err BentoModule::readpage(kern::Inode& inode, std::uint64_t pgoff,
                          std::span<std::byte> out) {
  channel(0, out.size());
  auto r = fs_->read(mkreq(), borrow(), inode.ino(), 0,
                     pgoff * kern::kPageSize, out);
  assert(ledger_.balanced());
  if (!r.ok()) return r.error();
  return Err::Ok;
}

Err BentoModule::readpages(kern::Inode& inode, std::uint64_t first_pgoff,
                           std::span<const std::span<std::byte>> pages) {
  // The readahead path: one dispatch for the whole run; the FS turns it
  // into one batched block submission (read_bulk).
  channel(0, pages.size() * kern::kPageSize);
  auto r = fs_->read_bulk(mkreq(), borrow(), inode.ino(),
                          first_pgoff * kern::kPageSize, pages);
  assert(ledger_.balanced());
  if (!r.ok()) return r.error();
  // Short reads leave the tail pages zero-filled (holes / EOF).
  std::uint64_t remaining = r.value();
  for (const auto& page : pages) {
    if (remaining >= page.size()) {
      remaining -= page.size();
      continue;
    }
    std::fill(page.begin() + static_cast<std::ptrdiff_t>(remaining),
              page.end(), std::byte{0});
    remaining = 0;
  }
  return Err::Ok;
}

Err BentoModule::writepage(kern::Inode& inode, std::uint64_t pgoff,
                           std::span<const std::byte> in) {
  channel(in.size(), 0);
  const std::uint64_t off = pgoff * kern::kPageSize;
  const std::uint64_t len =
      std::min<std::uint64_t>(kern::kPageSize,
                              inode.size > off ? inode.size - off : 0);
  if (len == 0) return Err::Ok;
  auto r = fs_->write(mkreq(), borrow(), inode.ino(), 0, off,
                      in.subspan(0, static_cast<std::size_t>(len)));
  assert(ledger_.balanced());
  if (!r.ok()) return r.error();
  return Err::Ok;
}

Err BentoModule::writepages(kern::Inode& inode,
                            std::span<const kern::PageRun> runs,
                            std::size_t& completed_runs) {
  completed_runs = 0;
  for (const auto& run : runs) {
    channel(run.pages.size() * kern::kPageSize, 0);
    std::vector<std::span<const std::byte>> pages;
    pages.reserve(run.pages.size());
    const std::uint64_t base = run.first_pgoff * kern::kPageSize;
    std::uint64_t remaining =
        inode.size > base ? inode.size - base : 0;
    for (const kern::Page* page : run.pages) {
      if (remaining == 0) break;
      const std::uint64_t len =
          std::min<std::uint64_t>(kern::kPageSize, remaining);
      pages.push_back(page->bytes().subspan(0, static_cast<std::size_t>(len)));
      remaining -= len;
    }
    if (pages.empty()) {
      completed_runs += 1;  // nothing of this run is within EOF
      continue;
    }
    auto r = fs_->write_bulk(mkreq(), borrow(), inode.ino(), base, pages);
    assert(ledger_.balanced());
    if (!r.ok()) return r.error();
    completed_runs += 1;
  }
  return Err::Ok;
}

// ---- registration ----

namespace {

Result<std::unique_ptr<kern::SuperOps>> fill_super(const FsFactory& factory,
                                                   kern::SuperBlock& sb,
                                                   const blk::MountOpts& opts) {
  auto module = std::make_unique<BentoModule>(sb, factory(), opts);
  BSIM_TRY(module->mount_init());
  // Background writeback for the kernel-Bento deployment: threshold
  // page writeback moves off the writer's clock.
  // "-o noflusher" keeps the old writer-context behaviour (ablations).
  kern::maybe_attach_flusher(sb, opts);
  // Join the unified stats snapshot; fs() resolves at dump time, so
  // online upgrades report the live instance's stats.
  BentoModule* mod = module.get();
  sb.register_stats("bento", [mod](sim::JsonWriter& w) {
    w.begin_object();
    w.field("struct", "ModuleStats");
    w.field("dispatches", mod->stats().dispatches);
    w.field("upgrades", mod->stats().upgrades);
    w.end_object();
    mod->fs().dump_stats(w);
  });
  return std::unique_ptr<kern::SuperOps>(std::move(module));
}

}  // namespace

void register_bento_fs(kern::Kernel& kernel, std::string name,
                       FsFactory factory) {
  kernel.register_fs(std::move(name),
                     [factory = std::move(factory)](
                         kern::SuperBlock& sb, const blk::MountOpts& opts) {
                       return fill_super(factory, sb, opts);
                     });
}

}  // namespace bsim::bento
