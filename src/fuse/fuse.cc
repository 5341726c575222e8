#include "fuse/fuse.h"

#include <algorithm>

#include "blockdev/opts.h"
#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::fuse {

using kern::Err;

FuseModule::FuseModule(kern::SuperBlock& sb,
                       std::unique_ptr<bento::FileSystem> fs,
                       const blk::MountOpts& opts,
                       std::unique_ptr<bento::BlockBackend> backend,
                       std::unique_ptr<kern::Process> daemon, int devfd)
    : BentoModule(sb, std::move(fs), opts, std::move(backend)),
      daemon_(std::move(daemon)),
      devfd_(devfd) {}

FuseModule::~FuseModule() {
  (void)daemon_->kernel().close(*daemon_, devfd_);
}

void FuseModule::channel(std::size_t payload_in, std::size_t payload_out) {
  const auto& c = sim::costs();
  const std::size_t pages_in = (payload_in + kern::kPageSize - 1) / kern::kPageSize;
  const std::size_t pages_out =
      (payload_out + kern::kPageSize - 1) / kern::kPageSize;
  // Request path: marshal, wake the daemon (crossing), copy the payload in;
  // reply path: copy the payload out, wake the caller (crossing).
  sim::charge(c.fuse_request_base + 2 * c.fuse_crossing +
              static_cast<sim::Nanos>(pages_in + pages_out) *
                  c.fuse_copy_per_page);
  conn_.requests += 1;
  conn_.payload_bytes += payload_in + payload_out;
}

// ---- ExtFUSE fast paths ----

namespace {

bento::EntryOut entry_from_inode(const kern::Inode& inode) {
  bento::EntryOut e;
  e.ino = inode.ino();
  e.attr.ino = inode.ino();
  e.attr.kind = inode.type;
  e.attr.mode = inode.mode;
  e.attr.nlink = inode.nlink;
  e.attr.size = inode.size;
  e.attr.blocks = (inode.size + 511) / 512;
  e.attr.atime = inode.atime;
  e.attr.mtime = inode.mtime;
  e.attr.ctime = inode.ctime;
  return e;
}

kern::Stat stat_from_inode(const kern::Inode& inode) {
  kern::Stat st;
  st.ino = inode.ino();
  st.type = inode.type;
  st.mode = inode.mode;
  st.nlink = inode.nlink;
  st.size = inode.size;
  st.blocks = (inode.size + 511) / 512;
  st.atime = inode.atime;
  st.mtime = inode.mtime;
  st.ctime = inode.ctime;
  return st;
}

}  // namespace

void FuseModule::install_from(kern::Inode& inode, kern::Ino parent,
                              std::string_view name) {
  filter_->install_entry(parent, name, entry_from_inode(inode));
  filter_->install_attr(inode.ino(), stat_from_inode(inode));
}

kern::Result<kern::Inode*> FuseModule::lookup(kern::Inode& dir,
                                              std::string_view name) {
  if (filter_ != nullptr) {
    bento::EntryOut entry;
    if (filter_->lookup_hit(dir.ino(), name, entry)) {
      return &materialize(entry);  // answered in the kernel, no daemon
    }
  }
  auto r = BentoModule::lookup(dir, name);
  if (filter_ != nullptr && r.ok()) {
    install_from(*r.value(), dir.ino(), name);
  }
  return r;
}

Err FuseModule::getattr(kern::Inode& inode, kern::Stat& out) {
  if (filter_ != nullptr && filter_->getattr_hit(inode.ino(), out)) {
    // Same page-cache-ahead rule as the passthrough path.
    out.size = std::max(out.size, inode.size);
    return Err::Ok;
  }
  Err e = BentoModule::getattr(inode, out);
  if (filter_ != nullptr && e == Err::Ok) {
    filter_->install_attr(inode.ino(), out);
  }
  return e;
}

Err FuseModule::setattr(kern::Inode& inode, const kern::SetAttr& attr) {
  if (filter_ != nullptr) filter_->invalidate_attr(inode.ino());
  return BentoModule::setattr(inode, attr);
}

kern::Result<kern::Inode*> FuseModule::create(kern::Inode& dir,
                                              std::string_view name,
                                              std::uint32_t mode) {
  if (filter_ != nullptr) {
    filter_->invalidate_entry(dir.ino(), name);
    filter_->invalidate_attr(dir.ino());
  }
  return BentoModule::create(dir, name, mode);
}

kern::Result<kern::Inode*> FuseModule::mkdir(kern::Inode& dir,
                                             std::string_view name,
                                             std::uint32_t mode) {
  if (filter_ != nullptr) {
    filter_->invalidate_entry(dir.ino(), name);
    filter_->invalidate_attr(dir.ino());
  }
  return BentoModule::mkdir(dir, name, mode);
}

Err FuseModule::unlink(kern::Inode& dir, std::string_view name) {
  if (filter_ != nullptr) {
    filter_->invalidate_entry(dir.ino(), name);
    kern::Inode* victim = super().dcache_lookup(dir, name);
    if (victim != nullptr) {
      filter_->invalidate_attr(victim->ino());
      super().iput(victim);
    }
  }
  return BentoModule::unlink(dir, name);
}

Err FuseModule::rmdir(kern::Inode& dir, std::string_view name) {
  if (filter_ != nullptr) filter_->invalidate_entry(dir.ino(), name);
  return BentoModule::rmdir(dir, name);
}

Err FuseModule::rename(kern::Inode& old_dir, std::string_view old_name,
                       kern::Inode& new_dir, std::string_view new_name) {
  if (filter_ != nullptr) {
    filter_->invalidate_entry(old_dir.ino(), old_name);
    filter_->invalidate_entry(new_dir.ino(), new_name);
  }
  return BentoModule::rename(old_dir, old_name, new_dir, new_name);
}

kern::Result<std::uint64_t> FuseModule::write(kern::Inode& inode,
                                              kern::FileHandle& fh,
                                              std::uint64_t off,
                                              std::span<const std::byte> in) {
  if (filter_ != nullptr) filter_->invalidate_attr(inode.ino());
  return BentoModule::write(inode, fh, off, in);
}

Err FuseModule::writepages(kern::Inode& inode,
                           std::span<const kern::PageRun> runs,
                           std::size_t& completed_runs) {
  if (filter_ != nullptr) filter_->invalidate_attr(inode.ino());
  // Split each run into FUSE-sized write requests (max_pages per request);
  // the base implementation then issues one request per (sub-)run.
  std::vector<kern::PageRun> chunked;
  std::vector<std::size_t> chunks_per_run;
  chunks_per_run.reserve(runs.size());
  for (const auto& run : runs) {
    std::size_t i = 0;
    std::size_t nchunks = 0;
    while (i < run.pages.size()) {
      const std::size_t n = std::min(kMaxPages, run.pages.size() - i);
      kern::PageRun sub;
      sub.first_pgoff = run.first_pgoff + i;
      sub.pages.assign(run.pages.begin() + static_cast<std::ptrdiff_t>(i),
                       run.pages.begin() + static_cast<std::ptrdiff_t>(i + n));
      chunked.push_back(std::move(sub));
      i += n;
      nchunks += 1;
    }
    chunks_per_run.push_back(nchunks);
  }
  // An original run completed only if ALL of its sub-requests did: map the
  // completed-chunk prefix back to a completed-run prefix for the caller's
  // dirty-state accounting.
  std::size_t completed_chunks = 0;
  const Err e = BentoModule::writepages(inode, chunked, completed_chunks);
  completed_runs = 0;
  for (const std::size_t nchunks : chunks_per_run) {
    if (completed_chunks < nchunks) break;
    completed_chunks -= nchunks;
    completed_runs += 1;
  }
  return e;
}

Err FuseModule::readpages(kern::Inode& inode, std::uint64_t first_pgoff,
                          std::span<const std::span<std::byte>> pages) {
  // Readahead runs split at the FUSE request cap, one daemon round trip
  // per sub-run (the driver's batching ends at max_pages).
  std::size_t i = 0;
  while (i < pages.size()) {
    const std::size_t n = std::min(kMaxPages, pages.size() - i);
    BSIM_TRY(BentoModule::readpages(inode, first_pgoff + i,
                                    pages.subspan(i, n)));
    i += n;
  }
  return Err::Ok;
}

namespace {

kern::Result<std::unique_ptr<kern::SuperOps>> fill_super(
    kern::Kernel& kernel, const bento::FsFactory& factory, kern::SuperBlock& sb,
    const blk::MountOpts& opts) {
  // The daemon opens the disk with O_DIRECT, like the paper's baseline.
  // Nothing before this touched the device or the clock: building the
  // superblock is free.
  auto daemon = kernel.new_process();
  const std::string devname = kernel.device_name_of(&sb.bdev());
  if (devname.empty()) return Err::NoDev;
  auto fd = kernel.open(*daemon, "/dev/" + devname,
                        kern::kORdWr | kern::kODirect);
  if (!fd.ok()) return fd.error();

  // "-o io_uring": the daemon batches its block I/O (§8.1).
  auto backend = std::make_unique<bento::UserBlockBackend>(
      kernel, *daemon, fd.value(), sb.bdev().nblocks(), /*cache_blocks=*/4096,
      /*use_uring=*/opts.io_uring);
  auto module =
      std::make_unique<FuseModule>(sb, factory(), opts, std::move(backend),
                                   std::move(daemon), fd.value());
  // "-o extfuse": attach the eBPF metadata caches (paper §2.2, [5]).
  if (opts.extfuse) {
    module->attach_extfuse(std::make_unique<ExtFuseFilter>());
  }
  BSIM_TRY(module->mount_init());
  FuseModule* mod = module.get();
  sb.register_stats("fuse", [mod](sim::JsonWriter& w) {
    w.begin_object();
    w.field("struct", "FuseConnStats");
    w.field("requests", mod->conn_stats().requests);
    w.field("payload_bytes", mod->conn_stats().payload_bytes);
    w.end_object();
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

void register_fuse_fs(kern::Kernel& kernel, std::string name,
                      bento::FsFactory factory) {
  kernel.register_fs(std::move(name),
                     [&kernel, factory = std::move(factory)](
                         kern::SuperBlock& sb, const blk::MountOpts& opts) {
                       return fill_super(kernel, factory, sb, opts);
                     });
}

}  // namespace bsim::fuse
