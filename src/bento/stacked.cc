#include "bento/stacked.h"

namespace bsim::bento {

StackedFs::StackedFs(std::unique_ptr<FileSystem> lower)
    : lower_(std::move(lower)) {}

void StackedFs::apply_mount_opts(const blk::MountOpts& opts) {
  lower_->apply_mount_opts(opts);
}

void StackedFs::dump_stats(sim::JsonWriter& w) const { lower_->dump_stats(w); }

Err StackedFs::init(const Request& req, SbRef sb) {
  return lower_->init(req, sb.reborrow());
}

void StackedFs::destroy(const Request& req, SbRef sb) {
  lower_->destroy(req, sb.reborrow());
}

Result<EntryOut> StackedFs::lookup(const Request& req, SbRef sb, Ino parent,
                                   std::string_view name) {
  return lower_->lookup(req, sb.reborrow(), parent, name);
}

Result<FileAttr> StackedFs::getattr(const Request& req, SbRef sb, Ino ino) {
  return lower_->getattr(req, sb.reborrow(), ino);
}

Result<FileAttr> StackedFs::setattr(const Request& req, SbRef sb, Ino ino,
                                    const SetAttrIn& attr) {
  return lower_->setattr(req, sb.reborrow(), ino, attr);
}

Result<EntryOut> StackedFs::create(const Request& req, SbRef sb, Ino parent,
                                   std::string_view name, std::uint32_t mode) {
  return lower_->create(req, sb.reborrow(), parent, name, mode);
}

Result<EntryOut> StackedFs::mkdir(const Request& req, SbRef sb, Ino parent,
                                  std::string_view name, std::uint32_t mode) {
  return lower_->mkdir(req, sb.reborrow(), parent, name, mode);
}

Err StackedFs::unlink(const Request& req, SbRef sb, Ino parent,
                      std::string_view name) {
  return lower_->unlink(req, sb.reborrow(), parent, name);
}

Err StackedFs::rmdir(const Request& req, SbRef sb, Ino parent,
                     std::string_view name) {
  return lower_->rmdir(req, sb.reborrow(), parent, name);
}

Err StackedFs::rename(const Request& req, SbRef sb, Ino old_parent,
                      std::string_view old_name, Ino new_parent,
                      std::string_view new_name) {
  return lower_->rename(req, sb.reborrow(), old_parent, old_name, new_parent,
                        new_name);
}

void StackedFs::forget(const Request& req, SbRef sb, Ino ino) {
  lower_->forget(req, sb.reborrow(), ino);
}

Result<std::uint64_t> StackedFs::open(const Request& req, SbRef sb, Ino ino,
                                      int flags) {
  return lower_->open(req, sb.reborrow(), ino, flags);
}

Err StackedFs::release(const Request& req, SbRef sb, Ino ino,
                       std::uint64_t fh) {
  return lower_->release(req, sb.reborrow(), ino, fh);
}

Result<std::uint32_t> StackedFs::read(const Request& req, SbRef sb, Ino ino,
                                      std::uint64_t fh, std::uint64_t off,
                                      std::span<std::byte> out) {
  return lower_->read(req, sb.reborrow(), ino, fh, off, out);
}

Result<std::uint32_t> StackedFs::write(const Request& req, SbRef sb, Ino ino,
                                       std::uint64_t fh, std::uint64_t off,
                                       std::span<const std::byte> in) {
  return lower_->write(req, sb.reborrow(), ino, fh, off, in);
}

Err StackedFs::fsync(const Request& req, SbRef sb, Ino ino, std::uint64_t fh,
                     bool datasync) {
  return lower_->fsync(req, sb.reborrow(), ino, fh, datasync);
}

Err StackedFs::readdir(const Request& req, SbRef sb, Ino ino,
                       std::uint64_t& pos, const DirFiller& fill) {
  return lower_->readdir(req, sb.reborrow(), ino, pos, fill);
}

Result<StatfsOut> StackedFs::statfs(const Request& req, SbRef sb) {
  return lower_->statfs(req, sb.reborrow());
}

Err StackedFs::sync_fs(const Request& req, SbRef sb) {
  return lower_->sync_fs(req, sb.reborrow());
}

TransferableState StackedFs::prepare_transfer(const Request& req, SbRef sb) {
  // The layer's own sync_fs first (NvmLogFs's digests its log), so nothing
  // it holds stays behind in the instance being replaced.
  (void)sync_fs(req, sb.reborrow());
  return lower_->prepare_transfer(req, sb.reborrow());
}

Err StackedFs::restore_state(const Request& req, SbRef sb,
                             TransferableState state) {
  return lower_->restore_state(req, sb.reborrow(), std::move(state));
}

}  // namespace bsim::bento
