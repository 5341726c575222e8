// The one way to stack Bento file systems (paper §3.4, Challenge 6).
//
// A stacked layer sits on the SAME superblock as the file system below
// it: it owns the lower FileSystem and touches storage only through the
// capability its caller lends (§4.4). Every operation a layer does not
// override is forwarded with the caller's request and a reborrow of the
// caller's capability — the bypass routine of stackable vnode layers
// (Heidemann & Popek, "File-System Development with Stackable Layers",
// TOCS 1994). A layer therefore implements only what it changes: a
// cipher on the data path, provenance hooks, an NVM operation log. A
// stack of any depth is one mount over one backend.
//
// Two rules keep the shape honest:
//   - read_bulk/write_bulk are NOT forwarded. The FileSystem defaults
//     loop the layer's own read()/write(), so a layer that transforms data
//     cannot be bypassed by a bulk path; a layer opts into a fast path by
//     overriding it (CryptFs::write_bulk, NvmLogFs::write_bulk).
//   - An online upgrade (§4.8) moves the whole stack: prepare_transfer()
//     runs the layer's own sync_fs() first (so a layer holding data, like
//     NvmLogFs, writes it through), then hands over the lower's state;
//     restore_state() passes the state down. A layer with in-memory state
//     of its own adds its keys on top.
#pragma once

#include <memory>

#include "bento/api.h"

namespace bsim::bento {

class StackedFs : public FileSystem {
 public:
  explicit StackedFs(std::unique_ptr<FileSystem> lower);

  /// The file system this layer stacks over (same superblock).
  [[nodiscard]] FileSystem& lower() { return *lower_; }

  void apply_mount_opts(const blk::MountOpts& opts) override;
  void dump_stats(sim::JsonWriter& w) const override;
  Err init(const Request& req, SbRef sb) override;
  void destroy(const Request& req, SbRef sb) override;

  Result<EntryOut> lookup(const Request& req, SbRef sb, Ino parent,
                          std::string_view name) override;
  Result<FileAttr> getattr(const Request& req, SbRef sb, Ino ino) override;
  Result<FileAttr> setattr(const Request& req, SbRef sb, Ino ino,
                           const SetAttrIn& attr) override;
  Result<EntryOut> create(const Request& req, SbRef sb, Ino parent,
                          std::string_view name, std::uint32_t mode) override;
  Result<EntryOut> mkdir(const Request& req, SbRef sb, Ino parent,
                         std::string_view name, std::uint32_t mode) override;
  Err unlink(const Request& req, SbRef sb, Ino parent,
             std::string_view name) override;
  Err rmdir(const Request& req, SbRef sb, Ino parent,
            std::string_view name) override;
  Err rename(const Request& req, SbRef sb, Ino old_parent,
             std::string_view old_name, Ino new_parent,
             std::string_view new_name) override;
  void forget(const Request& req, SbRef sb, Ino ino) override;

  Result<std::uint64_t> open(const Request& req, SbRef sb, Ino ino,
                             int flags) override;
  Err release(const Request& req, SbRef sb, Ino ino,
              std::uint64_t fh) override;
  Result<std::uint32_t> read(const Request& req, SbRef sb, Ino ino,
                             std::uint64_t fh, std::uint64_t off,
                             std::span<std::byte> out) override;
  Result<std::uint32_t> write(const Request& req, SbRef sb, Ino ino,
                              std::uint64_t fh, std::uint64_t off,
                              std::span<const std::byte> in) override;
  Err fsync(const Request& req, SbRef sb, Ino ino, std::uint64_t fh,
            bool datasync) override;

  Err readdir(const Request& req, SbRef sb, Ino ino, std::uint64_t& pos,
              const DirFiller& fill) override;

  Result<StatfsOut> statfs(const Request& req, SbRef sb) override;
  Err sync_fs(const Request& req, SbRef sb) override;

  TransferableState prepare_transfer(const Request& req, SbRef sb) override;
  Err restore_state(const Request& req, SbRef sb,
                    TransferableState state) override;

 private:
  std::unique_ptr<FileSystem> lower_;
};

}  // namespace bsim::bento
