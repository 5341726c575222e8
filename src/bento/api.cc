#include "bento/api.h"

namespace bsim::bento {

void FileSystem::destroy(const Request&, SbRef) {}

Result<EntryOut> FileSystem::lookup(const Request&, SbRef, Ino,
                                    std::string_view) {
  return Err::NoSys;
}
Result<FileAttr> FileSystem::getattr(const Request&, SbRef, Ino) {
  return Err::NoSys;
}
Result<FileAttr> FileSystem::setattr(const Request&, SbRef, Ino,
                                     const SetAttrIn&) {
  return Err::NoSys;
}
Result<EntryOut> FileSystem::create(const Request&, SbRef, Ino,
                                    std::string_view, std::uint32_t) {
  return Err::NoSys;
}
Result<EntryOut> FileSystem::mkdir(const Request&, SbRef, Ino,
                                   std::string_view, std::uint32_t) {
  return Err::NoSys;
}
Err FileSystem::unlink(const Request&, SbRef, Ino, std::string_view) {
  return Err::NoSys;
}
Err FileSystem::rmdir(const Request&, SbRef, Ino, std::string_view) {
  return Err::NoSys;
}
Err FileSystem::rename(const Request&, SbRef, Ino, std::string_view, Ino,
                       std::string_view) {
  return Err::NoSys;
}
void FileSystem::forget(const Request&, SbRef, Ino) {}

Result<std::uint64_t> FileSystem::open(const Request&, SbRef, Ino, int) {
  return std::uint64_t{0};
}
Err FileSystem::release(const Request&, SbRef, Ino, std::uint64_t) {
  return Err::Ok;
}
Result<std::uint32_t> FileSystem::read(const Request&, SbRef, Ino,
                                       std::uint64_t, std::uint64_t,
                                       std::span<std::byte>) {
  return Err::NoSys;
}
Result<std::uint32_t> FileSystem::write(const Request&, SbRef, Ino,
                                        std::uint64_t, std::uint64_t,
                                        std::span<const std::byte>) {
  return Err::NoSys;
}

Result<std::uint32_t> FileSystem::read_bulk(
    const Request& req, SbRef sb, Ino ino, std::uint64_t off,
    std::span<const std::span<std::byte>> pages) {
  std::uint32_t total = 0;
  for (const auto& page : pages) {
    auto r = read(req, sb.reborrow(), ino, 0, off + total, page);
    if (!r.ok()) return r.error();
    total += r.value();
    if (r.value() < page.size()) break;  // EOF
  }
  return total;
}

Result<std::uint32_t> FileSystem::write_bulk(
    const Request& req, SbRef sb, Ino ino, std::uint64_t off,
    std::span<const std::span<const std::byte>> pages) {
  std::uint32_t total = 0;
  for (const auto& page : pages) {
    auto r = write(req, sb.reborrow(), ino, 0, off + total, page);
    if (!r.ok()) return r.error();
    total += r.value();
  }
  return total;
}

Err FileSystem::fsync(const Request&, SbRef, Ino, std::uint64_t, bool) {
  return Err::NoSys;
}

Err FileSystem::readdir(const Request&, SbRef, Ino, std::uint64_t&,
                        const DirFiller&) {
  return Err::NoSys;
}

Result<StatfsOut> FileSystem::statfs(const Request&, SbRef) {
  return Err::NoSys;
}
Err FileSystem::sync_fs(const Request&, SbRef) { return Err::Ok; }

TransferableState FileSystem::prepare_transfer(const Request&, SbRef) {
  return {};
}
Err FileSystem::restore_state(const Request&, SbRef, TransferableState) {
  return Err::NoSys;
}

}  // namespace bsim::bento
