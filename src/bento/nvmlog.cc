#include "bento/nvmlog.h"

#include <algorithm>
#include <cstring>

namespace bsim::bento {

using kern::Err;

namespace {

constexpr std::uint32_t kRecMagic = 0x4e564c31;  // "NVL1"

enum : std::uint16_t { kRecData = 0, kRecTruncate = 1 };

/// On-NVM record header, followed by `len` payload bytes. `checksum`
/// covers the header fields (with checksum = 0) and the payload, so a
/// torn append — lost payload lines or a partially persisted header — is
/// detected on replay. A truncate record (`op == kRecTruncate`) carries
/// the new size in `off` and no payload: truncation must be *in* the log,
/// or replay would resurrect logged writes beyond a later truncation.
struct RecHeader {
  std::uint32_t magic = 0;
  std::uint16_t op = kRecData;
  std::uint16_t reserved = 0;
  std::uint32_t len = 0;
  std::uint32_t pad = 0;
  std::uint64_t ino = 0;
  std::uint64_t off = 0;
  std::uint64_t seq = 0;
  std::uint64_t checksum = 0;
};
static_assert(std::is_trivially_copyable_v<RecHeader>);

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::byte> data) {
  for (const std::byte b : data) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One checksum covers the header (with checksum zeroed) plus the payload
/// segments in order — writers may gather; replay always verifies the
/// reassembled contiguous payload with the single-span overload.
std::uint64_t record_checksum(RecHeader hdr,
                              std::span<const std::span<const std::byte>> segs) {
  hdr.checksum = 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, std::span<const std::byte>(
                   reinterpret_cast<const std::byte*>(&hdr), sizeof hdr));
  for (const auto& seg : segs) h = fnv1a(h, seg);
  return h;
}

std::uint64_t record_checksum(RecHeader hdr,
                              std::span<const std::byte> payload) {
  const std::span<const std::byte> one[] = {payload};
  return record_checksum(hdr, one);
}

std::size_t record_size(std::size_t payload_len) {
  return sizeof(RecHeader) + payload_len;
}

}  // namespace

NvmLogFs::NvmLogFs(std::unique_ptr<FileSystem> lower,
                   std::shared_ptr<blk::NvmRegion> nvm, Options opts)
    : StackedFs(std::move(lower)), nvm_(std::move(nvm)), opts_(opts) {}

NvmLogFs::~NvmLogFs() = default;

// ---- overlay ----

void NvmLogFs::overlay_insert(Pending& p, std::uint64_t off,
                              std::span<const std::byte> data) {
  const std::uint64_t end = off + data.size();

  // Trim or split any older extent overlapping [off, end).
  auto it = p.extents.lower_bound(off);
  if (it != p.extents.begin()) {
    auto prev = std::prev(it);
    const std::uint64_t pend = prev->first + prev->second.size();
    if (pend > off) {
      if (pend > end) {
        // Old extent sticks out both sides: split off the tail.
        std::vector<std::byte> tail(prev->second.begin() +
                                        static_cast<std::ptrdiff_t>(end - prev->first),
                                    prev->second.end());
        p.extents.emplace(end, std::move(tail));
      }
      prev->second.resize(static_cast<std::size_t>(off - prev->first));
      if (prev->second.empty()) p.extents.erase(prev);
    }
  }
  it = p.extents.lower_bound(off);
  while (it != p.extents.end() && it->first < end) {
    const std::uint64_t eend = it->first + it->second.size();
    if (eend <= end) {
      it = p.extents.erase(it);  // fully covered
    } else {
      // Keep the tail beyond the new write.
      std::vector<std::byte> tail(it->second.begin() +
                                      static_cast<std::ptrdiff_t>(end - it->first),
                                  it->second.end());
      p.extents.erase(it);
      p.extents.emplace(end, std::move(tail));
      break;
    }
  }
  p.extents.emplace(off, std::vector<std::byte>(data.begin(), data.end()));
  p.size_floor = std::max(p.size_floor, end);
}

std::size_t NvmLogFs::pending_bytes() const {
  std::size_t total = 0;
  for (const auto& [ino, p] : pending_) {
    for (const auto& [off, ext] : p.extents) total += ext.size();
  }
  return total;
}

void NvmLogFs::dump_stats(sim::JsonWriter& w) const {
  w.begin_object();
  w.field("struct", "NvmLogStats");
  w.field("log_appends", stats_.log_appends);
  w.field("log_bytes", stats_.log_bytes);
  w.field("digests", stats_.digests);
  w.field("digested_bytes", stats_.digested_bytes);
  w.field("recovered_records", stats_.recovered_records);
  w.field("torn_records_dropped", stats_.torn_records_dropped);
  w.end_object();
  StackedFs::dump_stats(w);  // the stacked file system reports too
}

// ---- log ----

Err NvmLogFs::append_record(Ino ino, std::uint64_t off,
                            std::span<const std::byte> data,
                            std::uint16_t op) {
  const std::span<const std::byte> one[] = {data};
  return append_record_gather(ino, off, one, op);
}

Err NvmLogFs::append_record_gather(
    Ino ino, std::uint64_t off,
    std::span<const std::span<const std::byte>> segs, std::uint16_t op) {
  // Scatter-gather append: one header + checksum covers the whole run (a
  // bulk write lands as ONE record instead of one per page — the same
  // batching arithmetic as the block layer's bio merge).
  std::size_t total = 0;
  for (const auto& seg : segs) total += seg.size();
  const std::size_t need = record_size(total);
  if (log_tail_ + need + sizeof(RecHeader) > nvm_->size()) {
    return Err::NoSpc;  // caller digests and retries
  }
  RecHeader hdr;
  hdr.magic = kRecMagic;
  hdr.op = op;
  hdr.len = static_cast<std::uint32_t>(total);
  hdr.ino = ino;
  hdr.off = off;
  hdr.seq = next_seq_++;
  hdr.checksum = record_checksum(hdr, segs);
  nvm_->write(log_tail_,
              std::span<const std::byte>(
                  reinterpret_cast<const std::byte*>(&hdr), sizeof hdr));
  std::size_t at = log_tail_ + sizeof hdr;
  for (const auto& seg : segs) {
    nvm_->write(at, seg);
    at += seg.size();
  }
  log_tail_ += need;
  stats_.log_appends += 1;
  stats_.log_bytes += need;
  return Err::Ok;
}

void NvmLogFs::truncate_log() {
  // A zeroed header at the head makes replay stop immediately; barrier so
  // the truncation is itself durable before new appends reuse the space.
  const RecHeader zero{};
  nvm_->write(0, std::span<const std::byte>(
                     reinterpret_cast<const std::byte*>(&zero), sizeof zero));
  nvm_->persist_barrier();
  log_tail_ = 0;
}

void NvmLogFs::apply_truncate(Pending& p, std::uint64_t size) {
  auto ext = p.extents.lower_bound(size);
  if (ext != p.extents.begin()) {
    auto prev = std::prev(ext);
    const std::uint64_t pend = prev->first + prev->second.size();
    if (pend > size) {
      prev->second.resize(static_cast<std::size_t>(size - prev->first));
      if (prev->second.empty()) p.extents.erase(prev);
    }
  }
  p.extents.erase(p.extents.lower_bound(size), p.extents.end());
  p.size_floor = std::min(p.size_floor, size);
}

void NvmLogFs::replay_log() {
  std::size_t pos = 0;
  while (pos + sizeof(RecHeader) <= nvm_->size()) {
    RecHeader hdr;
    nvm_->read(pos, std::span<std::byte>(reinterpret_cast<std::byte*>(&hdr),
                                         sizeof hdr));
    if (hdr.magic != kRecMagic) break;
    if (pos + record_size(hdr.len) > nvm_->size()) {
      stats_.torn_records_dropped += 1;
      break;
    }
    std::vector<std::byte> payload(hdr.len);
    nvm_->read(pos + sizeof hdr, payload);
    if (record_checksum(hdr, payload) != hdr.checksum) {
      stats_.torn_records_dropped += 1;  // torn append: stop at the tear
      break;
    }
    if (hdr.op == kRecTruncate) {
      auto it = pending_.find(hdr.ino);
      if (it != pending_.end()) apply_truncate(it->second, hdr.off);
    } else {
      overlay_insert(pending_[hdr.ino], hdr.off, payload);
    }
    next_seq_ = std::max(next_seq_, hdr.seq + 1);
    stats_.recovered_records += 1;
    pos += record_size(hdr.len);
  }
  log_tail_ = pos;
}

void NvmLogFs::drop_pending(Ino ino) { pending_.erase(ino); }

// ---- digest ----

Err NvmLogFs::digest(const Request& req, SbRef sb) {
  for (auto& [ino, p] : pending_) {
    for (auto& [off, ext] : p.extents) {
      // Bulk write-through: contiguous extents reach the lower FS as one
      // call, amortizing its journal the way Strata's digests do.
      std::vector<std::span<const std::byte>> pages;
      std::size_t at = 0;
      while (at < ext.size()) {
        const std::size_t chunk = std::min(kern::kPageSize, ext.size() - at);
        pages.emplace_back(ext.data() + at, chunk);
        at += chunk;
      }
      auto w = lower().write_bulk(req, sb.reborrow(), ino, off, pages);
      if (!w.ok()) return w.error();
      stats_.digested_bytes += ext.size();
    }
  }
  // The lower file system commits and FLUSHes the digested data before
  // the truncation drops the log's copy of it.
  BSIM_TRY(lower().sync_fs(req, sb.reborrow()));
  if (!pending_.empty()) stats_.digests += 1;
  pending_.clear();
  truncate_log();
  return Err::Ok;
}

// ---- lifecycle ----

Err NvmLogFs::init(const Request& req, SbRef sb) {
  BSIM_TRY(StackedFs::init(req, sb.reborrow()));
  replay_log();
  return Err::Ok;
}

void NvmLogFs::destroy(const Request& req, SbRef sb) {
  (void)digest(req, sb.reborrow());
  StackedFs::destroy(req, sb.reborrow());
}

// ---- namespace ----

Result<EntryOut> NvmLogFs::lookup(const Request& req, SbRef sb, Ino parent,
                                  std::string_view name) {
  auto r = lower().lookup(req, sb.reborrow(), parent, name);
  if (!r.ok()) return r;
  // Attributes must reflect logged-but-undigested data, or the kernel's
  // in-core inode (sized from this EntryOut) would hide it.
  auto it = pending_.find(r.value().ino);
  if (it != pending_.end()) {
    auto& attr = r.value().attr;
    attr.size = std::max(attr.size, it->second.size_floor);
    attr.blocks = (attr.size + 511) / 512;
  }
  return r;
}

Result<FileAttr> NvmLogFs::getattr(const Request& req, SbRef sb, Ino ino) {
  auto r = lower().getattr(req, sb.reborrow(), ino);
  if (!r.ok()) return r;
  auto it = pending_.find(ino);
  if (it != pending_.end()) {
    r.value().size = std::max(r.value().size, it->second.size_floor);
    r.value().blocks = (r.value().size + 511) / 512;
  }
  return r;
}

Result<FileAttr> NvmLogFs::setattr(const Request& req, SbRef sb, Ino ino,
                                   const SetAttrIn& attr) {
  if (attr.set_size) {
    // Truncate: drop pending data beyond the new size (below it the log
    // still wins over the lower FS) — and *log the truncate*, or replay
    // would resurrect earlier logged writes past the new size.
    auto it = pending_.find(ino);
    if (it != pending_.end()) {
      apply_truncate(it->second, attr.size);
      Err e = append_record(ino, attr.size, {}, kRecTruncate);
      if (e == Err::NoSpc) {
        BSIM_TRY(digest(req, sb.reborrow()));
        // Post-digest the log is empty; nothing to order against.
      } else if (e != Err::Ok) {
        return e;
      }
    }
  }
  auto r = lower().setattr(req, sb.reborrow(), ino, attr);
  if (r.ok()) {
    auto it = pending_.find(ino);
    if (it != pending_.end()) {
      r.value().size = std::max(r.value().size, it->second.size_floor);
    }
  }
  return r;
}

Err NvmLogFs::unlink(const Request& req, SbRef sb, Ino parent,
                     std::string_view name) {
  // The victim's pending data dies with the name (the lower inode may be
  // reused; stale extents must not resurface).
  auto looked = lower().lookup(req, sb.reborrow(), parent, name);
  Err e = lower().unlink(req, sb.reborrow(), parent, name);
  if (e == Err::Ok && looked.ok()) drop_pending(looked.value().ino);
  return e;
}

Err NvmLogFs::rename(const Request& req, SbRef sb, Ino old_parent,
                     std::string_view old_name, Ino new_parent,
                     std::string_view new_name) {
  // A displaced target's pending data dies with it.
  auto displaced = lower().lookup(req, sb.reborrow(), new_parent, new_name);
  Err e = lower().rename(req, sb.reborrow(), old_parent, old_name, new_parent,
                         new_name);
  if (e == Err::Ok && displaced.ok()) drop_pending(displaced.value().ino);
  return e;
}

Result<std::uint32_t> NvmLogFs::read(const Request& req, SbRef sb, Ino ino,
                                     std::uint64_t fh, std::uint64_t off,
                                     std::span<std::byte> out) {
  // Effective size = lower size overlaid with logged extents.
  auto it = pending_.find(ino);
  const std::uint64_t floor =
      it != pending_.end() ? it->second.size_floor : 0;

  auto lower_read = lower().read(req, sb.reborrow(), ino, fh, off, out);
  std::uint32_t n = 0;
  if (lower_read.ok()) {
    n = lower_read.value();
  } else if (floor == 0) {
    return lower_read;
  }
  if (it == pending_.end()) return lower_read;

  // Extend the readable window into log-only territory (zeros between
  // lower EOF and logged extents, like a hole).
  if (floor > off) {
    const std::uint64_t want =
        std::min<std::uint64_t>(out.size(), floor - off);
    if (want > n) {
      std::fill(out.begin() + n, out.begin() + static_cast<std::ptrdiff_t>(want),
                std::byte{0});
      n = static_cast<std::uint32_t>(want);
    }
  }

  // Overlay pending extents intersecting [off, off+n).
  const std::uint64_t end = off + n;
  for (auto ext = it->second.extents.begin();
       ext != it->second.extents.end() && ext->first < end; ++ext) {
    const std::uint64_t eend = ext->first + ext->second.size();
    if (eend <= off) continue;
    const std::uint64_t from = std::max(off, ext->first);
    const std::uint64_t to = std::min(end, eend);
    std::memcpy(out.data() + (from - off),
                ext->second.data() + (from - ext->first), to - from);
  }
  return n;
}

Result<std::uint32_t> NvmLogFs::write(const Request& req, SbRef sb, Ino ino,
                                      std::uint64_t fh, std::uint64_t off,
                                      std::span<const std::byte> in) {
  Err e = append_record(ino, off, in, kRecData);
  if (e == Err::NoSpc) {
    BSIM_TRY(digest(req, sb.reborrow()));
    e = append_record(ino, off, in, kRecData);
  }
  if (e != Err::Ok) return e;
  overlay_insert(pending_[ino], off, in);
  (void)fh;
  if (log_tail_ >= opts_.digest_watermark) {
    BSIM_TRY(digest(req, sb.reborrow()));
  }
  return static_cast<std::uint32_t>(in.size());
}

Result<std::uint32_t> NvmLogFs::write_bulk(
    const Request& req, SbRef sb, Ino ino, std::uint64_t off,
    std::span<const std::span<const std::byte>> pages) {
  // A contiguous bulk run lands as ONE gathered log record (one header,
  // one checksum) instead of a record per page.
  std::size_t total = 0;
  for (const auto& page : pages) total += page.size();
  Err e = append_record_gather(ino, off, pages, kRecData);
  if (e == Err::NoSpc) {
    BSIM_TRY(digest(req, sb.reborrow()));
    e = append_record_gather(ino, off, pages, kRecData);
  }
  if (e == Err::NoSpc) {
    // Run larger than the (empty) log: fall back to per-page records,
    // digesting between them.
    std::uint32_t done = 0;
    for (const auto& page : pages) {
      auto w = write(req, sb.reborrow(), ino, 0, off + done, page);
      if (!w.ok()) return w;
      done += w.value();
    }
    return done;
  }
  if (e != Err::Ok) return e;
  std::uint64_t at = off;
  for (const auto& page : pages) {
    overlay_insert(pending_[ino], at, page);
    at += page.size();
  }
  if (log_tail_ >= opts_.digest_watermark) {
    BSIM_TRY(digest(req, sb.reborrow()));
  }
  return static_cast<std::uint32_t>(total);
}

Err NvmLogFs::fsync(const Request&, SbRef, Ino, std::uint64_t, bool) {
  // The Strata fast path: durability is one persist barrier on the log.
  nvm_->persist_barrier();
  return Err::Ok;
}

// ---- whole-fs ----

Result<StatfsOut> NvmLogFs::statfs(const Request& req, SbRef sb) {
  auto r = lower().statfs(req, sb.reborrow());
  if (!r.ok()) return r;
  // Data held in the log consumes space the digest will need: report it
  // as used so callers see a consistent free-space trajectory.
  const std::uint64_t pending_blocks =
      (pending_bytes() + kern::kPageSize - 1) / kern::kPageSize;
  r.value().free_blocks -= std::min(r.value().free_blocks, pending_blocks);
  return r;
}

Err NvmLogFs::sync_fs(const Request& req, SbRef sb) {
  return digest(req, sb.reborrow());
}

}  // namespace bsim::bento
