#include "bento/provenance.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::bento {

using kern::Err;

// ---- ProvenanceStore ----

void ProvenanceStore::register_process(std::uint32_t pid, std::string image) {
  auto& p = procs_[pid];
  p.image = std::move(image);
  p.read_set.clear();
}

void ProvenanceStore::forget_process(std::uint32_t pid) { procs_.erase(pid); }

ProvenanceStore::FileRecord& ProvenanceStore::file(Ino ino) {
  auto& rec = files_[ino];
  if (rec.versions.empty()) rec.versions.emplace_back();
  return rec;
}

ProvenanceStore::Version& ProvenanceStore::current(Ino ino) {
  auto& rec = file(ino);
  return rec.versions.back();
}

void ProvenanceStore::on_read(std::uint32_t pid, Ino ino) {
  auto& rec = file(ino);
  const std::uint64_t seq = rec.versions.size() - 1;
  rec.versions[seq].ever_read = true;
  procs_[pid].read_set.insert(ProvSource::file(ino, seq));
}

void ProvenanceStore::on_write(std::uint32_t pid, Ino ino,
                               const SnapshotFn& snapshot) {
  auto& rec = file(ino);
  Version* cur = &rec.versions.back();

  // Version transition: the current version was published (barrier) or
  // belongs to a different writer. The outgoing version's contents are
  // retained iff provenance can still need them — someone read them (the
  // read may yet become an edge) or an edge already exists.
  const bool transition =
      !cur->open || (cur->writer_pid != 0 && cur->writer_pid != pid);
  if (transition && (cur->open || !cur->inputs.empty() || cur->ever_read)) {
    if (cur->ever_read && !cur->snapshot.has_value()) {
      cur->snapshot = snapshot();
      retained_bytes_ += cur->snapshot->size();
    }
    rec.versions.emplace_back();
    cur = &rec.versions.back();
  }

  cur->open = true;
  cur->writer_pid = pid;
  auto it = procs_.find(pid);
  if (it != procs_.end()) {
    // Self-edges (a process appending to a file it read) are dropped: a
    // version cannot be its own input.
    for (const auto& src : it->second.read_set) {
      if (src.kind == ProvSource::Kind::FileVersion && src.ino == ino &&
          src.seq == rec.versions.size() - 1) {
        continue;
      }
      cur->inputs.insert(src);
    }
    if (!it->second.image.empty()) {
      cur->inputs.insert(ProvSource::img(it->second.image));
    }
  }
}

void ProvenanceStore::version_barrier(Ino ino) {
  auto it = files_.find(ino);
  if (it == files_.end() || it->second.versions.empty()) return;
  it->second.versions.back().open = false;
}

void ProvenanceStore::on_unlink(Ino ino) {
  auto it = files_.find(ino);
  if (it == files_.end()) return;
  it->second.live = false;
  it->second.versions.back().open = false;
}

std::uint64_t ProvenanceStore::current_seq(Ino ino) const {
  auto it = files_.find(ino);
  if (it == files_.end() || it->second.versions.empty()) return 0;
  return it->second.versions.size() - 1;
}

std::set<ProvSource> ProvenanceStore::sources_of(Ino ino) const {
  return sources_of(ino, current_seq(ino));
}

std::set<ProvSource> ProvenanceStore::sources_of(Ino ino,
                                                 std::uint64_t seq) const {
  auto it = files_.find(ino);
  if (it == files_.end() || seq >= it->second.versions.size()) return {};
  return it->second.versions[seq].inputs;
}

std::set<ProvSource> ProvenanceStore::lineage_of(Ino ino) const {
  std::set<ProvSource> seen;
  std::deque<ProvSource> frontier;
  for (const auto& s : sources_of(ino)) {
    if (seen.insert(s).second) frontier.push_back(s);
  }
  while (!frontier.empty()) {
    const ProvSource s = frontier.front();
    frontier.pop_front();
    if (s.kind != ProvSource::Kind::FileVersion) continue;
    for (const auto& next : sources_of(s.ino, s.seq)) {
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  return seen;
}

std::set<Ino> ProvenanceStore::tainted_by(Ino source_ino) const {
  std::set<Ino> out;
  for (const auto& [ino, rec] : files_) {
    if (!rec.live || ino == source_ino) continue;
    for (const auto& s : lineage_of(ino)) {
      if (s.kind == ProvSource::Kind::FileVersion && s.ino == source_ino) {
        out.insert(ino);
        break;
      }
    }
  }
  return out;
}

std::set<Ino> ProvenanceStore::tainted_by_image(std::string_view image) const {
  std::set<Ino> out;
  for (const auto& [ino, rec] : files_) {
    if (!rec.live) continue;
    for (const auto& s : lineage_of(ino)) {
      if (s.kind == ProvSource::Kind::Image && s.image == image) {
        out.insert(ino);
        break;
      }
    }
  }
  return out;
}

std::optional<std::vector<std::byte>> ProvenanceStore::read_version(
    Ino ino, std::uint64_t seq) const {
  auto it = files_.find(ino);
  if (it == files_.end() || seq >= it->second.versions.size()) {
    return std::nullopt;
  }
  return it->second.versions[seq].snapshot;
}

std::uint64_t ProvenanceStore::gc() {
  // Mark: every version reachable from a live file's latest version.
  std::set<std::pair<Ino, std::uint64_t>> marked;
  std::deque<std::pair<Ino, std::uint64_t>> frontier;
  for (const auto& [ino, rec] : files_) {
    if (!rec.live) continue;
    const std::uint64_t seq = rec.versions.size() - 1;
    if (marked.insert({ino, seq}).second) frontier.push_back({ino, seq});
  }
  while (!frontier.empty()) {
    const auto [ino, seq] = frontier.front();
    frontier.pop_front();
    for (const auto& s : sources_of(ino, seq)) {
      if (s.kind != ProvSource::Kind::FileVersion) continue;
      if (marked.insert({s.ino, s.seq}).second) {
        frontier.push_back({s.ino, s.seq});
      }
    }
  }

  // Sweep: drop snapshots of unmarked versions; drop dead files whose
  // versions are all unmarked.
  std::uint64_t reclaimed = 0;
  for (auto it = files_.begin(); it != files_.end();) {
    auto& [ino, rec] = *it;
    bool any_marked = false;
    for (std::uint64_t seq = 0; seq < rec.versions.size(); ++seq) {
      auto& v = rec.versions[seq];
      if (marked.contains({ino, seq})) {
        any_marked = true;
        continue;
      }
      if (v.snapshot.has_value()) {
        reclaimed += v.snapshot->size();
        retained_bytes_ -= v.snapshot->size();
        v.snapshot.reset();
      }
    }
    if (!rec.live && !any_marked) {
      it = files_.erase(it);
    } else {
      ++it;
    }
  }
  return reclaimed;
}

// ---- ProvenanceFs ----

namespace {
void charge_track() {
  if (sim::current_or_null() != nullptr) sim::charge(sim::costs().prov_track);
}
}  // namespace

ProvenanceFs::ProvenanceFs(std::unique_ptr<FileSystem> lower)
    : StackedFs(std::move(lower)),
      store_(std::make_shared<ProvenanceStore>()) {}

ProvenanceFs::~ProvenanceFs() = default;

Err ProvenanceFs::unlink(const Request& req, SbRef sb, Ino parent,
                         std::string_view name) {
  // Resolve first so the store learns which ino died.
  auto looked = lower().lookup(req, sb.reborrow(), parent, name);
  Err e = lower().unlink(req, sb.reborrow(), parent, name);
  if (e == Err::Ok && looked.ok()) {
    charge_track();
    store_->on_unlink(looked.value().ino);
  }
  return e;
}

Err ProvenanceFs::release(const Request& req, SbRef sb, Ino ino,
                          std::uint64_t fh) {
  Err e = lower().release(req, sb.reborrow(), ino, fh);
  charge_track();
  store_->version_barrier(ino);
  return e;
}

Result<std::uint32_t> ProvenanceFs::read(const Request& req, SbRef sb,
                                         Ino ino, std::uint64_t fh,
                                         std::uint64_t off,
                                         std::span<std::byte> out) {
  auto r = lower().read(req, sb.reborrow(), ino, fh, off, out);
  if (r.ok()) {
    charge_track();
    store_->on_read(req.pid, ino);
  }
  return r;
}

Result<std::uint32_t> ProvenanceFs::write(const Request& req, SbRef sb,
                                          Ino ino, std::uint64_t fh,
                                          std::uint64_t off,
                                          std::span<const std::byte> in) {
  charge_track();
  // Pre-write contents, fetched from the lower FS only if the store must
  // retain the outgoing version.
  store_->on_write(req.pid, ino, [&]() -> std::vector<std::byte> {
    auto attr = lower().getattr(req, sb.reborrow(), ino);
    if (!attr.ok()) return {};
    std::vector<std::byte> buf(attr.value().size);
    auto r = lower().read(req, sb.reborrow(), ino, 0, 0, buf);
    if (!r.ok()) return {};
    buf.resize(r.value());
    return buf;
  });
  return lower().write(req, sb.reborrow(), ino, fh, off, in);
}

Err ProvenanceFs::fsync(const Request& req, SbRef sb, Ino ino,
                        std::uint64_t fh, bool datasync) {
  Err e = lower().fsync(req, sb.reborrow(), ino, fh, datasync);
  charge_track();
  store_->version_barrier(ino);
  return e;
}

TransferableState ProvenanceFs::prepare_transfer(const Request& req,
                                                 SbRef sb) {
  TransferableState state = StackedFs::prepare_transfer(req, sb.reborrow());
  state.put("provenance.store", store_);
  return state;
}

Err ProvenanceFs::restore_state(const Request& req, SbRef sb,
                                TransferableState state) {
  auto* store = state.get<std::shared_ptr<ProvenanceStore>>("provenance.store");
  if (store != nullptr && *store != nullptr) store_ = *store;
  return StackedFs::restore_state(req, sb.reborrow(), std::move(state));
}

}  // namespace bsim::bento
