#include "blockdev/parity.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "sim/thread.h"

namespace bsim::blk {

namespace {

void xor_into(std::span<std::byte> dst, std::span<const std::byte> src) {
  for (std::size_t i = 0; i < kBlockSize; ++i) dst[i] ^= src[i];
}

bool all_zero(const BlockData& b) {
  for (const std::byte x : b) {
    if (x != std::byte{0}) return false;
  }
  return true;
}

}  // namespace

// ---- geometry ----

std::size_t ParityDevice::parity_member_of(std::uint64_t row) const {
  const std::uint64_t n = nmembers();
  return static_cast<std::size_t>((n - 1) - (row % n));
}

std::size_t ParityDevice::data_member_of(std::uint64_t blockno) const {
  const std::uint64_t chunk = blockno / parity_.chunk_blocks;
  const std::uint64_t row = chunk / parity_.ndata;
  const std::uint64_t d = chunk % parity_.ndata;
  return static_cast<std::size_t>((parity_member_of(row) + 1 + d) %
                                  nmembers());
}

std::uint64_t ParityDevice::child_block_of(std::uint64_t blockno) const {
  const std::uint64_t ck = parity_.chunk_blocks;
  const std::uint64_t row = blockno / ck / parity_.ndata;
  return kBitmapBlocks + row * ck + blockno % ck;
}

DeviceParams ParityDevice::volume_params(
    const ParityParams& pp, const std::vector<DeviceParams>& members) {
  assert(!members.empty());
  DeviceParams p = members.front();
  if (p.nblocks <= kBitmapBlocks) {
    throw std::invalid_argument("parity members too small for the bitmap");
  }
  const std::uint64_t rows =
      (p.nblocks - kBitmapBlocks) / std::max<std::uint64_t>(pp.chunk_blocks, 1);
  // Logical capacity: the data columns of every full stripe row. One
  // member's worth of capacity goes to parity, one block each to the
  // replicated intent bitmap.
  p.nblocks = pp.ndata * rows * pp.chunk_blocks;
  p.channels = 0;
  for (const DeviceParams& m : members) p.channels += m.channels;
  return p;
}

DeviceParams ParityDevice::member_shape(const ParityParams& pp,
                                       DeviceParams volume) {
  const std::uint64_t ck = std::max<std::uint64_t>(pp.chunk_blocks, 1);
  std::uint64_t usable = (volume.nblocks + pp.ndata - 1) / pp.ndata;
  usable = (usable + ck - 1) / ck * ck;
  volume.nblocks = usable + kBitmapBlocks;
  return volume;
}

ParityDevice::ParityDevice(ParityParams pp, DeviceParams member_params)
    : ParityDevice(pp, std::vector<DeviceParams>(pp.ndata + 1,
                                                 member_params)) {}

ParityDevice::ParityDevice(ParityParams pp,
                           std::vector<DeviceParams> member_params)
    : AggregateDevice(volume_params(pp, member_params)), parity_(pp) {
  if (parity_.ndata < 2) {
    throw std::invalid_argument("parity needs at least 2 data columns");
  }
  if (parity_.ndata >= 64) {  // stripe-cache masks: one bit per column
    throw std::invalid_argument("parity supports at most 63 data columns");
  }
  if (member_params.size() != parity_.ndata + 1) {
    throw std::invalid_argument("parity member count must be ndata + 1");
  }
  if (parity_.chunk_blocks == 0) {
    throw std::invalid_argument("chunk_blocks must be positive");
  }
  for (const DeviceParams& p : member_params) {
    if (p.nblocks != member_params.front().nblocks) {
      throw std::invalid_argument("parity members must be the same size");
    }
  }
  rows_ =
      (member_params.front().nblocks - kBitmapBlocks) / parity_.chunk_blocks;
  if (rows_ == 0) {
    throw std::invalid_argument("members too small for one stripe row");
  }
  const std::uint64_t regions = (rows_ + kRegionRows - 1) / kRegionRows;
  if (regions > kBlockSize * 8) {
    throw std::invalid_argument("volume too large for a one-block bitmap");
  }
  region_dirty_.assign(static_cast<std::size_t>(regions), false);
  bitmap_page_.fill(std::byte{0});
  std::vector<std::unique_ptr<BlockDevice>> members;
  for (const DeviceParams& p : member_params) {
    members.push_back(std::make_unique<BlockDevice>(p));
  }
  std::vector<std::unique_ptr<BlockDevice>> spares;
  for (std::size_t i = 0; i < parity_.nspares; ++i) {
    spares.push_back(std::make_unique<BlockDevice>(member_params.front()));
  }
  adopt_children(std::move(members), std::move(spares), parity_.rebuild_batch,
                 parity_.rebuild_lead);
}

ParityDevice::~ParityDevice() = default;

// ---- stripe cache ----

void ParityDevice::StripeCache::mark(std::uint64_t mb, std::uint64_t cols) {
  if (const auto it = index_.find(mb); it != index_.end()) {
    it->second->second |= cols;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(mb, cols);
  index_.emplace(mb, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

// ---- write-intent bitmap ----

void ParityDevice::write_bitmap_page(bool timed) {
  for (std::size_t m = 0; m < children_.size(); ++m) {
    if (timed) {
      if (!serves_writes(m)) continue;
      children_[m]->write_fua(0, bitmap_page_);
      vstats_.bitmap_updates += 1;
    } else {
      children_[m]->write_untimed(0, bitmap_page_);
    }
  }
}

void ParityDevice::mark_regions(
    const std::map<std::uint64_t, LineUpdate>& lines) {
  bool changed = false;
  for (const auto& [mb, line] : lines) {
    const std::uint64_t r = region_of_mb(mb);
    if (region_dirty_[static_cast<std::size_t>(r)]) continue;
    region_dirty_[static_cast<std::size_t>(r)] = true;
    bitmap_page_[static_cast<std::size_t>(r / 8)] |=
        std::byte{1} << static_cast<int>(r % 8);
    changed = true;
  }
  // FUA, and BEFORE any of the batch's data lands: were the intent not
  // durable first, a crash between a line's data and parity writes would
  // leave a silently broken line that resync() cannot find.
  if (changed) write_bitmap_page(/*timed=*/true);
}

std::size_t ParityDevice::dirty_regions() const {
  return static_cast<std::size_t>(
      std::count(region_dirty_.begin(), region_dirty_.end(), true));
}

// ---- XOR reconstruction ----

bool ParityDevice::reconstruct_block_timed(std::size_t m, std::uint64_t mb,
                                           std::span<std::byte> out,
                                           ChildTickets& tickets,
                                           sim::Nanos& last_done,
                                           sim::Nanos& bio_done) {
  std::fill(out.begin(), out.begin() + kBlockSize, std::byte{0});
  BlockData peer;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i == m) continue;
    if (!healthy_[i]) return false;  // double failure: nothing to XOR from
    Bio read = Bio::single_read(mb, peer);
    const Ticket t = children_[i]->submit_async(std::span<Bio>(&read, 1));
    tickets.emplace_back(i, t);
    last_done = std::max(last_done, t.done);
    bio_done = std::max(bio_done, read.done_at);
    if (read.io_error) return false;
    xor_into(out, peer);
  }
  vstats_.reconstructed_blocks += 1;
  return true;
}

void ParityDevice::reconstruct_block_untimed(std::size_t m, std::uint64_t mb,
                                             std::span<std::byte> out) {
  std::fill(out.begin(), out.begin() + kBlockSize, std::byte{0});
  BlockData tmp;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i == m) continue;
    children_[i]->read_untimed(mb, tmp);
    xor_into(out, tmp);
  }
}

// ---- write path ----

void ParityDevice::submit_write_lines(const std::vector<Bio*>& parents,
                                      ChildTickets& tickets,
                                      sim::Nanos& last_done) {
  if (parents.empty()) return;
  const std::size_t n = children_.size();
  const std::uint64_t ck = parity_.chunk_blocks;
  const bool deg = degraded();
  // Whether the stripe cache may learn this batch's writes (step 8): only
  // on a fully healthy array, and only if no I/O below fails.
  bool clean = !deg;
  if (deg) stripe_cache_.clear();

  // 1. Classify the batch into parity lines, keyed by the member-local
  //    line block (where both the line's data and its parity live on
  //    their respective members).
  std::map<std::uint64_t, LineUpdate> lines;
  for (Bio* parent : parents) {
    assert(!parent->vecs.empty() && "submitting an empty bio");
    parent->done_at = 0;
    parent->applied = true;  // AND-ed with every fragment below
    if (deg) vstats_.degraded_writes += 1;
    for (const BioVec& v : parent->vecs) {
      const std::size_t d =
          static_cast<std::size_t>((v.blockno / ck) % parity_.ndata);
      LineUpdate& line = lines[child_block_of(v.blockno)];
      if (line.newdata.empty()) {
        line.newdata.assign(parity_.ndata, {});
        line.olddata.assign(parity_.ndata, nullptr);
      }
      if (line.newdata[d].empty()) line.written += 1;
      line.newdata[d] = v.wdata;  // same-block rewrites: last writer wins
      if (line.writers.empty() || line.writers.back() != parent) {
        line.writers.push_back(parent);
      }
    }
  }

  // 2. Pick each line's parity plan. With at most one lost member parity
  //    is always maintainable: a failed written column forces
  //    reconstruct-write, a failed unwritten column forces RMW; only a
  //    lost parity member skips the update (the region stays marked).
  //    Each plan is priced by the reads it still needs after stripe-cache
  //    hits.
  for (auto& [mb, line] : lines) {
    const std::uint64_t row = (mb - kBitmapBlocks) / ck;
    const std::size_t p = parity_member_of(row);
    if (!serves_writes(p)) {
      line.plan = LinePlan::Skip;
      continue;
    }
    if (line.written == parity_.ndata) {
      line.plan = LinePlan::Full;
      continue;
    }
    const std::uint64_t warm = stripe_cache_.resident(mb);
    const auto cold = [warm](std::size_t col) {
      return static_cast<std::size_t>(((warm >> col) & 1) == 0);
    };
    bool rmw_ok = healthy_[p];  // a resyncing parity member is stale
    bool recon_ok = true;
    std::size_t rmw_reads = cold(parity_.ndata);
    std::size_t recon_reads = 0;
    for (std::size_t d = 0; d < parity_.ndata; ++d) {
      const std::size_t m = (p + 1 + d) % n;
      if (!line.newdata[d].empty()) {
        rmw_ok = rmw_ok && healthy_[m];
        rmw_reads += cold(d);
      } else {
        recon_ok = recon_ok && healthy_[m];
        recon_reads += cold(d);
      }
    }
    if (rmw_ok && (!recon_ok || rmw_reads <= recon_reads)) {
      line.plan = LinePlan::Rmw;
    } else if (recon_ok) {
      line.plan = LinePlan::Reconstruct;
    } else {
      line.plan = LinePlan::Skip;  // doubly degraded
    }
  }

  // 3. Durable write intent before any data lands.
  mark_regions(lines);

  // 4. Prefetch the pre-images the plans need: one async batch per
  //    member (its elevator merges adjacent blocks), then a barrier —
  //    the new writes cannot be issued before the old content is in
  //    hand, so the submitter pays the RMW penalty, like md waiting on
  //    its stripe-cache fill. A pre-image the stripe cache marks resident
  //    is copied untimed instead: the same bytes, no read.
  std::deque<BlockData> arena;
  std::vector<std::vector<Bio>> pre(n);
  // (line mb, column index | ndata for parity), aligned with pre[m] —
  // to patch medium errors back to their line.
  std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> pre_src(n);
  for (auto& [mb, line] : lines) {
    if (line.plan != LinePlan::Rmw && line.plan != LinePlan::Reconstruct) {
      continue;
    }
    const std::uint64_t row = (mb - kBitmapBlocks) / ck;
    const std::size_t p = parity_member_of(row);
    const bool rmw = line.plan == LinePlan::Rmw;
    const std::uint64_t warm = stripe_cache_.resident(mb);
    // Pre-image of column `col` (data column d, or ndata for the parity)
    // held on member `m`.
    const auto fetch = [&](std::size_t m, std::size_t col) {
      arena.emplace_back();
      BlockData& img = arena.back();
      if ((warm >> col) & 1) {
        children_[m]->read_untimed(mb, img);
        vstats_.stripe_cache_hits += 1;
      } else {
        pre[m].push_back(Bio::single_read(mb, img));
        pre_src[m].emplace_back(mb, col);
      }
      return &img;
    };
    for (std::size_t d = 0; d < parity_.ndata; ++d) {
      const bool want =
          rmw ? !line.newdata[d].empty() : line.newdata[d].empty();
      if (want) line.olddata[d] = fetch((p + 1 + d) % n, d);
    }
    if (rmw) line.old_parity = fetch(p, parity_.ndata);
  }
  sim::Nanos prefetch_done = 0;
  for (std::size_t m = 0; m < n; ++m) {
    if (pre[m].empty()) continue;
    const Ticket t = children_[m]->submit_async(pre[m]);
    tickets.emplace_back(m, t);
    last_done = std::max(last_done, t.done);
    prefetch_done = std::max(prefetch_done, t.done);
    vstats_.rmw_read_blocks += pre[m].size();
  }
  // Medium errors on a pre-image: re-derive the block by XOR of the other
  // members and rewrite it in place (self-healing); if even that fails,
  // the line's parity is left stale — and its region stays marked.
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t i = 0; i < pre[m].size(); ++i) {
      if (!pre[m][i].io_error) continue;
      clean = false;
      const auto [lmb, col] = pre_src[m][i];
      LineUpdate& line = lines[lmb];
      BlockData* dst =
          col == parity_.ndata ? line.old_parity : line.olddata[col];
      sim::Nanos bio_done = 0;
      if (reconstruct_block_timed(m, lmb, *dst, tickets, last_done,
                                  bio_done)) {
        Bio heal = Bio::single_write(lmb, *dst);
        const Ticket t = children_[m]->submit_async(std::span<Bio>(&heal, 1));
        tickets.emplace_back(m, t);
        last_done = std::max(last_done, t.done);
        prefetch_done = std::max(prefetch_done, bio_done);
        vstats_.read_error_failovers += 1;
      } else {
        line.ok = false;
      }
    }
  }
  if (prefetch_done > 0) sim::current().wait_until(prefetch_done);

  // 5. Compute the new parity blocks.
  std::vector<std::vector<Bio>> pwrites(n);
  std::vector<std::vector<const LineUpdate*>> powners(n);
  for (auto& [mb, line] : lines) {
    if (line.plan == LinePlan::Skip || !line.ok) continue;
    const std::uint64_t row = (mb - kBitmapBlocks) / ck;
    const std::size_t p = parity_member_of(row);
    arena.emplace_back();
    BlockData& par = arena.back();
    par.fill(std::byte{0});
    switch (line.plan) {
      case LinePlan::Full:
        for (std::size_t d = 0; d < parity_.ndata; ++d) {
          xor_into(par, line.newdata[d]);
        }
        vstats_.full_stripe_writes += 1;
        break;
      case LinePlan::Rmw:
        xor_into(par, *line.old_parity);
        for (std::size_t d = 0; d < parity_.ndata; ++d) {
          if (line.newdata[d].empty()) continue;
          xor_into(par, *line.olddata[d]);
          xor_into(par, line.newdata[d]);
        }
        vstats_.rmw_writes += 1;
        break;
      case LinePlan::Reconstruct:
        for (std::size_t d = 0; d < parity_.ndata; ++d) {
          if (!line.newdata[d].empty()) {
            xor_into(par, line.newdata[d]);
          } else {
            xor_into(par, *line.olddata[d]);
          }
        }
        vstats_.rmw_writes += 1;  // partial-line update, degraded shape
        break;
      case LinePlan::Skip:
        break;
    }
    pwrites[p].push_back(Bio::single_write(mb, par));
    powners[p].push_back(&line);
  }

  // 6. Data fragments: striped-style, one bio per consecutive
  //    member-block run per parent, one async batch per member.
  std::vector<std::vector<Bio>> frags(n);
  std::vector<std::vector<Bio*>> owners(n);
  for (Bio* parent : parents) {
    for (const BioVec& v : parent->vecs) {
      const std::size_t m = data_member_of(v.blockno);
      const std::uint64_t mb = child_block_of(v.blockno);
      if (!serves_writes(m)) {
        // The data member is gone: the write survives only through the
        // parity update (a degraded write) — or not at all.
        LineUpdate& line = lines[mb];
        if (line.plan == LinePlan::Skip || !line.ok) {
          parent->applied = false;
        } else {
          line.parity_reliant.push_back(parent);
        }
        continue;
      }
      if (frags[m].empty() || owners[m].back() != parent ||
          frags[m].back().end_block() != mb) {
        frags[m].emplace_back(BioOp::Write);
        frags[m].back().parent_trace_id = parent->trace_id;
        owners[m].push_back(parent);
        vstats_.fragments += 1;
      }
      frags[m].back().add_write(mb, v.wdata);
    }
  }
  for (std::size_t m = 0; m < n; ++m) {
    if (frags[m].empty()) continue;
    const Ticket t = children_[m]->submit_async(frags[m]);
    tickets.emplace_back(m, t);
    last_done = std::max(last_done, t.done);
    for (std::size_t i = 0; i < frags[m].size(); ++i) {
      Bio* parent = owners[m][i];
      parent->done_at = std::max(parent->done_at, frags[m][i].done_at);
      if (!frags[m][i].applied) parent->applied = false;
      if (!frags[m][i].applied || frags[m][i].io_error) clean = false;
      // A failed data write is NOT absorbed by redundancy: the new parity
      // was computed against the new data, so the line is inconsistent
      // and the new data exists nowhere durable. The region stays marked
      // (scrub re-derives consistent parity from the surviving old data)
      // but the logical write itself has failed — swallowing it here
      // would be silent data loss.
      if (frags[m][i].io_error) parent->io_error = true;
    }
  }

  // 7. Parity follows its lines' data on each member queue; the window
  //    between the two is the write hole the intent bitmap covers.
  for (std::size_t m = 0; m < n; ++m) {
    if (pwrites[m].empty()) continue;
    const Ticket t = children_[m]->submit_async(pwrites[m]);
    tickets.emplace_back(m, t);
    last_done = std::max(last_done, t.done);
    vstats_.parity_writes += pwrites[m].size();
    for (std::size_t i = 0; i < pwrites[m].size(); ++i) {
      const LineUpdate& line = *powners[m][i];
      if (!pwrites[m][i].applied || pwrites[m][i].io_error) clean = false;
      for (Bio* parent : line.writers) {
        parent->done_at = std::max(parent->done_at, pwrites[m][i].done_at);
      }
      for (Bio* parent : line.parity_reliant) {
        if (!pwrites[m][i].applied) parent->applied = false;
        // A degraded write survives ONLY through the parity update; if
        // that failed, the write failed. (For ordinary lines a failed
        // parity write is absorbed: the data landed, the region stays
        // marked, and scrub re-derives the parity.)
        if (pwrites[m][i].io_error) parent->io_error = true;
      }
    }
  }

  // 8. The stripe cache learns what this batch left on the members: its
  //    written columns and the new parity of every line. A batch with any
  //    error leaves member content the array cannot vouch for: drop all.
  if (clean) {
    const std::uint64_t parity_bit = std::uint64_t{1} << parity_.ndata;
    for (const auto& [mb, line] : lines) {
      std::uint64_t cols = parity_bit;
      for (std::size_t d = 0; d < parity_.ndata; ++d) {
        if (!line.newdata[d].empty()) cols |= std::uint64_t{1} << d;
      }
      stripe_cache_.mark(mb, cols);
    }
  } else {
    stripe_cache_.clear();
  }

  for (Bio* parent : parents) {
    if (parent->done_at == 0) parent->done_at = sim::now();
  }
}

void ParityDevice::submit_dead_writes(const std::vector<Bio*>& parents,
                                      ChildTickets& tickets,
                                      sim::Nanos& last_done) {
  if (parents.empty()) return;
  const std::size_t n = children_.size();
  std::vector<std::vector<Bio>> frags(n);
  std::vector<std::vector<Bio*>> owners(n);
  for (Bio* parent : parents) {
    parent->done_at = 0;
    parent->applied = true;
    for (const BioVec& v : parent->vecs) {
      const std::size_t m = data_member_of(v.blockno);
      const std::uint64_t mb = child_block_of(v.blockno);
      if (!serves_writes(m)) {
        parent->applied = false;
        continue;
      }
      if (frags[m].empty() || owners[m].back() != parent ||
          frags[m].back().end_block() != mb) {
        frags[m].emplace_back(BioOp::Write);
        frags[m].back().parent_trace_id = parent->trace_id;
        owners[m].push_back(parent);
      }
      frags[m].back().add_write(mb, v.wdata);
    }
  }
  for (std::size_t m = 0; m < n; ++m) {
    if (frags[m].empty()) continue;
    const Ticket t = children_[m]->submit_async(frags[m]);
    tickets.emplace_back(m, t);
    last_done = std::max(last_done, t.done);
    for (std::size_t i = 0; i < frags[m].size(); ++i) {
      owners[m][i]->done_at =
          std::max(owners[m][i]->done_at, frags[m][i].done_at);
      if (!frags[m][i].applied) owners[m][i]->applied = false;
    }
  }
  for (Bio* parent : parents) {
    if (parent->done_at == 0) parent->done_at = sim::now();
  }
}

// ---- read path ----

void ParityDevice::submit_reads(const std::vector<Bio*>& parents,
                                ChildTickets& tickets,
                                sim::Nanos& last_done) {
  if (parents.empty()) return;
  const std::size_t n = children_.size();
  std::vector<std::vector<Bio>> frags(n);
  std::vector<std::vector<Bio*>> owners(n);
  struct Recon {
    std::size_t m;
    std::uint64_t mb;
    std::span<std::byte> out;
    Bio* parent;
  };
  std::vector<Recon> recon;

  for (Bio* parent : parents) {
    assert(!parent->vecs.empty() && "submitting an empty bio");
    parent->done_at = 0;
    parent->io_error = false;
    bool degraded_bio = false;
    for (const BioVec& v : parent->vecs) {
      const std::size_t m = data_member_of(v.blockno);
      const std::uint64_t mb = child_block_of(v.blockno);
      if (!healthy_[m]) {  // lost (or still resyncing): XOR-reconstruct
        recon.push_back({m, mb, v.data, parent});
        degraded_bio = true;
        continue;
      }
      if (frags[m].empty() || owners[m].back() != parent ||
          frags[m].back().end_block() != mb) {
        frags[m].emplace_back(BioOp::Read);
        frags[m].back().parent_trace_id = parent->trace_id;
        owners[m].push_back(parent);
        vstats_.fragments += 1;
      }
      frags[m].back().add_read(mb, v.data);
    }
    if (degraded_bio) vstats_.degraded_reads += 1;
  }

  for (std::size_t m = 0; m < n; ++m) {
    if (frags[m].empty()) continue;
    const Ticket t = children_[m]->submit_async(frags[m]);
    tickets.emplace_back(m, t);
    last_done = std::max(last_done, t.done);
    for (std::size_t i = 0; i < frags[m].size(); ++i) {
      Bio* parent = owners[m][i];
      parent->done_at = std::max(parent->done_at, frags[m][i].done_at);
      if (frags[m][i].io_error) parent->io_error = true;  // healed below
    }
  }

  // Medium-error failover: re-serve every block of a failed fragment by
  // XOR of the other members and rewrite the reconstructed content in
  // place (self-healing, md's read-error rewrite). The failed attempt
  // still cost its service time.
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t i = 0; i < frags[m].size(); ++i) {
      if (!frags[m][i].io_error) continue;
      stripe_cache_.clear();  // the heal rewrites member content
      Bio* parent = owners[m][i];
      parent->io_error = false;
      vstats_.read_error_failovers += 1;
      std::vector<Bio> heals;
      for (const BioVec& v : frags[m][i].vecs) {
        sim::Nanos bio_done = 0;
        if (!reconstruct_block_timed(m, v.blockno, v.data, tickets,
                                     last_done, bio_done)) {
          parent->io_error = true;
          continue;
        }
        parent->done_at = std::max(parent->done_at, bio_done);
        heals.push_back(Bio::single_write(v.blockno, v.data));
      }
      if (!heals.empty()) {
        const Ticket t = children_[m]->submit_async(heals);
        tickets.emplace_back(m, t);
        last_done = std::max(last_done, t.done);
      }
    }
  }

  // Degraded reconstruction: blocks whose data member is lost.
  for (const Recon& r : recon) {
    sim::Nanos bio_done = 0;
    if (!reconstruct_block_timed(r.m, r.mb, r.out, tickets, last_done,
                                 bio_done)) {
      r.parent->io_error = true;
      continue;
    }
    r.parent->done_at = std::max(r.parent->done_at, bio_done);
  }

  for (Bio* parent : parents) {
    parent->applied = !parent->io_error;
    if (parent->done_at == 0) parent->done_at = sim::now();
  }
}

void ParityDevice::route_policy(const std::vector<Bio*>& writes,
                                const std::vector<Bio*>& killed, bool fire,
                                const std::vector<Bio*>& reads,
                                ChildTickets& tickets,
                                sim::Nanos& last_done) {
  submit_write_lines(writes, tickets, last_done);
  if (fire) {
    mark_volume_dead();
    // Power died: plain data fragments only. RMW reads and parity
    // updates are work the real array never got to do — and every
    // member, now off, swallows the data anyway.
    submit_dead_writes(killed, tickets, last_done);
  }
  submit_reads(reads, tickets, last_done);
}

// ---- untimed access (mkfs, oracles, recovery tooling) ----

void ParityDevice::read_untimed(std::uint64_t blockno,
                                std::span<std::byte> out) {
  const std::size_t m = data_member_of(blockno);
  if (healthy_[m]) {
    children_[m]->read_untimed(child_block_of(blockno), out);
    return;
  }
  reconstruct_block_untimed(m, child_block_of(blockno), out);
}

void ParityDevice::write_untimed(std::uint64_t blockno,
                                 std::span<const std::byte> in) {
  stripe_cache_.clear();
  const std::size_t m = data_member_of(blockno);
  const std::uint64_t mb = child_block_of(blockno);
  const std::size_t p = parity_member_of(row_of(blockno));
  const bool update_parity = serves_writes(p);
  BlockData par;
  if (update_parity) {
    if (healthy_[m] && healthy_[p]) {
      // RMW-style: parity ^= old ^ new.
      BlockData tmp;
      children_[p]->read_untimed(mb, par);
      children_[m]->read_untimed(mb, tmp);
      xor_into(par, tmp);
      xor_into(par, in);
    } else {
      // Reconstruct-style: XOR of every data column, `in` standing in
      // for this one (the initial all-zero media is parity-consistent,
      // so mkfs through this path keeps every line consistent).
      std::memcpy(par.data(), in.data(), kBlockSize);
      BlockData tmp;
      for (std::size_t d = 0; d < parity_.ndata; ++d) {
        const std::size_t i = (p + 1 + d) % children_.size();
        if (i == m) continue;
        children_[i]->read_untimed(mb, tmp);
        xor_into(par, tmp);
      }
    }
  }
  if (serves_writes(m)) children_[m]->write_untimed(mb, in);
  if (update_parity) children_[p]->write_untimed(mb, par);
}

// ---- crash recovery ----

void ParityDevice::recompute_row_untimed(std::uint64_t row) {
  const std::uint64_t ck = parity_.chunk_blocks;
  const std::size_t p = parity_member_of(row);
  BlockData par, tmp;
  for (std::uint64_t off = 0; off < ck; ++off) {
    const std::uint64_t mb = kBitmapBlocks + row * ck + off;
    par.fill(std::byte{0});
    for (std::size_t d = 0; d < parity_.ndata; ++d) {
      const std::size_t i = (p + 1 + d) % children_.size();
      children_[i]->read_untimed(mb, tmp);
      xor_into(par, tmp);
    }
    children_[p]->write_untimed(mb, par);
  }
}

void ParityDevice::resync() {
  // Array assembly after power loss: only regions marked in the intent
  // bitmap can hold a broken line (data landed, parity did not — or the
  // other way round). Recompute those regions' parity from the data
  // columns wholesale, then retire the intent bits.
  stripe_cache_.clear();
  for (std::size_t r = 0; r < region_dirty_.size(); ++r) {
    if (!region_dirty_[r]) continue;
    const std::uint64_t last = std::min<std::uint64_t>(
        rows_, (static_cast<std::uint64_t>(r) + 1) * kRegionRows);
    for (std::uint64_t row = r * kRegionRows; row < last; ++row) {
      recompute_row_untimed(row);
    }
    region_dirty_[r] = false;
  }
  bitmap_page_.fill(std::byte{0});
  write_bitmap_page(/*timed=*/false);
}

bool ParityDevice::dead() const {
  if (volume_killed()) return true;
  for (const auto& m : children_) {
    if (!m->dead()) return false;
  }
  return true;
}

// ---- rebuild hooks ----

bool ParityDevice::has_rebuild_source(std::size_t target) const {
  // XOR reconstruction needs EVERY other member (unlike a mirror's any-one).
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i != target && !healthy_[i]) return false;
  }
  return true;
}

bool ParityDevice::rebuild_source_read(std::uint64_t start, std::uint64_t n) {
  const std::size_t tgt = *rebuild_target();
  const std::uint64_t data_end = kBitmapBlocks + member_usable();
  for (std::uint64_t i = 0; i < n; ++i) rebuild_buf_[i].fill(std::byte{0});

  // Bitmap head: replicated, not parity-protected — copy from a peer.
  // (The XOR of identical replicas would be garbage, not the content.)
  if (start < kBitmapBlocks) {
    const std::uint64_t bm_n = std::min(n, kBitmapBlocks - start);
    std::size_t src = children_.size();
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i != tgt && healthy_[i]) {
        src = i;
        break;
      }
    }
    if (src == children_.size()) return false;
    Bio read(BioOp::Read);
    for (std::uint64_t i = 0; i < bm_n; ++i) {
      read.add_read(start + i, rebuild_buf_[i]);
    }
    children_[src]->submit(read);
    if (read.io_error) return false;
  }

  // Data area: XOR of every other member's run (all peers read
  // concurrently; content is available at submission). Blocks past the
  // data area — chunk-rounding slack — stay zero.
  const std::uint64_t d0 = std::max(start, kBitmapBlocks);
  const std::uint64_t d1 = std::min(start + n, data_end);
  if (d1 > d0) {
    std::vector<BlockData> peer(d1 - d0);
    sim::Nanos done = 0;
    for (std::size_t m = 0; m < children_.size(); ++m) {
      if (m == tgt) continue;
      if (!healthy_[m]) return false;  // lost redundancy mid-rebuild
      Bio read(BioOp::Read);
      for (std::uint64_t i = 0; i < d1 - d0; ++i) {
        read.add_read(d0 + i, peer[i]);
      }
      const Ticket t = children_[m]->submit_async(std::span<Bio>(&read, 1));
      done = std::max(done, t.done);
      if (read.io_error) return false;
      for (std::uint64_t i = 0; i < d1 - d0; ++i) {
        xor_into(rebuild_buf_[d0 - start + i], peer[i]);
      }
    }
    sim::current().wait_until(done);
  }
  return true;
}

// ---- scrub ----

std::uint64_t ParityDevice::scrub_step(std::uint64_t cursor) {
  const std::uint64_t extent = scrub_extent();
  const std::uint64_t nl = std::min<std::uint64_t>(
      std::max<std::uint64_t>(parity_.rebuild_batch, 1), extent - cursor);
  // Verification compares whole lines: it needs every member present.
  if (degraded()) {
    scrub_skipped_ = true;
    return nl;
  }
  const std::uint64_t mb0 = kBitmapBlocks + cursor;
  const std::size_t n = children_.size();
  std::vector<std::vector<BlockData>> buf(n);
  sim::Nanos done = 0;
  for (std::size_t m = 0; m < n; ++m) {
    buf[m].resize(nl);
    Bio read(BioOp::Read);
    for (std::uint64_t i = 0; i < nl; ++i) read.add_read(mb0 + i, buf[m][i]);
    const Ticket t = children_[m]->submit_async(std::span<Bio>(&read, 1));
    done = std::max(done, t.done);
    if (read.io_error) {
      // Medium or scheduled error: this line batch goes UNVERIFIED (never
      // "repair" from a failed read's buffer — a fault window must not
      // rewrite good parity). The pass completes but must not clear the
      // intent bits it did not check.
      scrub_skipped_ = true;
      return nl;
    }
  }
  sim::current().wait_until(done);
  for (std::uint64_t i = 0; i < nl; ++i) {
    BlockData x;
    x.fill(std::byte{0});
    for (std::size_t m = 0; m < n; ++m) xor_into(x, buf[m][i]);
    if (all_zero(x)) continue;
    astats_.scrub_mismatches += 1;
    // Recompute parity from the data columns and rewrite it — md's
    // "repair" sync_action. Data is presumed good, parity stale: the
    // write-hole shape.
    const std::uint64_t row = (cursor + i) / parity_.chunk_blocks;
    const std::size_t p = parity_member_of(row);
    BlockData par;
    par.fill(std::byte{0});
    for (std::size_t m = 0; m < n; ++m) {
      if (m != p) xor_into(par, buf[m][i]);
    }
    stripe_cache_.clear();
    Bio repair = Bio::single_write(mb0 + i, par);
    children_[p]->submit(repair);
    if (repair.applied) {
      astats_.scrub_repairs += 1;
    } else {
      scrub_skipped_ = true;  // repair lost to a fault: line still stale
    }
  }
  return nl;
}

void ParityDevice::on_scrub_complete() {
  // A clean, non-degraded pass verified every line: the write-hole
  // exposure the sticky intent bits recorded is gone. (A pass that ran
  // degraded — or skipped lines on faulted reads/repairs — did NOT verify
  // everything: keep the bits for the next pass.)
  const bool skipped = scrub_skipped_;
  scrub_skipped_ = false;
  if (degraded() || skipped) return;
  if (dirty_regions() == 0) return;
  region_dirty_.assign(region_dirty_.size(), false);
  bitmap_page_.fill(std::byte{0});
  write_bitmap_page(/*timed=*/true);
}

}  // namespace bsim::blk
