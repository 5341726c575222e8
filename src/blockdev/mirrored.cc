#include "blockdev/mirrored.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>


namespace bsim::blk {

DeviceParams MirroredDevice::volume_params(
    const std::vector<DeviceParams>& members) {
  assert(!members.empty());
  DeviceParams p = members.front();
  // Every member stores the full image: the volume's logical size is one
  // member's size; read capacity is the members' channels combined.
  p.channels = 0;
  for (const DeviceParams& m : members) p.channels += m.channels;
  return p;
}

MirroredDevice::MirroredDevice(MirrorParams mp, DeviceParams member_params)
    : MirroredDevice(mp, std::vector<DeviceParams>(
                             std::max<std::size_t>(mp.nmirrors, 1),
                             member_params)) {}

MirroredDevice::MirroredDevice(MirrorParams mp,
                               std::vector<DeviceParams> member_params)
    : AggregateDevice(volume_params(member_params)), mirror_(mp) {
  mirror_.nmirrors = member_params.size();
  std::vector<std::unique_ptr<BlockDevice>> members;
  for (const DeviceParams& p : member_params) {
    if (p.nblocks != member_params.front().nblocks) {
      throw std::invalid_argument("mirror members must be the same size");
    }
    members.push_back(std::make_unique<BlockDevice>(p));
  }
  std::vector<std::unique_ptr<BlockDevice>> spares;
  for (std::size_t i = 0; i < mirror_.nspares; ++i) {
    spares.push_back(std::make_unique<BlockDevice>(member_params.front()));
  }
  const std::size_t n = members.size();
  adopt_children(std::move(members), std::move(spares), mirror_.rebuild_batch,
                 mirror_.rebuild_lead);
  lat_ewma_.assign(n, 0);
  last_read_end_.assign(n, ~0ULL);
}

MirroredDevice::~MirroredDevice() = default;

std::size_t MirroredDevice::first_healthy() const {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (healthy_[i]) return i;
  }
  return children_.size();
}

bool MirroredDevice::has_rebuild_source(std::size_t target) const {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i != target && healthy_[i]) return true;
  }
  return false;
}

std::size_t MirroredDevice::pick_read_member(std::uint64_t first_block) {
  const std::size_t n = children_.size();
  // Sequential affinity beats round-robin: a read continuing the stream a
  // member is already serving stays there, so the member prices it at the
  // sequential rate instead of paying a random seek on every other
  // replica (md read_balance's closest-head rule).
  for (std::size_t m = 0; m < n; ++m) {
    if (healthy_[m] && last_read_end_[m] == first_block) {
      vstats_.sequential_affinity_reads += 1;
      return m;
    }
  }
  // Cycle through the members; a pick that lands on an unserving member
  // is redirected to the next healthy one.
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t m = (rr_next_ + step) % n;
    if (healthy_[m]) {
      rr_next_ = (m + 1) % n;
      if (step != 0) vstats_.redirected_reads += 1;
      return m;
    }
  }
  return n;  // no healthy member
}

void MirroredDevice::note_latency(std::size_t member, sim::Nanos sample) {
  if (sample < 0) sample = 0;
  // Read completions only (writes replicate to every member, so their
  // latency carries no routing signal and would just flatten the scale).
  // alpha = 1/8; seeded by the first observation so one slow replica is
  // visible immediately instead of being averaged up from zero.
  lat_ewma_[member] = lat_ewma_[member] == 0
                          ? sample
                          : lat_ewma_[member] - lat_ewma_[member] / 8 +
                                sample / 8;
}

void MirroredDevice::submit_writes(const std::vector<Bio*>& parents,
                                   ChildTickets& tickets,
                                   sim::Nanos& last_done) {
  if (parents.empty()) return;
  const std::size_t n = children_.size();
  const bool deg = degraded();
  std::vector<std::vector<Bio>> copies(n);

  std::vector<std::uint32_t> ncopies(parents.size(), 0);
  std::vector<std::uint32_t> nfailed(parents.size(), 0);
  for (Bio* parent : parents) {
    assert(!parent->vecs.empty() && "submitting an empty bio");
    parent->done_at = 0;
    parent->applied = true;  // AND-ed with every replica below
    parent->io_error = false;
    bool replicated = false;
    for (std::size_t m = 0; m < n; ++m) {
      if (!serves_writes(m)) continue;
      Bio& copy = copies[m].emplace_back(BioOp::Write);
      copy.parent_trace_id = parent->trace_id;
      for (const BioVec& v : parent->vecs) copy.add_write(v.blockno, v.wdata);
      vstats_.replicated_writes += 1;
      replicated = true;
    }
    if (!replicated) parent->applied = false;  // no serving member left
    if (deg) vstats_.degraded_writes += 1;
    // Write-interception accounting: a write landing (partly) ahead of the
    // resync cursor reaches the rebuild target before the copy pass does.
    if (rebuild_active() && parent->end_block() > rebuild_cursor()) {
      vstats_.rebuild_write_intercepts += 1;
    }
  }

  // Hand each member its replica batch as ONE async submission, in member
  // order: every member elevator-sorts and merges its copy independently,
  // all replicas transfer concurrently in virtual time, and the caller
  // ends up holding every member's ticket at once.
  for (std::size_t m = 0; m < n; ++m) {
    if (copies[m].empty()) continue;
    const Ticket t = children_[m]->submit_async(copies[m]);
    tickets.emplace_back(m, t);
    last_done = std::max(last_done, t.done);
    for (std::size_t i = 0; i < copies[m].size(); ++i) {
      Bio* parent = parents[i];
      parent->done_at = std::max(parent->done_at, copies[m][i].done_at);
      if (!copies[m][i].applied) parent->applied = false;
      ncopies[i] += 1;
      if (copies[m][i].io_error) nfailed[i] += 1;
    }
  }
  // A write error on ONE replica does not fail the logical write — the
  // surviving copies carry the data (md would kick the member; we keep
  // it, and applied=false keeps dirty-state owners retrying). Only when
  // EVERY replica failed does the error surface.
  for (std::size_t i = 0; i < parents.size(); ++i) {
    if (ncopies[i] > 0 && nfailed[i] == ncopies[i]) {
      parents[i]->io_error = true;
    }
  }
}

void MirroredDevice::submit_reads(const std::vector<Bio*>& parents,
                                  ChildTickets& tickets,
                                  sim::Nanos& last_done) {
  if (parents.empty()) return;
  const std::size_t n = children_.size();
  const bool deg = degraded();
  std::vector<std::vector<Bio>> frags(n);
  std::vector<std::vector<Bio*>> owners(n);  // aligned with frags[m]

  for (Bio* parent : parents) {
    assert(!parent->vecs.empty() && "submitting an empty bio");
    parent->done_at = 0;
    parent->applied = false;
    parent->io_error = false;
    const std::size_t m = pick_read_member(parent->first_block());
    if (m == n) {  // no healthy member: the volume cannot serve reads
      parent->io_error = true;
      parent->done_at = sim::now();
      continue;
    }
    last_read_end_[m] = parent->end_block();
    vstats_.balanced_reads += 1;
    if (deg) vstats_.degraded_reads += 1;
    Bio& frag = frags[m].emplace_back(BioOp::Read);
    frag.parent_trace_id = parent->trace_id;
    owners[m].push_back(parent);
    for (const BioVec& v : parent->vecs) frag.add_read(v.blockno, v.data);
  }

  const sim::Nanos submitted_at = sim::now();
  for (std::size_t m = 0; m < n; ++m) {
    if (frags[m].empty()) continue;
    const Ticket t = children_[m]->submit_async(frags[m]);
    tickets.emplace_back(m, t);
    last_done = std::max(last_done, t.done);
    for (std::size_t i = 0; i < frags[m].size(); ++i) {
      Bio* parent = owners[m][i];
      parent->done_at = std::max(parent->done_at, frags[m][i].done_at);
      parent->applied = frags[m][i].applied;
      parent->io_error = frags[m][i].io_error;
      note_latency(m, frags[m][i].done_at - submitted_at);
    }
  }

  // Read-error failover: a replica that failed a bio (injected medium
  // error) does not fail the volume — retry on each other healthy member
  // until one serves it. Media effects land at submission, so the outcome
  // is visible immediately and the retry queues behind what was already
  // submitted (the failed attempt still cost its service time).
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t i = 0; i < frags[m].size(); ++i) {
      Bio* parent = owners[m][i];
      if (!parent->io_error) continue;
      for (std::size_t step = 1; step < n && parent->io_error; ++step) {
        const std::size_t alt = (m + step) % n;
        if (!healthy_[alt]) continue;
        vstats_.read_error_failovers += 1;
        vstats_.redirected_reads += 1;
        Bio retry(BioOp::Read);
        retry.parent_trace_id = parent->trace_id;
        for (const BioVec& v : parent->vecs) retry.add_read(v.blockno, v.data);
        const Ticket t =
            children_[alt]->submit_async(std::span<Bio>(&retry, 1));
        tickets.emplace_back(alt, t);
        last_read_end_[alt] = parent->end_block();
        last_done = std::max(last_done, t.done);
        parent->done_at = std::max(parent->done_at, retry.done_at);
        parent->applied = retry.applied;
        parent->io_error = retry.io_error;
      }
    }
  }
}

void MirroredDevice::route_policy(const std::vector<Bio*>& writes,
                                  const std::vector<Bio*>& killed, bool fire,
                                  const std::vector<Bio*>& reads,
                                  ChildTickets& tickets,
                                  sim::Nanos& last_done) {
  submit_writes(writes, tickets, last_done);
  if (fire) {
    mark_volume_dead();
    submit_writes(killed, tickets, last_done);
  }
  submit_reads(reads, tickets, last_done);
}

void MirroredDevice::read_untimed(std::uint64_t blockno,
                                  std::span<std::byte> out) {
  std::size_t m = first_healthy();
  if (m == children_.size()) {
    // Every member fail-stopped: there is no live logical image to read.
    // A mid-resync target is the best stale copy; with none, fail loudly
    // rather than silently serving a frozen pre-failure replica.
    if (!rebuild_active()) {
      throw std::logic_error("read_untimed on a mirror with no live member");
    }
    m = *rebuild_target();
  }
  children_[m]->read_untimed(blockno, out);
}

void MirroredDevice::write_untimed(std::uint64_t blockno,
                                   std::span<const std::byte> in) {
  for (std::size_t m = 0; m < children_.size(); ++m) {
    if (serves_writes(m)) children_[m]->write_untimed(blockno, in);
  }
}

// ---- redundancy hooks ----

bool MirroredDevice::rebuild_source_read(std::uint64_t start,
                                         std::uint64_t n) {
  // Resync-source selection: candidates ordered by observed
  // read-completion-latency EWMA, so the copy reads from the fastest
  // replica instead of blindly from the first healthy one. Never-observed
  // members (EWMA 0) and ties keep index order, which preserves the
  // historical first-healthy pick. A medium error on the chosen source
  // falls over to the next candidate (the failed attempt still cost its
  // service time).
  std::vector<std::size_t> order;
  for (std::size_t m = 0; m < children_.size(); ++m) {
    if (healthy_[m]) order.push_back(m);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return lat_ewma_[a] < lat_ewma_[b];
                   });
  for (std::size_t src : order) {
    Bio read(BioOp::Read);
    for (std::uint64_t i = 0; i < n; ++i) {
      read.add_read(start + i, rebuild_buf_[i]);
    }
    children_[src]->submit(read);
    if (!read.io_error) return true;
  }
  return false;
}

std::uint64_t MirroredDevice::scrub_step(std::uint64_t cursor) {
  const std::uint64_t n = std::min<std::uint64_t>(
      std::max<std::size_t>(mirror_.rebuild_batch, 1), nblocks() - cursor);
  const std::size_t ref = first_healthy();
  if (ref == children_.size()) return n;  // nothing to compare against
  // Read every healthy replica's copy of the run (timed on the scrub
  // thread, through the member queues) and repair divergent blocks from
  // the reference copy — md's "repair" sync_action.
  std::vector<BlockData> refbuf(n);
  Bio refread(BioOp::Read);
  for (std::uint64_t i = 0; i < n; ++i) refread.add_read(cursor + i, refbuf[i]);
  children_[ref]->submit(refread);
  std::vector<BlockData> buf(n);
  for (std::size_t m = 0; m < children_.size(); ++m) {
    if (m == ref || !healthy_[m]) continue;
    Bio read(BioOp::Read);
    for (std::uint64_t i = 0; i < n; ++i) read.add_read(cursor + i, buf[i]);
    children_[m]->submit(read);
    // One repair bio per run of consecutive divergent blocks, as a batch.
    std::vector<Bio> repairs;
    std::size_t divergent = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (buf[i] == refbuf[i]) continue;
      astats_.scrub_mismatches += 1;
      if (repairs.empty() || repairs.back().end_block() != cursor + i) {
        repairs.emplace_back(BioOp::Write);
      }
      repairs.back().add_write(cursor + i, refbuf[i]);
      divergent += 1;
    }
    if (divergent > 0) {
      children_[m]->submit(repairs);
      astats_.scrub_repairs += divergent;
    }
  }
  return n;
}

// ---- crash model ----

bool MirroredDevice::dead() const {
  if (volume_killed()) return true;
  for (const auto& m : children_) {
    if (!m->dead()) return false;
  }
  return true;
}

void MirroredDevice::inject_read_error(std::uint64_t blockno) {
  // Volume-level injection marks the block bad on EVERY replica (a truly
  // unreadable logical block); per-member injection — the interesting
  // fault for failover tests — goes through member(i).inject_read_error.
  for (auto& m : children_) m->inject_read_error(blockno);
}

void MirroredDevice::inject_write_error(std::uint64_t blockno) {
  // Same contract as inject_read_error: volume-level marks every replica
  // (a logically unwritable block); per-member injection goes through
  // member(i) directly.
  for (auto& m : children_) m->inject_write_error(blockno);
}

void MirroredDevice::clear_write_error(std::uint64_t blockno) {
  for (auto& m : children_) m->clear_write_error(blockno);
}

}  // namespace bsim::blk
