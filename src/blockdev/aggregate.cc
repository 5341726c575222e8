#include "blockdev/aggregate.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bsim::blk {

AggregateDevice::~AggregateDevice() = default;

void AggregateDevice::adopt_children(
    std::vector<std::unique_ptr<BlockDevice>> children,
    std::vector<std::unique_ptr<BlockDevice>> spares,
    std::size_t rebuild_batch, sim::Nanos rebuild_lead) {
  assert(children_.empty() && "adopt_children must be called exactly once");
  assert(!children.empty());
  children_ = std::move(children);
  spares_ = std::move(spares);
  healthy_.assign(children_.size(), true);
  rebuild_batch_ = std::max<std::size_t>(rebuild_batch, 1);
  rebuild_lead_ = rebuild_lead;
  rebuild_buf_.resize(rebuild_batch_);
}

std::size_t AggregateDevice::healthy_members() const {
  return static_cast<std::size_t>(
      std::count(healthy_.begin(), healthy_.end(), true));
}

void AggregateDevice::install_tracer(const std::shared_ptr<Tracer>& t,
                                     const std::string& name) {
  BlockDevice::install_tracer(t, name);
  for (std::size_t i = 0; i < children_.size(); ++i) {
    children_[i]->install_tracer(t, name + "/" + std::to_string(i));
  }
}

// ---- submission skeleton ----

AggregateDevice::ChildTickets AggregateDevice::route_batch(
    std::span<Bio* const> bios, sim::Nanos& last_done) {
  astats_.batches += 1;
  astats_.bios += bios.size();
  // Logical bios queue at the volume: Q lands on the volume's trace slot
  // (members trace their fragments separately). Idempotent for bios the
  // plug layer already stamped.
  for (Bio* b : bios) note_bio_queued(*b);

  // Mirror the single-device queue's crash-count order: writes are counted
  // bio-by-bio in stable first-block order (see RequestQueue::dispatch),
  // so kill_after(n) on a volume selects the SAME n logical bios as on one
  // device for an identical submission sequence.
  std::vector<Bio*> writes, survivors, killed, reads;
  for (Bio* b : bios) {
    (b->op == BioOp::Write ? writes : reads).push_back(b);
  }
  std::stable_sort(writes.begin(), writes.end(),
                   [](const Bio* a, const Bio* b) {
                     return a->first_block() < b->first_block();
                   });
  bool fire = false;
  for (Bio* w : writes) {
    if (kill_armed_ && !fire) {
      if (kill_countdown_ == 0) fire = true;
      else kill_countdown_ -= 1;
    }
    (fire ? killed : survivors).push_back(w);
  }

  ChildTickets tickets;
  route_policy(survivors, killed, fire, reads, tickets, last_done);
  if (Tracer* tr = tracer(); tr != nullptr) {
    // Media effects (and done_at) land at routing, so the logical C is
    // known now even on the async path; t is the bio's own completion.
    for (const Bio* b : bios) {
      TraceEvent e;
      e.t = b->done_at;
      e.id = b->trace_id;
      e.block = b->first_block();
      e.nblocks = static_cast<std::uint32_t>(b->nblocks());
      e.dev = trace_dev_;
      e.ev = TraceEv::Complete;
      e.op = b->op == BioOp::Read ? TraceOp::Read : TraceOp::Write;
      tr->emit(e);
    }
  }
  return tickets;
}

void AggregateDevice::mark_volume_dead() {
  forget_member_state();
  volume_dead_ = true;
  kill_armed_ = false;
  for (auto& c : children_) c->power_off();
}

sim::Nanos AggregateDevice::submit_impl(std::span<Bio* const> bios) {
  if (bios.empty()) return sim::now();
  pokes();
  sim::Nanos last_done = sim::now();
  ChildTickets tickets = route_batch(bios, last_done);
  for (auto& [c, t] : tickets) children_[c]->wait(t);
  sim::current().wait_until(last_done);
  return last_done;
}

Ticket AggregateDevice::submit_async_impl(std::span<Bio* const> bios) {
  if (bios.empty()) return Ticket{};
  pokes();
  sim::Nanos last_done = sim::now();
  ChildTickets tickets = route_batch(bios, last_done);
  astats_.async_batches += 1;
  const std::uint64_t id = next_ticket_++;
  outstanding_.emplace(id, std::move(tickets));
  astats_.max_inflight =
      std::max<std::uint64_t>(astats_.max_inflight, outstanding_.size());
  Ticket t{last_done, id};
  // A logical bio that still carries io_error after routing (member
  // failure the redundancy could not absorb) fails the ticket, same as a
  // plain queue's.
  for (const Bio* b : bios) t.failed |= b->io_error;
  return t;
}

sim::Nanos AggregateDevice::wait_impl(const Ticket& t) {
  if (!t.valid()) return sim::now();
  auto it = outstanding_.find(t.id);
  if (it != outstanding_.end()) {
    // Redeem every member ticket, INCLUDING those of a member that
    // fail-stopped after submission: its queue already dispatched the
    // batch, so fan-in just collects the completion times.
    for (auto& [c, ct] : it->second) children_[c]->wait(ct);
    outstanding_.erase(it);
  }
  sim::current().wait_until(t.done);  // redundant waits are harmless
  return t.done;
}

sim::Nanos AggregateDevice::flush_nowait_impl() {
  pokes();
  // FLUSH every serving member in parallel: each barriers its own
  // channels; the volume's flush completes when the slowest member
  // destages. A failed member is gone — it neither receives nor
  // acknowledges the FLUSH.
  sim::Nanos done = sim::now();
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (serves_writes(i)) done = std::max(done, children_[i]->flush_nowait());
  }
  return done;
}

void AggregateDevice::pokes() {
  rebuild_poke(sim::now());
  scrub_poke(sim::now());
}

// ---- member failure + online rebuild + hot spares ----

void AggregateDevice::fail_member(std::size_t i) {
  assert(i < children_.size());
  forget_member_state();
  if (rebuild_target_ == i) abort_rebuild();
  healthy_[i] = false;
  // Rebuild whose redundancy just vanished cannot make progress.
  if (rebuild_active() && !has_rebuild_source(*rebuild_target_)) {
    abort_rebuild();
  }
  maybe_deploy_spare(i);
}

void AggregateDevice::maybe_deploy_spare(std::size_t i) {
  if (spares_.empty() || rebuild_active() || healthy_[i]) return;
  if (!has_rebuild_source(i)) return;
  // md-style hot spare: the spare takes over the failed slot and the
  // resync starts immediately. The failed device is retired, not
  // destroyed, so references taken before the swap stay valid.
  retired_.push_back(std::move(children_[i]));
  children_[i] = std::move(spares_.back());
  spares_.pop_back();
  astats_.spares_deployed += 1;
  start_rebuild(i);
}

void AggregateDevice::start_rebuild(std::size_t i) {
  assert(i < children_.size());
  assert(!healthy_[i] && "rebuilding a member that is already serving");
  assert(!rebuild_active() && "one rebuild at a time");
  if (!has_rebuild_source(i)) {
    throw std::logic_error("rebuild needs a redundancy source");
  }
  forget_member_state();
  rebuild_target_ = i;
  rebuild_cursor_ = 0;
  astats_.rebuilds_started += 1;
  // The resync starts no earlier than now; its clock then advances as the
  // copy progresses (poked forward by foreground submissions).
  rebuild_thread_.wait_until(sim::now());
}

void AggregateDevice::rebuild_poke(sim::Nanos horizon) {
  if (!rebuild_active()) return;
  const sim::Nanos limit = horizon + rebuild_lead_;
  bool yielded = false;
  {
    sim::ScopedThread in(rebuild_thread_);
    while (rebuild_active() && rebuild_thread_.now() < limit) {
      rebuild_copy_step();
    }
    yielded = rebuild_active();
  }
  // Backpressure: the copy ran as far ahead of the poking thread as the
  // lead window allows and yields the device back to foreground I/O.
  if (yielded) astats_.rebuild_throttle_yields += 1;
}

void AggregateDevice::rebuild_copy_step() {
  assert(rebuild_active());
  const std::size_t tgt = *rebuild_target_;
  // Power died (the crash model cut the whole volume): resync writes
  // would be silently swallowed by the dead target, so a "completed"
  // rebuild could promote a bit-diverged member. Abort instead.
  if (children_[tgt]->dead()) {
    abort_rebuild();
    return;
  }
  const std::uint64_t extent = children_[tgt]->nblocks();
  const std::uint64_t n =
      std::min<std::uint64_t>(rebuild_batch_, extent - rebuild_cursor_);
  if (n == 0) {
    complete_rebuild();
    return;
  }
  // Regenerate the run from the volume's redundancy (timed on the rebuild
  // clock, through the member queues — rebuild I/O competes with
  // foreground I/O for member channels).
  if (!rebuild_source_read(rebuild_cursor_, n)) {
    abort_rebuild();
    return;
  }
  Bio write(BioOp::Write);
  for (std::uint64_t i = 0; i < n; ++i) {
    write.add_write(rebuild_cursor_ + i, rebuild_buf_[i]);
  }
  children_[tgt]->submit(write);
  if (!write.applied) {  // target swallowed the copy (power death)
    abort_rebuild();
    return;
  }
  rebuild_cursor_ += n;
  astats_.rebuild_copied += n;
  if (rebuild_cursor_ == extent) complete_rebuild();
}

void AggregateDevice::complete_rebuild() {
  assert(rebuild_active());
  // Destage the target's write cache before declaring it in sync, then
  // promote it back to serving.
  const std::size_t t = *rebuild_target_;
  sim::current().wait_until(children_[t]->flush_nowait());
  forget_member_state();
  healthy_[t] = true;
  rebuild_target_.reset();
  rebuild_cursor_ = children_[t]->nblocks();
  astats_.rebuilds_completed += 1;
}

void AggregateDevice::abort_rebuild() {
  if (!rebuild_active()) return;
  rebuild_target_.reset();
  astats_.rebuilds_aborted += 1;
}

void AggregateDevice::finish_rebuild() {
  if (!rebuild_active()) return;
  {
    sim::ScopedThread in(rebuild_thread_);
    while (rebuild_active()) rebuild_copy_step();
  }
  // Barrier: the caller observes the completed resync.
  sim::current().wait_until(rebuild_thread_.now());
}

bool AggregateDevice::rebuild_source_read(std::uint64_t start,
                                          std::uint64_t n) {
  (void)start;
  (void)n;
  return false;  // no redundancy in the base: nothing to rebuild from
}

// ---- scrub ----

std::uint64_t AggregateDevice::scrub_step(std::uint64_t cursor) {
  (void)cursor;
  return scrub_extent();  // no-op default: consume the whole pass
}

void AggregateDevice::start_scrub() {
  if (scrub_on_ || scrub_extent() == 0) return;
  scrub_on_ = true;
  scrub_cursor_ = 0;
  scrub_thread_.wait_until(sim::now());
}

void AggregateDevice::scrub_poke(sim::Nanos horizon) {
  if (!scrub_on_) return;
  const sim::Nanos limit = horizon + rebuild_lead_;
  sim::ScopedThread in(scrub_thread_);
  while (scrub_on_ && scrub_thread_.now() < limit) scrub_step_once();
}

void AggregateDevice::scrub_step_once() {
  assert(scrub_on_);
  if (scrub_cursor_ >= scrub_extent()) {
    scrub_on_ = false;
    on_scrub_complete();
    return;
  }
  const std::uint64_t consumed = scrub_step(scrub_cursor_);
  scrub_cursor_ += std::max<std::uint64_t>(consumed, 1);
  astats_.scrub_steps += 1;
}

void AggregateDevice::finish_scrub() {
  if (!scrub_on_) return;
  {
    sim::ScopedThread in(scrub_thread_);
    while (scrub_on_) scrub_step_once();
  }
  sim::current().wait_until(scrub_thread_.now());
}

// ---- crash model ----

void AggregateDevice::enable_crash_tracking() {
  for (auto& c : children_) c->enable_crash_tracking();
}

void AggregateDevice::kill_after(std::uint64_t n) {
  kill_armed_ = true;
  kill_countdown_ = n;
}

void AggregateDevice::kill_after_child(std::size_t child, std::uint64_t n) {
  assert(child < children_.size());
  children_[child]->kill_after(n);
}

void AggregateDevice::power_off() {
  forget_member_state();
  volume_dead_ = true;
  kill_armed_ = false;
  for (auto& c : children_) c->power_off();
}

bool AggregateDevice::dead() const {
  if (volume_dead_) return true;
  for (const auto& c : children_) {
    if (c->dead()) return true;
  }
  return false;
}

void AggregateDevice::crash(double survive_p, sim::Rng& rng) {
  forget_member_state();
  volume_dead_ = false;
  kill_armed_ = false;
  for (auto& c : children_) c->crash(survive_p, rng);
}

// ---- fault-model fan-out ----

void AggregateDevice::inject_transient_errors(std::uint64_t k) {
  for (auto& c : children_) c->inject_transient_errors(k);
}

void AggregateDevice::set_fault_schedule(const FaultSchedule& s) {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    FaultSchedule cs = s;
    // Distinct RNG stream per member (splitmix64 increment), same windows.
    cs.seed = s.seed * 0x9e3779b97f4a7c15ULL + i + 1;
    children_[i]->set_fault_schedule(cs);
  }
}

void AggregateDevice::clear_fault_schedule() {
  for (auto& c : children_) c->clear_fault_schedule();
}

void AggregateDevice::set_retry_policy(const RetryPolicy& p) {
  for (auto& c : children_) c->set_retry_policy(p);
}

std::uint64_t AggregateDevice::dirty_blocks() const {
  std::uint64_t total = 0;
  for (const auto& c : children_) total += c->dirty_blocks();
  return total;
}

const DeviceStats& AggregateDevice::stats() const {
  // Like the base class, the returned reference is a live view: it
  // reflects whatever I/O has happened by the time it is read (here via
  // re-aggregation on each call). Callers wanting a snapshot to diff
  // against must copy the struct, exactly as with a plain device.
  agg_ = DeviceStats{};
  for (const auto& c : children_) {
    const DeviceStats& s = c->stats();
    agg_.reads += s.reads;
    agg_.writes += s.writes;
    agg_.flushes += s.flushes;
    agg_.blocks_destaged += s.blocks_destaged;
    agg_.busy += s.busy;
    agg_.read_requests += s.read_requests;
    agg_.write_requests += s.write_requests;
    agg_.merges += s.merges;
    agg_.seq_read_blocks += s.seq_read_blocks;
    agg_.read_errors += s.read_errors;
    agg_.write_errors += s.write_errors;
    agg_.transient_errors += s.transient_errors;
    agg_.faults_scheduled += s.faults_scheduled;
    agg_.max_request_blocks =
        std::max(agg_.max_request_blocks, s.max_request_blocks);
    agg_.read_wait.merge(s.read_wait);
    agg_.write_wait.merge(s.write_wait);
    agg_.read_service.merge(s.read_service);
    agg_.write_service.merge(s.write_service);
    agg_.flush_lat.merge(s.flush_lat);
  }
  return agg_;
}

}  // namespace bsim::blk
