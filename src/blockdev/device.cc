#include "blockdev/device.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "sim/thread.h"

namespace bsim::blk {

BlockDevice::BlockDevice(DeviceParams params)
    : params_(params),
      blocks_(params.nblocks),
      channel_free_(static_cast<std::size_t>(std::max(params.channels, 1)), 0) {}

BlockDevice::BlockDevice(DeviceParams params, NoBacking)
    : params_(params),
      channel_free_(static_cast<std::size_t>(std::max(params.channels, 1)), 0) {}

BlockDevice::~BlockDevice() = default;

BlockData& BlockDevice::slot(std::uint64_t blockno) {
  if (blockno >= blocks_.size()) throw std::out_of_range("blockno beyond device");
  auto& p = blocks_[blockno];
  if (!p) {
    p = std::make_unique<BlockData>();
    p->fill(std::byte{0});
  }
  return *p;
}

sim::Nanos BlockDevice::service(sim::Nanos latency, sim::Nanos not_before) {
  // Pick the channel that frees up first; queue behind it if busy.
  auto it = std::min_element(channel_free_.begin(), channel_free_.end());
  const sim::Nanos start = std::max({*it, sim::now(), not_before});
  const sim::Nanos done = start + latency;
  *it = done;
  stats_.busy += latency;
  return done;
}

void BlockDevice::arm_trace(std::size_t capacity, const std::string& name) {
  install_tracer(std::make_shared<Tracer>(capacity), name);
}

void BlockDevice::install_tracer(const std::shared_ptr<Tracer>& t,
                                 const std::string& name) {
  tracer_ = t;
  trace_dev_ = t->register_device(name);
}

void BlockDevice::trace_event(TraceEv ev, std::uint64_t id,
                              std::uint64_t block, std::uint32_t nblocks,
                              TraceOp op) {
  if (!tracer_) return;
  TraceEvent e;
  e.t = sim::now();
  e.id = id;
  e.block = block;
  e.nblocks = nblocks;
  e.dev = trace_dev_;
  e.ev = ev;
  e.op = op;
  tracer_->emit(e);
}

void BlockDevice::note_bio_queued(Bio& b) {
  if (b.queued_at >= 0) return;  // already queued upstream (volume)
  b.queued_at = sim::now();
  if (!tracer_) return;
  if (b.trace_id == 0) b.trace_id = tracer_->next_id();
  const TraceOp op = b.op == BioOp::Read ? TraceOp::Read : TraceOp::Write;
  TraceEvent e;
  e.t = b.queued_at;
  e.id = b.trace_id;
  e.parent = b.parent_trace_id;
  e.block = b.first_block();
  e.nblocks = static_cast<std::uint32_t>(b.nblocks());
  e.dev = trace_dev_;
  e.op = op;
  if (b.parent_trace_id != 0) {
    // A volume fragment: link it to its logical parent before its Q.
    e.ev = TraceEv::FanChild;
    tracer_->emit(e);
  }
  e.ev = TraceEv::Queue;
  tracer_->emit(e);
}

void BlockDevice::set_fault_schedule(const FaultSchedule& s) {
  fault_sched_ = s;
  fault_sched_armed_ = true;
  fault_sched_t0_ = sim::now();
  fault_rng_ = sim::Rng(s.seed);
}

bool BlockDevice::scheduled_fault_at(sim::Nanos at) {
  const sim::Nanos period =
      fault_sched_.up_interval + fault_sched_.down_interval;
  if (period > 0) {
    const sim::Nanos phase = (at - fault_sched_t0_) % period;
    if (phase < fault_sched_.up_interval) return false;  // healthy window
  }
  return fault_rng_.chance(fault_sched_.fail_p);
}

bool BlockDevice::fault_check(Bio& b, sim::Nanos at) {
  // Sticky per-block errors first (a bad sector beats a transient blip),
  // direction-specific; these are NOT retryable.
  const auto& bad = b.op == BioOp::Read ? bad_reads_ : bad_writes_;
  if (!bad.empty()) {
    for (const BioVec& v : b.vecs) {
      if (bad.contains(v.blockno)) {
        b.io_error = true;
        return true;
      }
    }
  }
  if (transient_remaining_ > 0) {
    transient_remaining_ -= 1;
    stats_.transient_errors += 1;
    b.io_error = true;
    b.retryable = true;
    return true;
  }
  if (fault_sched_armed_ && scheduled_fault_at(at)) {
    stats_.faults_scheduled += 1;
    b.io_error = true;
    b.retryable = true;
    return true;
  }
  return false;
}

sim::Nanos BlockDevice::do_request(std::span<Bio* const> bios,
                                   sim::Nanos* start_out,
                                   sim::Nanos not_before) {
  assert(!bios.empty());
  const BioOp op = bios.front()->op;
  std::size_t nblocks = 0;
  for (const Bio* b : bios) nblocks += b->vecs.size();
  stats_.max_request_blocks = std::max<std::uint64_t>(
      stats_.max_request_blocks, nblocks);
  stats_.merges += bios.size() - 1;
  const bool faulty = faults_armed();

  if (op == BioOp::Read) {
    // A merged request is one device command: only its first block can be
    // random-priced; the tail streams at the sequential rate regardless of
    // what preceded the request.
    const bool sequential =
        bios.front()->first_block() == last_block_read_ + 1;
    last_block_read_ = bios.back()->end_block() - 1;
    const sim::Nanos first_lat =
        sequential ? params_.read_lat_seq : params_.read_lat_rand;
    const sim::Nanos lat =
        first_lat + static_cast<sim::Nanos>(nblocks - 1) * params_.read_lat_seq;
    stats_.seq_read_blocks +=
        static_cast<std::uint64_t>(nblocks - 1) + (sequential ? 1 : 0);
    const sim::Nanos done = service(lat, not_before);
    const sim::Nanos start = done - lat;  // channel occupancy began here
    if (start_out != nullptr) *start_out = start;
    stats_.reads += nblocks;
    stats_.read_requests += 1;
    for (Bio* b : bios) {
      if (b->queued_at >= 0) stats_.read_wait.record(start - b->queued_at);
      stats_.read_service.record(done - start);
    }
    for (Bio* b : bios) {
      // A bio hitting the fault model fails whole: the command is timed
      // (the drive spent the service attempt) but transfers nothing.
      if (faulty && fault_check(*b, start)) {
        stats_.read_errors += 1;
        continue;
      }
      b->applied = true;
      for (BioVec& v : b->vecs) {
        std::memcpy(v.data.data(), slot(v.blockno).data(), kBlockSize);
      }
    }
    return done;
  }

  // Write: per-block transfer into the volatile cache, with forced destage
  // when it is full. One bio is one write command for the crash model; a
  // dead device keeps charging time but never changes media state.
  // `occupancy` tracks what dirty_ will hold as the request's blocks land,
  // so every block of a large batch prices its own destage once the cache
  // is full (matching the scalar write-then-write sequence).
  sim::Nanos lat = 0;
  stats_.write_requests += 1;
  std::size_t occupancy = dirty_.size();
  // Predicted channel-start for the fault schedule: service() below picks
  // the earliest-free channel, so this equals the start it will compute
  // (nothing between here and there touches channel_free_).
  sim::Nanos pred = 0;
  if (faulty) {
    pred = std::max(
        {*std::min_element(channel_free_.begin(), channel_free_.end()),
         sim::now(), not_before});
  }
  for (Bio* b : bios) {
    for (const BioVec& v : b->vecs) {
      lat += params_.write_xfer;
      if (occupancy >= params_.write_cache_blocks) {
        lat += params_.destage_per_block;
        if (!dirty_.empty()) {
          stats_.blocks_destaged += 1;
          dirty_.erase(dirty_.begin());
        }
      } else if (!dirty_.contains(v.blockno)) {
        occupancy += 1;
      }
    }
    stats_.writes += b->vecs.size();
    if (kill_armed_) {
      if (kill_countdown_ == 0) dead_ = true;
      else kill_countdown_ -= 1;
    }
    if (dead_) continue;  // power died: this bio never reached the device
    // Faults fail the command visibly (io_error; a dead device swallows
    // silently): full latency charged, no media change, no heal.
    if (faulty && fault_check(*b, pred)) {
      stats_.write_errors += 1;
      continue;
    }
    b->applied = true;
    for (const BioVec& v : b->vecs) {
      bad_reads_.erase(v.blockno);  // a successful write repairs the sector
      auto& dst = slot(v.blockno);
      if (!dirty_.contains(v.blockno)) {
        std::unique_ptr<BlockData> pre;
        if (crash_tracking_) pre = std::make_unique<BlockData>(dst);
        dirty_.emplace(v.blockno, std::move(pre));
      }
      std::memcpy(dst.data(), v.wdata.data(), kBlockSize);
    }
  }
  const sim::Nanos done = service(lat, not_before);
  const sim::Nanos start = done - lat;
  if (start_out != nullptr) *start_out = start;
  for (Bio* b : bios) {
    if (b->queued_at >= 0) stats_.write_wait.record(start - b->queued_at);
    stats_.write_service.record(done - start);
  }
  return done;
}

// ---- public submission entry points (non-virtual) ----

sim::Nanos BlockDevice::submit(std::span<Bio> bios) {
  if (bios.empty()) return sim::now();
  const std::vector<Bio*> ptrs = bio_ptrs(bios);
  return submit_impl(ptrs);
}

Ticket BlockDevice::submit_async(std::span<Bio> bios) {
  if (bios.empty()) return Ticket{};
  const std::vector<Bio*> ptrs = bio_ptrs(bios);
  return submit_async_impl(ptrs);
}

sim::Nanos BlockDevice::wait(const Ticket& t) {
  if (!t.valid()) return sim::now();
  return wait_impl(t);
}

void BlockDevice::read(std::uint64_t blockno, std::span<std::byte> out) {
  assert(out.size() >= kBlockSize);
  Bio bio = Bio::single_read(blockno, out);
  submit(bio);  // routes through the striping layer when present
}

void BlockDevice::write(std::uint64_t blockno, std::span<const std::byte> in) {
  assert(in.size() >= kBlockSize);
  Bio bio = Bio::single_write(blockno, in);
  submit(bio);
}

void BlockDevice::flush() { sim::current().wait_until(flush_nowait()); }

sim::Nanos BlockDevice::flush_nowait() { return flush_nowait_impl(); }

sim::Nanos BlockDevice::flush_nowait_impl() {
  // FLUSH is a barrier: it starts after all in-flight requests and blocks
  // the whole device until the cache is destaged. State effects land here
  // (at submission); the caller decides when to observe the completion.
  const sim::Nanos cost =
      params_.flush_base +
      static_cast<sim::Nanos>(dirty_.size()) * params_.destage_per_block;
  sim::Nanos start = sim::now();
  for (const sim::Nanos busy : channel_free_) start = std::max(start, busy);
  const sim::Nanos done = start + cost;
  for (auto& ch : channel_free_) ch = done;
  stats_.busy += cost;
  stats_.flushes += 1;
  stats_.flush_lat.record(done - sim::now());
  if (tracer_) {
    TraceEvent e;
    e.t = done;
    e.id = tracer_->next_id();
    e.block = 0;
    e.nblocks = static_cast<std::uint32_t>(dirty_.size());
    e.dev = trace_dev_;
    e.ev = TraceEv::Flush;
    e.op = TraceOp::Flush;
    tracer_->emit(e);
  }
  if (dead_) return done;  // dead device: nothing destages
  stats_.blocks_destaged += dirty_.size();
  dirty_.clear();
  return done;
}

void BlockDevice::read_untimed(std::uint64_t blockno, std::span<std::byte> out) {
  assert(out.size() >= kBlockSize);
  std::memcpy(out.data(), slot(blockno).data(), kBlockSize);
}

void BlockDevice::write_untimed(std::uint64_t blockno,
                                std::span<const std::byte> in) {
  assert(in.size() >= kBlockSize);
  std::memcpy(slot(blockno).data(), in.data(), kBlockSize);
}

sim::Nanos BlockDevice::write_fua(std::uint64_t blockno,
                                  std::span<const std::byte> in) {
  assert(in.size() >= kBlockSize);
  // Transfer plus the single block's forced destage: the completion IS
  // the durability point, so the block never enters the dirty set (and a
  // stale cached copy of it is superseded on media).
  const sim::Nanos queued = sim::now();
  const sim::Nanos lat = params_.write_xfer + params_.destage_per_block;
  const sim::Nanos done = service(lat);
  const sim::Nanos start = done - lat;
  stats_.writes += 1;
  stats_.write_requests += 1;
  stats_.write_wait.record(start - queued);
  stats_.write_service.record(done - start);
  if (tracer_) {
    const std::uint64_t id = tracer_->next_id();
    TraceEvent e;
    e.id = id;
    e.block = blockno;
    e.nblocks = 1;
    e.dev = trace_dev_;
    e.op = TraceOp::Write;
    e.t = queued;
    e.ev = TraceEv::Queue;
    tracer_->emit(e);
    e.t = start;
    e.ev = TraceEv::Dispatch;
    tracer_->emit(e);
    e.t = done;
    e.ev = TraceEv::Complete;
    tracer_->emit(e);
  }
  if (!dead_) {
    bad_reads_.erase(blockno);
    dirty_.erase(blockno);
    std::memcpy(slot(blockno).data(), in.data(), kBlockSize);
  }
  sim::current().wait_until(done);
  return done;
}

void BlockDevice::enable_crash_tracking() { crash_tracking_ = true; }

void BlockDevice::kill_after(std::uint64_t n) {
  kill_armed_ = true;
  kill_countdown_ = n;
}

void BlockDevice::crash(double survive_p, sim::Rng& rng) {
  assert(crash_tracking_ && "crash() requires enable_crash_tracking()");
  dead_ = false;
  kill_armed_ = false;
  for (auto& [blockno, pre] : dirty_) {
    if (rng.chance(survive_p)) continue;  // this block made it to media
    if (pre) std::memcpy(slot(blockno).data(), pre->data(), kBlockSize);
  }
  dirty_.clear();
}

}  // namespace bsim::blk
