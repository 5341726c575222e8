#include "blockdev/bio.h"

#include <algorithm>

#include "blockdev/device.h"
#include "sim/thread.h"

namespace bsim::blk {

void RequestQueue::dispatch(std::vector<Bio*>& list, sim::Nanos& last_done) {
  std::stable_sort(list.begin(), list.end(), [](const Bio* a, const Bio* b) {
    return a->first_block() < b->first_block();
  });
  std::size_t i = 0;
  while (i < list.size()) {
    // Grow the request while the next bio starts where this one ends, or
    // covers the exact same range (duplicate-block absorption: the stable
    // sort keeps submission order among equal start blocks, and
    // do_request applies bios in list order, so the last-submitted data
    // wins on media — the documented same-block semantics).
    std::size_t j = i + 1;
    while (j < list.size() &&
           (list[j]->first_block() == list[j - 1]->end_block() ||
            (list[j]->first_block() == list[j - 1]->first_block() &&
             list[j]->end_block() == list[j - 1]->end_block()))) {
      j += 1;
    }
    const std::span<Bio* const> req(list.data() + i, j - i);
    sim::Nanos start = 0;
    const sim::Nanos done = dev_->do_request(req, &start);
    for (std::size_t k = i; k < j; ++k) list[k]->done_at = done;
    // Transiently-failed bios get their bounded retries BEFORE the trace
    // completions, so each bio's C event carries its final outcome and
    // completion time (one C per Q, retries visible as R events).
    if (policy_.max_retries > 0) {
      for (std::size_t k = i; k < j; ++k) {
        if (list[k]->io_error && list[k]->retryable) {
          retry_bio(*list[k], last_done);
        }
      }
    }
    if (Tracer* tr = dev_->tracer_.get(); tr != nullptr) {
      const TraceOp op =
          req.front()->op == BioOp::Read ? TraceOp::Read : TraceOp::Write;
      TraceEvent e;
      e.dev = dev_->trace_dev_;
      e.op = op;
      // Bios folded into the lead one: an M each, at merge (dispatch) time.
      for (std::size_t k = i + 1; k < j; ++k) {
        e.t = sim::now();
        e.ev = TraceEv::Merge;
        e.id = list[k]->trace_id;
        e.block = list[k]->first_block();
        e.nblocks = static_cast<std::uint32_t>(list[k]->nblocks());
        tr->emit(e);
      }
      // One D for the merged request, stamped when it takes its channel.
      std::uint32_t total = 0;
      for (const Bio* b : req) total += static_cast<std::uint32_t>(b->nblocks());
      e.t = start;
      e.ev = TraceEv::Dispatch;
      e.id = req.front()->trace_id;
      e.block = req.front()->first_block();
      e.nblocks = total;
      tr->emit(e);
      // Every bio completes with the request (a retried bio at its own,
      // later, final completion).
      e.ev = TraceEv::Complete;
      for (const Bio* b : req) {
        e.t = b->done_at;
        e.id = b->trace_id;
        e.block = b->first_block();
        e.nblocks = static_cast<std::uint32_t>(b->nblocks());
        tr->emit(e);
      }
    }
    last_done = std::max(last_done, done);
    i = j;
  }
}

void RequestQueue::retry_bio(Bio& b, sim::Nanos& last_done) {
  while (b.io_error && b.retryable) {
    if (b.retries >= policy_.max_retries) break;  // exhausted: stays failed
    const sim::Nanos at = b.done_at + policy_.backoff;
    b.retries += 1;
    stats_.retries += 1;
    if (Tracer* tr = dev_->tracer_.get(); tr != nullptr) {
      TraceEvent e;
      e.t = at;
      e.id = b.trace_id;
      e.block = b.first_block();
      e.nblocks = static_cast<std::uint32_t>(b.nblocks());
      e.dev = dev_->trace_dev_;
      e.ev = TraceEv::Requeue;
      e.op = b.op == BioOp::Read ? TraceOp::Read : TraceOp::Write;
      tr->emit(e);
    }
    b.io_error = false;
    b.retryable = false;
    Bio* const one = &b;
    b.done_at =
        dev_->do_request(std::span<Bio* const>(&one, 1), nullptr, at);
    if (!b.io_error) {
      stats_.retry_successes += 1;
      break;
    }
  }
  last_done = std::max(last_done, b.done_at);
}

sim::Nanos RequestQueue::start_batch(std::span<Bio* const> bios) {
  stats_.batches += 1;
  stats_.bios += bios.size();

  std::vector<Bio*> reads, writes;
  for (Bio* b : bios) {
    assert(!b->vecs.empty() && "submitting an empty bio");
    // Idempotent: bios that already queued upstream (volume routing)
    // keep their original queue time and trace id.
    dev_->note_bio_queued(*b);
    (b->op == BioOp::Read ? reads : writes).push_back(b);
  }

  // Writes dispatch before reads so that media effects (and crash-model
  // write-command counting) happen in a deterministic order; the batch
  // barrier (or ticket redemption) makes the distinction invisible to
  // timing.
  sim::Nanos last_done = sim::now();
  if (!writes.empty()) dispatch(writes, last_done);
  if (!reads.empty()) dispatch(reads, last_done);
  return last_done;
}

sim::Nanos RequestQueue::submit(std::span<Bio> bios) {
  const std::vector<Bio*> ptrs = bio_ptrs(bios);
  return submit(std::span<Bio* const>(ptrs));
}

sim::Nanos RequestQueue::submit(std::span<Bio* const> bios) {
  if (bios.empty()) return sim::now();
  const sim::Nanos last_done = start_batch(bios);
  sim::current().wait_until(last_done);
  return last_done;
}

Ticket RequestQueue::submit_async(std::span<Bio> bios) {
  const std::vector<Bio*> ptrs = bio_ptrs(bios);
  return submit_async(std::span<Bio* const>(ptrs));
}

Ticket RequestQueue::submit_async(std::span<Bio* const> bios) {
  if (bios.empty()) return Ticket{};
  const sim::Nanos last_done = start_batch(bios);
  stats_.async_batches += 1;
  outstanding_.insert(next_ticket_);
  stats_.max_inflight = std::max<std::uint64_t>(stats_.max_inflight,
                                                outstanding_.size());
  Ticket t{last_done, next_ticket_++};
  for (const Bio* b : bios) t.failed |= b->io_error;
  return t;
}

sim::Nanos RequestQueue::wait(const Ticket& t) {
  if (!t.valid()) return sim::now();
  outstanding_.erase(t.id);  // redundant waits are harmless
  sim::current().wait_until(t.done);
  return t.done;
}

}  // namespace bsim::blk
