#include "blockdev/statsdump.h"

#include "blockdev/aggregate.h"
#include "blockdev/bio.h"
#include "blockdev/parity.h"

namespace bsim::blk {

namespace {

void dump_device_stats(sim::JsonWriter& w, const std::string& name,
                       const DeviceStats& s) {
  w.begin_object();
  w.field("struct", "DeviceStats");
  w.field("device", name);
  w.field("reads", s.reads);
  w.field("writes", s.writes);
  w.field("flushes", s.flushes);
  w.field("blocks_destaged", s.blocks_destaged);
  w.field("busy_ns", static_cast<std::int64_t>(s.busy));
  w.field("read_requests", s.read_requests);
  w.field("write_requests", s.write_requests);
  w.field("merges", s.merges);
  w.field("seq_read_blocks", s.seq_read_blocks);
  w.field("max_request_blocks", s.max_request_blocks);
  w.field("read_errors", s.read_errors);
  w.field("write_errors", s.write_errors);
  w.field("transient_errors", s.transient_errors);
  w.field("faults_scheduled", s.faults_scheduled);
  sim::dump_histogram(w, "read_wait", s.read_wait);
  sim::dump_histogram(w, "write_wait", s.write_wait);
  sim::dump_histogram(w, "read_service", s.read_service);
  sim::dump_histogram(w, "write_service", s.write_service);
  sim::dump_histogram(w, "flush_lat", s.flush_lat);
  w.end_object();
}

void dump_queue_stats(sim::JsonWriter& w, const std::string& name,
                      const RequestQueueStats& s) {
  w.begin_object();
  w.field("struct", "RequestQueueStats");
  w.field("device", name);
  w.field("batches", s.batches);
  w.field("bios", s.bios);
  w.field("async_batches", s.async_batches);
  w.field("max_inflight", s.max_inflight);
  w.field("retries", s.retries);
  w.field("retry_successes", s.retry_successes);
  w.end_object();
}

void dump_plug_stats(sim::JsonWriter& w, const std::string& name,
                     const PlugStats& s) {
  w.begin_object();
  w.field("struct", "PlugStats");
  w.field("device", name);
  w.field("plugs", s.plugs);
  w.field("plugged_batches", s.plugged_batches);
  w.field("plugged_bios", s.plugged_bios);
  w.field("forced_flushes", s.forced_flushes);
  w.end_object();
}

void dump_volume_stats(sim::JsonWriter& w, const std::string& name,
                       const AggregateVolumeStats& s) {
  w.begin_object();
  w.field("struct", "AggregateVolumeStats");
  w.field("device", name);
  w.field("batches", s.batches);
  w.field("bios", s.bios);
  w.field("async_batches", s.async_batches);
  w.field("max_inflight", s.max_inflight);
  w.field("rebuilds_started", s.rebuilds_started);
  w.field("rebuilds_completed", s.rebuilds_completed);
  w.field("rebuilds_aborted", s.rebuilds_aborted);
  w.field("rebuild_copied", s.rebuild_copied);
  w.field("rebuild_throttle_yields", s.rebuild_throttle_yields);
  w.field("spares_deployed", s.spares_deployed);
  w.field("scrub_steps", s.scrub_steps);
  w.field("scrub_mismatches", s.scrub_mismatches);
  w.field("scrub_repairs", s.scrub_repairs);
  w.end_object();
}

// The parity write path's own counters (AggregateVolumeStats carries the
// shared ones). The stripe-cache hit rate is
// stripe_cache_hits / (stripe_cache_hits + rmw_read_blocks).
void dump_parity_stats(sim::JsonWriter& w, const std::string& name,
                       const ParityVolumeStats& s) {
  w.begin_object();
  w.field("struct", "ParityVolumeStats");
  w.field("device", name);
  w.field("fragments", s.fragments);
  w.field("full_stripe_writes", s.full_stripe_writes);
  w.field("rmw_writes", s.rmw_writes);
  w.field("rmw_read_blocks", s.rmw_read_blocks);
  w.field("stripe_cache_hits", s.stripe_cache_hits);
  w.field("parity_writes", s.parity_writes);
  w.field("bitmap_updates", s.bitmap_updates);
  w.field("degraded_reads", s.degraded_reads);
  w.field("degraded_writes", s.degraded_writes);
  w.field("reconstructed_blocks", s.reconstructed_blocks);
  w.field("read_error_failovers", s.read_error_failovers);
  w.end_object();
}

}  // namespace

void dump_device_tree_stats(sim::JsonWriter& w, const std::string& name,
                            BlockDevice& dev) {
  dump_device_stats(w, name, dev.stats());
  dump_queue_stats(w, name, dev.queue().stats());
  dump_plug_stats(w, name, dev.plug_stats());
  if (auto* agg = dynamic_cast<AggregateDevice*>(&dev)) {
    dump_volume_stats(w, name, agg->aggregate_stats());
    if (auto* par = dynamic_cast<ParityDevice*>(agg)) {
      dump_parity_stats(w, name, par->volume_stats());
    }
    for (std::size_t i = 0; i < agg->members(); ++i) {
      dump_device_tree_stats(w, name + "/" + std::to_string(i),
                             agg->member(i));
    }
  }
}

}  // namespace bsim::blk
