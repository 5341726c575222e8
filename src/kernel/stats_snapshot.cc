// The unified stats snapshot: one JSON document per Kernel covering every
// device tree and every mount. Untimed — reading counters never advances
// virtual time. Benches dump this at exit (STATS_*.json); tests parse it
// for the registry-exhaustiveness check.
#include <algorithm>
#include <fstream>

#include "blockdev/statsdump.h"
#include "kernel/kernel.h"

namespace bsim::kern {

namespace {

void dump_buffer_cache(sim::JsonWriter& w, const BufferCacheStats& s) {
  w.begin_object();
  w.field("struct", "BufferCacheStats");
  w.field("hits", s.hits);
  w.field("misses", s.misses);
  w.field("writebacks", s.writebacks);
  w.field("evictions", s.evictions);
  w.field("dirty_scanned", s.dirty_scanned);
  w.field("jdirty_skipped", s.jdirty_skipped);
  w.end_object();
}

/// Page-cache stats are per inode mapping; the snapshot reports the sum
/// over the mount's cached inodes (evicted inodes' history is gone, as
/// with real per-inode counters).
void dump_page_cache(sim::JsonWriter& w, SuperBlock& sb) {
  AddressSpaceStats sum;
  sb.for_each_inode([&](Inode& inode) {
    const AddressSpaceStats& s = inode.mapping.stats();
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.writeback_pages += s.writeback_pages;
    sum.writeback_calls += s.writeback_calls;
    sum.readahead_batches += s.readahead_batches;
    sum.readahead_pages += s.readahead_pages;
    sum.ra_sequential_hits += s.ra_sequential_hits;
    sum.ra_window_max = std::max(sum.ra_window_max, s.ra_window_max);
  });
  w.begin_object();
  w.field("struct", "AddressSpaceStats");
  w.field("hits", sum.hits);
  w.field("misses", sum.misses);
  w.field("writeback_pages", sum.writeback_pages);
  w.field("writeback_calls", sum.writeback_calls);
  w.field("readahead_batches", sum.readahead_batches);
  w.field("readahead_pages", sum.readahead_pages);
  w.field("ra_sequential_hits", sum.ra_sequential_hits);
  w.field("ra_window_max", sum.ra_window_max);
  w.end_object();
}

void dump_flusher(sim::JsonWriter& w, const FlusherStats& s) {
  w.begin_object();
  w.field("struct", "FlusherStats");
  w.field("pokes", s.pokes);
  w.field("wakeups", s.wakeups);
  w.field("threshold_wakeups", s.threshold_wakeups);
  w.field("timer_wakeups", s.timer_wakeups);
  w.field("pages_flushed", s.pages_flushed);
  // The flusher drains no buffers; bench/bm/run.py still reads the key.
  w.field("buffers_flushed", std::uint64_t{0});
  w.field("throttle_waits", s.throttle_waits);
  w.field("throttled_ns", static_cast<std::int64_t>(s.throttled));
  w.field("errors", s.errors);
  w.field("inodes_scanned", s.inodes_scanned);
  sim::dump_histogram(w, "wake_to_drain", s.wake_to_drain);
  w.end_object();
}

}  // namespace

std::string Kernel::dump_stats() {
  sim::JsonWriter w;
  w.begin_object();
  w.field("type", "stats_snapshot");
  w.field("schema", static_cast<std::uint64_t>(1));

  // Devices, name-sorted so the snapshot is byte-stable across runs.
  std::vector<std::string> names;
  names.reserve(devices_.size());
  for (const auto& [name, dev] : devices_) names.push_back(name);
  std::sort(names.begin(), names.end());
  w.key("devices");
  w.begin_array();
  for (const std::string& name : names) {
    blk::dump_device_tree_stats(w, name, *devices_.at(name));
  }
  w.end_array();

  w.key("mounts");
  w.begin_array();
  for (const Mount& m : mounts_) {
    w.begin_object();
    w.field("mountpoint", m.mountpoint);
    w.field("fs", m.sb->fs_name);
    w.field("device", m.devname);
    w.key("stats");
    w.begin_array();
    dump_buffer_cache(w, m.sb->bufcache().stats());
    dump_page_cache(w, *m.sb);
    if (const Flusher* f = m.sb->flusher(); f != nullptr) {
      dump_flusher(w, f->stats());
    }
    for (const auto& [name, fn] : m.sb->stats_dumpers()) fn(w);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

Err Kernel::dump_stats_to(const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Err::Io;
  f << dump_stats();
  return f.good() ? Err::Ok : Err::Io;
}

}  // namespace bsim::kern
