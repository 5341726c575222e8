// Ablation: RAID5 parity volumes vs one device.
//
// Sweeps a 4+1 left-symmetric parity volume at a fixed LOGICAL volume
// size and measures
//   fullstripe-seqwrite — stripe-row-aligned sequential writes: the
//                    reconstruct-write path computes parity in memory and
//                    streams to all five members concurrently, so the
//                    aggregate bandwidth must scale with the data columns
//                    (the acceptance gate: >=2.5x one device at 4+1).
//   rmw-rndwrite   — scattered single-block writes: each takes the
//                    read-modify-write path (read old data + old parity,
//                    write new data + new parity), well below one device.
//   raw-rndread    — random 4 KiB reads at QD>1: healthy reads route
//                    straight to the owning data member, so ~4 devices
//                    worth of channels serve them.
//   degraded-rndread — after fail_member(2): reads of the lost column
//                    reconstruct from the surviving members' XOR.
//   rebuild-rndread  — foreground random reads while a hot spare
//                    resyncs: between degraded and healthy (rebuild XOR
//                    reads compete for every member's channels).
//   Bento-seqwrite — buffered sequential writes through the full
//                    xv6-on-Bento stack mounted on the parity volume.
#include <array>
#include <cstdio>
#include <vector>

#include "blockdev/mirrored.h"
#include "blockdev/parity.h"
#include "common.h"
#include "sim/rng.h"
#include "sim/thread.h"

using namespace bsim;
using namespace bsim::bench;

namespace {

constexpr std::uint64_t kLogicalBlocks = 32'768;  // 128 MiB volume
constexpr std::uint64_t kChunk = 16;              // 64 KiB chunks
constexpr std::size_t kNData = 4;                 // 4+1 members

std::unique_ptr<blk::ParityDevice> make_parity(std::size_t nspares = 0) {
  blk::ParityParams pp;
  pp.ndata = kNData;
  pp.chunk_blocks = kChunk;
  pp.nspares = nspares;
  blk::DeviceParams member;
  // 1 intent-bitmap block + logical/ndata data blocks per member.
  member.nblocks = blk::ParityDevice::kBitmapBlocks + kLogicalBlocks / kNData;
  return std::make_unique<blk::ParityDevice>(pp, member);
}

/// One plain device of the same logical capacity (a 1-way mirror is the
/// established "one device" baseline; see bench_ablation_redundancy).
std::unique_ptr<blk::MirroredDevice> make_single() {
  blk::MirrorParams mp;
  mp.nmirrors = 1;
  blk::DeviceParams member;
  member.nblocks = kLogicalBlocks;
  return std::make_unique<blk::MirroredDevice>(mp, member);
}

/// Durable sequential write bandwidth in stripe-row-aligned batches (one
/// batch = one full 64-block stripe row), up to 4 rows in flight.
double seq_write(blk::BlockDevice& vol) {
  constexpr std::uint64_t kTotal = 2048;  // blocks
  constexpr std::size_t kBatch = kChunk * kNData;  // one full stripe row
  constexpr std::size_t kDepth = 4;
  std::array<std::byte, blk::kBlockSize> payload{};
  payload.fill(std::byte{0x5A});

  const sim::Nanos start = sim::now();
  std::vector<blk::Ticket> inflight;
  std::vector<std::vector<blk::Bio>> live;
  for (std::uint64_t b = 0; b < kTotal; b += kBatch) {
    std::vector<blk::Bio> bios;
    bios.reserve(kBatch);
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      bios.push_back(blk::Bio::single_write(b + i, payload));
    }
    if (inflight.size() == kDepth) {
      vol.wait(inflight.front());
      inflight.erase(inflight.begin());
    }
    live.push_back(std::move(bios));
    inflight.push_back(vol.submit_async(live.back()));
  }
  for (const blk::Ticket& t : inflight) vol.wait(t);
  vol.flush();
  const double secs = sim::to_seconds(sim::now() - start);
  return static_cast<double>(kTotal * blk::kBlockSize) / (1e6 * secs);
}

/// Scattered single-block durable writes: every one is a read-modify-write
/// on a parity volume.
double rnd_write(blk::BlockDevice& vol) {
  constexpr std::size_t kWrites = 512;
  sim::Rng rng(11);
  std::array<std::byte, blk::kBlockSize> payload{};
  payload.fill(std::byte{0xC3});

  const sim::Nanos start = sim::now();
  for (std::size_t i = 0; i < kWrites; ++i) {
    blk::Bio bio = blk::Bio::single_write(rng.below(vol.nblocks()), payload);
    vol.submit({&bio, 1});
  }
  vol.flush();
  const double secs = sim::to_seconds(sim::now() - start);
  return static_cast<double>(kWrites * blk::kBlockSize) / (1e6 * secs);
}

/// Random 4 KiB read bandwidth at QD>1: 4096 reads, 64 per batch, up to
/// 8 batches in flight.
double rnd_read(blk::BlockDevice& vol) {
  constexpr std::size_t kReads = 4096;
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kDepth = 8;
  sim::Rng rng(7);
  std::vector<std::array<std::byte, blk::kBlockSize>> bufs(kBatch);

  const sim::Nanos start = sim::now();
  std::vector<blk::Ticket> inflight;
  std::vector<std::vector<blk::Bio>> live;
  for (std::size_t r = 0; r < kReads; r += kBatch) {
    std::vector<blk::Bio> bios;
    bios.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      bios.push_back(blk::Bio::single_read(rng.below(vol.nblocks()),
                                           bufs[i]));
    }
    if (inflight.size() == kDepth) {
      vol.wait(inflight.front());
      inflight.erase(inflight.begin());
    }
    live.push_back(std::move(bios));
    inflight.push_back(vol.submit_async(live.back()));
  }
  for (const blk::Ticket& t : inflight) vol.wait(t);
  const double secs = sim::to_seconds(sim::now() - start);
  return static_cast<double>(kReads * blk::kBlockSize) / (1e6 * secs);
}

/// Buffered sequential writes through the mounted Bento deployment.
double fs_seq_write(int parity_devices) {
  BenchRun run;
  run.fs = "xv6_bento";
  run.nthreads = 1;
  run.max_ops = 1'000;
  run.horizon = 20 * sim::kSecond;
  run.mount_opts = "parity=" + std::to_string(parity_devices);
  wl::SharedFile file;
  auto stats = run_bench(run, [&](wl::TestBed& bed, int tid) {
    return std::make_unique<wl::WriteMicro>(bed, file, /*sequential=*/true,
                                            1 << 20, tid, 42);
  });
  return stats.mbytes_per_sec();
}

}  // namespace

int main() {
  reset_costs();

  std::printf("Ablation: RAID5 parity volumes — 4+1 vs one device "
              "(MBps)\n\n");

  JsonReport json("parity", "MBps");

  double single_w, single_r;
  {
    sim::SimThread thread(0);
    sim::ScopedThread in(thread);
    auto dev = make_single();
    single_w = seq_write(*dev);
  }
  {
    sim::SimThread thread(1);
    sim::ScopedThread in(thread);
    auto dev = make_single();
    single_r = rnd_read(*dev);
  }

  double full_w, rmw_w, healthy_r;
  {
    sim::SimThread thread(2);
    sim::ScopedThread in(thread);
    auto pd = make_parity();
    full_w = seq_write(*pd);
  }
  {
    sim::SimThread thread(3);
    sim::ScopedThread in(thread);
    auto pd = make_parity();
    rmw_w = rnd_write(*pd);
  }
  {
    sim::SimThread thread(4);
    sim::ScopedThread in(thread);
    auto pd = make_parity();
    healthy_r = rnd_read(*pd);
  }

  double degraded_r, rebuild_r;
  {
    sim::SimThread thread(5);
    sim::ScopedThread in(thread);
    auto pd = make_parity();
    pd->fail_member(2);
    degraded_r = rnd_read(*pd);
  }
  {
    sim::SimThread thread(6);
    sim::ScopedThread in(thread);
    auto pd = make_parity(/*nspares=*/1);
    pd->fail_member(2);  // hot spare adopts and resync starts
    rebuild_r = rnd_read(*pd);
  }

  const double fs_w = fs_seq_write(static_cast<int>(kNData));

  const double scaling = single_w > 0 ? full_w / single_w : 0.0;
  json.add("fullstripe-seqwrite", "4+1", full_w);
  json.add("fullstripe-seqwrite", "1dev", single_w);
  json.add("fullstripe-scaling", "4+1", scaling);
  json.add("rmw-rndwrite", "4+1", rmw_w);
  json.add("raw-rndread", "4+1", healthy_r);
  json.add("raw-rndread", "1dev", single_r);
  json.add("degraded-rndread", "4+1-1failed", degraded_r);
  json.add("rebuild-rndread", "4+1-resync", rebuild_r);
  json.add("Bento-seqwrite", "4+1", fs_w);

  std::printf("%-24s %12s %12s %10s\n", "row", "1dev", "4+1", "ratio");
  std::printf("%-24s %12.1f %12.1f %9.2fx\n", "fullstripe-seqwrite",
              single_w, full_w, scaling);
  std::printf("%-24s %12s %12.1f\n", "rmw-rndwrite", "-", rmw_w);
  std::printf("%-24s %12.1f %12.1f %9.2fx\n", "raw-rndread", single_r,
              healthy_r, single_r > 0 ? healthy_r / single_r : 0.0);
  std::printf("%-24s %12s %12.1f\n", "degraded-rndread", "-", degraded_r);
  std::printf("%-24s %12s %12.1f\n", "rebuild-rndread", "-", rebuild_r);
  std::printf("%-24s %12s %12.1f\n", "Bento-seqwrite", "-", fs_w);

  if (scaling < 2.5) {
    std::printf("\nGATE FAILED: full-stripe seq-write %.2fx < 2.5x one "
                "device\n", scaling);
    return 1;
  }
  return 0;
}
