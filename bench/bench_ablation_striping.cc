// Ablation: multi-device striped volumes (RAID0) vs one device.
//
// Sweeps 1/2/4/8 member devices at a fixed LOGICAL volume size and
// measures
//   raw-seqwrite  — durable sequential writes straight at the volume
//                   (batched bios, QD>1, one FLUSH at the end): the pure
//                   striping-layer scaling, no file system above.
//   raw-rndread   — random 4 KiB reads, several batches in flight: the
//                   per-member channel parallelism.
//   Bento-seqwrite — buffered sequential writes through the full
//                   xv6-on-Bento stack mounted on the striped volume
//                   (the mount's flusher drains in the background).
//
// Expected shape: raw write/read bandwidth scales ~linearly with member
// count (each member sees 1/N of the blocks and transfers concurrently);
// the FS row scales until the software path (journal, page copies)
// dominates. The acceptance gate for this ablation is >=1.7x at 2 devices
// and >=3x at 4 on the aggregate write row.
#include <array>
#include <vector>

#include "blockdev/striped.h"
#include "common.h"
#include "sim/rng.h"
#include "sim/thread.h"

using namespace bsim;
using namespace bsim::bench;

namespace {

constexpr std::uint64_t kLogicalBlocks = 32'768;  // 128 MiB volume
constexpr std::uint64_t kChunkBlocks = 16;        // 64 KiB chunks

std::unique_ptr<blk::StripedDevice> make_volume(std::size_t ndev) {
  blk::StripeParams sp;
  sp.ndevices = ndev;
  sp.chunk_blocks = kChunkBlocks;
  blk::DeviceParams child;
  child.nblocks = kLogicalBlocks / ndev;
  return std::make_unique<blk::StripedDevice>(sp, child);
}

/// Durable sequential write bandwidth: 8 MiB in 256-block batches, up to
/// 4 batches in flight, FLUSH at the end. Returns MBps of virtual time.
double raw_seq_write(std::size_t ndev) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  auto vol = make_volume(ndev);

  constexpr std::uint64_t kTotal = 2048;  // blocks (fits every write cache)
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kDepth = 4;
  std::array<std::byte, blk::kBlockSize> payload{};
  payload.fill(std::byte{0x5A});

  const sim::Nanos start = sim::now();
  std::vector<blk::Ticket> inflight;
  std::vector<std::vector<blk::Bio>> live;  // keep batches' bios alive
  for (std::uint64_t b = 0; b < kTotal; b += kBatch) {
    std::vector<blk::Bio> bios;
    bios.reserve(kBatch);
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      bios.push_back(blk::Bio::single_write(b + i, payload));
    }
    if (inflight.size() == kDepth) {
      vol->wait(inflight.front());
      inflight.erase(inflight.begin());
    }
    live.push_back(std::move(bios));
    inflight.push_back(vol->submit_async(live.back()));
  }
  for (const blk::Ticket& t : inflight) vol->wait(t);
  vol->flush();
  const double secs = sim::to_seconds(sim::now() - start);
  return static_cast<double>(kTotal * blk::kBlockSize) / (1e6 * secs);
}

/// Random 4 KiB read bandwidth at QD>1: 4096 reads, 64 per batch, up to
/// 8 batches in flight.
double raw_rnd_read(std::size_t ndev) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  auto vol = make_volume(ndev);
  sim::Rng rng(7);

  constexpr std::size_t kReads = 4096;
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kDepth = 8;
  std::vector<std::array<std::byte, blk::kBlockSize>> bufs(kBatch);

  const sim::Nanos start = sim::now();
  std::vector<blk::Ticket> inflight;
  std::vector<std::vector<blk::Bio>> live;
  for (std::size_t r = 0; r < kReads; r += kBatch) {
    std::vector<blk::Bio> bios;
    bios.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      bios.push_back(blk::Bio::single_read(rng.below(vol->nblocks()),
                                           bufs[i]));
    }
    if (inflight.size() == kDepth) {
      vol->wait(inflight.front());
      inflight.erase(inflight.begin());
    }
    live.push_back(std::move(bios));
    inflight.push_back(vol->submit_async(live.back()));
  }
  for (const blk::Ticket& t : inflight) vol->wait(t);
  const double secs = sim::to_seconds(sim::now() - start);
  return static_cast<double>(kReads * blk::kBlockSize) / (1e6 * secs);
}

/// Buffered sequential writes through the mounted Bento deployment.
sim::RunStats fs_seq_write(int ndev) {
  BenchRun run;
  run.fs = "xv6_bento";
  run.nthreads = 1;
  run.max_ops = 1'000;
  run.horizon = 20 * sim::kSecond;
  run.mount_opts = "stripe=" + std::to_string(ndev) +
                   ",chunk=" + std::to_string(kChunkBlocks);
  wl::SharedFile file;
  return run_bench(run, [&](wl::TestBed& bed, int tid) {
    return std::make_unique<wl::WriteMicro>(bed, file, /*sequential=*/true,
                                            1 << 20, tid, 42);
  });
}

}  // namespace

int main() {
  reset_costs();
  const std::size_t devs[] = {1, 2, 4, 8};

  std::printf("Ablation: striped volumes — aggregate bandwidth vs member "
              "count (MBps)\n\n");
  std::printf("%-8s %14s %10s %14s %14s\n", "devices", "raw-seqwrite",
              "scaling", "raw-rndread", "Bento-seqwrite");

  JsonReport json("striping", "MBps");
  double base_write = 0;
  for (const std::size_t n : devs) {
    const double w = raw_seq_write(n);
    const double r = raw_rnd_read(n);
    const sim::RunStats fstats = fs_seq_write(static_cast<int>(n));
    const double f = fstats.mbytes_per_sec();
    if (n == 1) base_write = w;
    const std::string label = std::to_string(n) + "dev";
    json.add("raw-seqwrite", label, w);
    json.add("raw-rndread", label, r);
    json.add("Bento-seqwrite", label, f);
    // Per-op (1 MiB buffered write) latency through the full stack; p99
    // gated downward so stripe-routing regressions surface as latency.
    json.add_latency("Bento-seqwrite-lat", label, fstats.latency);
    json.add("raw-seqwrite-scaling", label,
             base_write > 0 ? w / base_write : 0.0);
    std::printf("%-8zu %14.1f %9.2fx %14.1f %14.1f\n", n, w,
                base_write > 0 ? w / base_write : 0.0, r, f);
    std::fflush(stdout);
  }
  return 0;
}
