// Ablation: RAID1 mirrored volumes vs one device.
//
// Sweeps 1/2/4-way mirrors at a fixed LOGICAL volume size and measures
//   raw-rndread    — random 4 KiB reads at QD>1: balanced across replicas,
//                    so bandwidth should scale ~linearly with member count
//                    (the acceptance gate: >=1.8x at a 2-way mirror).
//   raw-seqwrite   — durable sequential writes: replicated to every member
//                    CONCURRENTLY via per-member submit_async, so the
//                    mirrored write stays within ~10% of one device.
//   degraded-rndread — the 2-way mirror after fail_member(1): all reads
//                    fall back to the survivor (~1x one device).
//   rebuild-rndread  — foreground random reads while the failed member
//                    resyncs: between degraded and healthy (the rebuild
//                    competes for the source's channels but backpressure
//                    keeps the foreground first).
//   Bento-seqwrite — buffered sequential writes through the full
//                    xv6-on-Bento stack mounted on the mirrored volume.
#include <array>
#include <vector>

#include "blockdev/mirrored.h"
#include "common.h"
#include "sim/rng.h"
#include "sim/thread.h"

using namespace bsim;
using namespace bsim::bench;

namespace {

constexpr std::uint64_t kLogicalBlocks = 32'768;  // 128 MiB volume

std::unique_ptr<blk::MirroredDevice> make_volume(std::size_t nmirrors) {
  blk::MirrorParams mp;
  mp.nmirrors = nmirrors;
  blk::DeviceParams member;
  member.nblocks = kLogicalBlocks;
  return std::make_unique<blk::MirroredDevice>(mp, member);
}

/// Random 4 KiB read bandwidth at QD>1: 4096 reads, 64 per batch, up to
/// 8 batches in flight. Optional member failure / rebuild first.
double raw_rnd_read(std::size_t nmirrors, bool fail_one, bool rebuilding) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  auto vol = make_volume(nmirrors);
  sim::Rng rng(7);
  if (fail_one) vol->fail_member(nmirrors - 1);
  if (rebuilding) vol->start_rebuild(nmirrors - 1);

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

/// Durable sequential write bandwidth: 8 MiB in 256-block batches, up to
/// 4 batches in flight, FLUSH at the end.
double raw_seq_write(std::size_t nmirrors) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  auto vol = make_volume(nmirrors);

  constexpr std::uint64_t kTotal = 2048;  // blocks (fits every write cache)
  constexpr std::size_t kBatch = 256;
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

/// Buffered sequential writes through the mounted Bento deployment.
double fs_seq_write(int nmirrors) {
  BenchRun run;
  run.fs = "xv6_bento";
  run.nthreads = 1;
  run.max_ops = 1'000;
  run.horizon = 20 * sim::kSecond;
  run.mount_opts = "mirror=" + std::to_string(nmirrors);
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

  std::printf("Ablation: mirrored volumes — redundancy vs bandwidth "
              "(MBps)\n\n");
  std::printf("%-10s %12s %10s %12s %10s %14s\n", "mirrors", "raw-rndread",
              "scaling", "raw-seqwrite", "w-ratio", "Bento-seqwrite");

  JsonReport json("redundancy", "MBps");
  double base_read = 0, base_write = 0;
  for (const std::size_t n : {1UL, 2UL, 4UL}) {
    const double r = raw_rnd_read(n, false, false);
    const double w = raw_seq_write(n);
    const double f = fs_seq_write(static_cast<int>(n));
    if (n == 1) {
      base_read = r;
      base_write = w;
    }
    const std::string label = std::to_string(n) + "way";
    json.add("raw-rndread", label, r);
    json.add("raw-seqwrite", label, w);
    json.add("Bento-seqwrite", label, f);
    json.add("raw-rndread-scaling", label, base_read > 0 ? r / base_read : 0);
    json.add("raw-seqwrite-ratio", label,
             base_write > 0 ? w / base_write : 0);
    std::printf("%-10zu %12.1f %9.2fx %12.1f %9.2fx %14.1f\n", n, r,
                base_read > 0 ? r / base_read : 0.0, w,
                base_write > 0 ? w / base_write : 0.0, f);
    std::fflush(stdout);
  }

  const double degraded = raw_rnd_read(2, /*fail_one=*/true, false);
  const double rebuilding = raw_rnd_read(2, /*fail_one=*/true,
                                         /*rebuilding=*/true);
  json.add("degraded-rndread", "2way-1failed", degraded);
  json.add("rebuild-rndread", "2way-resync", rebuilding);
  std::printf("\n%-22s %12.1f\n", "degraded (2way-1fail)", degraded);
  std::printf("%-22s %12.1f\n", "during rebuild", rebuilding);
  return 0;
}
