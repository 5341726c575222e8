#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>

#include "sim/rng.h"
#include "workloads/macro.h"
#include "xv6fs/layout.h"

namespace bsim::bm {

namespace {

constexpr std::uint64_t kBlock = kern::kPageSize;
constexpr std::uint64_t kSector = 512;
constexpr std::uint64_t kKiB = 1ull << 10;
constexpr std::uint64_t kMiB = 1ull << 20;
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

std::uint64_t mix(std::uint64_t x) {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// File contents. Byte x of a file written in pass `pass` holds byte x % 8
/// of the little-endian word pattern(seed, pass) + (x / 8) * golden, so a
/// reader that knows the pass checks every byte, whatever the offset and
/// length of the write that put it there.
std::uint64_t pattern(std::uint64_t seed, std::uint64_t pass) {
  return mix(seed ^ mix(pass));
}

/// Fills `out` with the content of pattern `base` at file offset `off`.
void fill(std::span<std::byte> out, std::uint64_t base, std::uint64_t off) {
  std::size_t skip = off % 8;
  std::size_t i = 0;
  for (std::uint64_t w = off / 8; i < out.size(); ++w) {
    const std::uint64_t v = base + w * kGolden;
    const std::size_t n = std::min<std::size_t>(8 - skip, out.size() - i);
    std::memcpy(out.data() + i, reinterpret_cast<const std::byte*>(&v) + skip,
                n);
    i += n;
    skip = 0;
  }
}

int open_or_throw(Env& env, kern::Process& p, const std::string& path,
                  int flags) {
  auto fd = env.sys.open(p, path, flags);
  if (!fd.ok()) {
    throw std::runtime_error("open " + path + ": " +
                             kern::err_name(fd.error()));
  }
  return fd.value();
}

/// Writes `size` bytes of pattern `base` through `fd` in 1 MiB writes,
/// then fsyncs: the pre-allocated file of the overwrite and read
/// workloads.
void prefill(Env& env, kern::Process& p, int fd, std::uint64_t base,
             std::uint64_t size) {
  std::vector<std::byte> buf(kMiB);
  for (std::uint64_t off = 0; off < size; off += kMiB) {
    const auto chunk = std::span(buf).first(std::min(kMiB, size - off));
    fill(chunk, base, off);
    (void)env.sys.write(p, fd, chunk);
  }
  (void)env.sys.fsync(p, fd);
}

/// A pre-allocated file overwritten as a ring: each write starts where
/// the previous one ended; one that would pass the end is cut short there,
/// and the next starts again at offset 0. Pass 0 is the pre-fill; pass 1
/// starts at a seeded offset, and each wrap starts the next pass.
struct RingFile {
  struct Extent {
    std::uint64_t off;
    std::uint64_t len;
    std::uint64_t pass;
  };

  RingFile(std::uint64_t s, std::uint64_t bytes)
      : seed(s), size(bytes), start(sim::Rng(s).below(bytes)), pos(start) {}

  /// The extent of the next write, `want` bytes long unless the end of
  /// the file cuts it short.
  Extent next(std::uint64_t want) {
    const Extent e{pos, std::min(want, size - pos), pass};
    pos += e.len;
    if (pos == size) {
      pos = 0;
      pass += 1;
    }
    return e;
  }

  /// The pass that last wrote byte x: pass q covered [start or 0, pos or
  /// size).
  [[nodiscard]] std::uint64_t pass_at(std::uint64_t x) const {
    for (std::uint64_t q = pass; q >= 1; --q) {
      const std::uint64_t lo = q == 1 ? start : 0;
      const std::uint64_t hi = q == pass ? pos : size;
      if (lo <= x && x < hi) return q;
    }
    return 0;
  }

  /// Fills `out` with what the file must hold at offset `off`.
  void expect(std::span<std::byte> out, std::uint64_t off) const {
    const std::uint64_t end = off + out.size();
    for (std::uint64_t x = off; x < end;) {
      std::uint64_t stop = end;
      for (const std::uint64_t b : {start, pos}) {
        if (b > x && b < stop) stop = b;
      }
      fill(out.subspan(x - off, stop - x), pattern(seed, pass_at(x)), x);
      x = stop;
    }
  }

  std::uint64_t seed;
  std::uint64_t size;
  std::uint64_t start;
  std::uint64_t pos;
  std::uint64_t pass = 1;
};

/// Reads the whole of a ring file back in 1 MiB preads, or `samples`
/// seeded 4 KiB blocks of it, and counts the blocks whose content differs
/// from what the ring says was written last.
std::uint64_t ring_readback(Env& env, const RingFile& f,
                            const std::string& path, int samples) {
  auto p = env.bed.kernel().new_process();
  const int fd = open_or_throw(env, *p, path, kern::kORdOnly);
  std::vector<std::byte> got(samples > 0 ? kBlock : kMiB);
  std::vector<std::byte> want(got.size());
  sim::Rng pick(mix(f.seed ^ 0x5e9));
  const std::uint64_t nblocks = f.size / kBlock;
  std::uint64_t wrong = 0;
  auto check = [&](std::uint64_t off) {
    const auto chunk = std::min<std::uint64_t>(got.size(), f.size - off);
    auto r = env.sys.pread(*p, fd, std::span(got).first(chunk), off);
    f.expect(std::span(want).first(chunk), off);
    for (std::uint64_t b = 0; b < chunk; b += kBlock) {
      const auto n = std::min(kBlock, chunk - b);
      if (!r.ok() || r.value() != chunk ||
          std::memcmp(got.data() + b, want.data() + b, n) != 0) {
        wrong += 1;
      }
    }
  };
  if (samples > 0) {
    for (int k = 0; k < samples; ++k) check(pick.below(nblocks) * kBlock);
  } else {
    for (std::uint64_t off = 0; off < f.size; off += kMiB) check(off);
  }
  (void)env.sys.close(*p, fd);
  return wrong;
}

wl::BedOptions bento_bed(std::uint64_t device_blocks, std::string opts) {
  wl::BedOptions o;
  o.fs = "xv6_bento";
  o.device_blocks = device_blocks;
  o.mount_opts = std::move(opts);
  return o;
}

// ---- mail: filebench varmail ----
//
// The op sequence of wl::Varmail (delete; create+append+fsync;
// read+append+fsync; read) with the same random draws, issued through the
// shim and checked against the loop's own bookkeeping.

struct MailBox {
  static constexpr std::uint64_t kFiles = 1000;
  static constexpr std::size_t kMeanSize = 16384;
  static constexpr std::size_t kAppend = 16384;
  static constexpr std::size_t kReadBuf = kMiB;

  std::vector<bool> exists;
  std::vector<std::uint64_t> size;
  std::uint64_t bad_reads = 0;  // whole-file reads of the wrong length

  static std::string path(std::uint64_t i) {
    return "/mnt/vm/m" + std::to_string(i);
  }
};

class MailJob final : public Job {
 public:
  MailJob(Env& env, int tid, MailBox& box, std::uint64_t seed,
          std::uint64_t prefill_seed)
      : Job(env, tid),
        box_(box),
        rng_(seed ^ (static_cast<std::uint64_t>(tid) << 32)),
        prefill_seed_(prefill_seed),
        append_(MailBox::kAppend),
        read_(MailBox::kReadBuf) {}

  void setup() override {
    proc_ = env_.bed.kernel().new_process();
    if (tid_ != 0) return;
    auto& s = env_.sys;
    box_.exists.assign(MailBox::kFiles, false);
    box_.size.assign(MailBox::kFiles, 0);
    (void)s.mkdir(*proc_, "/mnt/vm");
    sim::Rng prep(prefill_seed_);
    for (std::uint64_t i = 0; i < MailBox::kFiles; ++i) {
      const int fd = open_or_throw(env_, *proc_, MailBox::path(i),
                                   kern::kOCreat | kern::kOWrOnly);
      const auto size =
          prep.size_around(MailBox::kMeanSize, 4 * MailBox::kMeanSize);
      std::vector<std::byte> data(size, std::byte{0x6d});
      auto w = s.write(*proc_, fd, data);
      (void)s.close(*proc_, fd);
      box_.exists[i] = true;
      box_.size[i] = w.ok() ? w.value() : 0;
    }
  }

 protected:
  std::int64_t op() override {
    auto& s = env_.sys;
    auto& p = *proc_;
    std::int64_t bytes = 0;
    // 1. deletefile
    {
      const std::uint64_t i = pick_existing();
      if (box_.exists[i] && s.unlink(p, MailBox::path(i)) == kern::Err::Ok) {
        box_.exists[i] = false;
      }
    }
    // 2. createfile + appendfilerand + fsync + close
    {
      std::uint64_t i = rng_.below(MailBox::kFiles);
      for (int tries = 0; tries < 64 && box_.exists[i]; ++tries) {
        i = rng_.below(MailBox::kFiles);
      }
      if (!box_.exists[i]) {
        auto fd = s.open(p, MailBox::path(i), kern::kOCreat | kern::kOWrOnly);
        if (fd.ok()) {
          const auto n = rng_.size_around(MailBox::kMeanSize,
                                          4 * MailBox::kMeanSize);
          auto w = s.write(p, fd.value(),
                           std::span<const std::byte>(append_).first(
                               std::min<std::size_t>(n, append_.size())));
          (void)s.fsync(p, fd.value());
          (void)s.close(p, fd.value());
          box_.exists[i] = true;
          box_.size[i] = w.ok() ? w.value() : 0;
          bytes += w.ok() ? static_cast<std::int64_t>(w.value()) : 0;
        }
      }
    }
    // 3. open + readwholefile + appendfilerand + fsync + close
    {
      const std::uint64_t i = pick_existing();
      if (box_.exists[i]) {
        auto fd = s.open(p, MailBox::path(i), kern::kORdWr);
        if (fd.ok()) {
          bytes += read_whole(fd.value(), i);
          (void)s.lseek_end(p, fd.value());
          auto w = s.write(p, fd.value(), append_);
          if (w.ok()) {
            box_.size[i] += w.value();
            bytes += static_cast<std::int64_t>(w.value());
          }
          (void)s.fsync(p, fd.value());
          (void)s.close(p, fd.value());
        }
      }
    }
    // 4. open + readwholefile + close
    {
      const std::uint64_t i = pick_existing();
      if (box_.exists[i]) {
        auto fd = s.open(p, MailBox::path(i), kern::kORdOnly);
        if (fd.ok()) {
          bytes += read_whole(fd.value(), i);
          (void)s.close(p, fd.value());
        }
      }
    }
    return bytes;
  }

 private:
  std::uint64_t pick_existing() {
    for (int tries = 0; tries < 64; ++tries) {
      const std::uint64_t i = rng_.below(MailBox::kFiles);
      if (box_.exists[i]) return i;
    }
    for (std::uint64_t i = 0; i < MailBox::kFiles; ++i) {
      if (box_.exists[i]) return i;
    }
    return 0;
  }

  std::int64_t read_whole(int fd, std::uint64_t i) {
    auto r = env_.sys.pread(*proc_, fd, read_, 0);
    const std::uint64_t want = std::min<std::uint64_t>(box_.size[i], read_.size());
    if (!r.ok() || r.value() != want) {
      box_.bad_reads += 1;
      return 0;
    }
    return static_cast<std::int64_t>(r.value());
  }

  MailBox& box_;
  sim::Rng rng_;
  std::uint64_t prefill_seed_;
  std::unique_ptr<kern::Process> proc_;
  std::vector<std::byte> append_;
  std::vector<std::byte> read_;
};

class MailBench final : public Bench {
 public:
  MailBench(std::uint64_t seed, std::uint64_t ops, std::uint64_t prefill_seed)
      : seed_(seed), ops_(ops), prefill_seed_(prefill_seed) {}

  wl::BedOptions bed() const override { return bento_bed(262'144, ""); }
  int threads() const override { return 16; }
  std::uint64_t ops() const override { return ops_; }
  std::size_t trace_events() const override { return 150 * ops_; }

  std::unique_ptr<Job> job(Env& env, int tid) override {
    return std::make_unique<MailJob>(env, tid, box_, seed_, prefill_seed_);
  }

  void verify(Env& env, Checks& checks) override {
    auto p = env.bed.kernel().new_process();
    checks.expect(box_.bad_reads == 0, "mail.whole_file_reads",
                  std::to_string(box_.bad_reads) + " reads of wrong length");
    auto ents = env.sys.readdir(*p, "/mnt/vm");
    checks.expect(ents.ok(), "mail.readdir");
    if (!ents.ok()) return;
    std::set<std::string> names;
    for (const kern::DirEnt& e : ents.value()) {
      if (e.name != "." && e.name != "..") names.insert(e.name);
    }
    std::uint64_t live = 0;
    std::uint64_t wrong = 0;
    for (std::uint64_t i = 0; i < MailBox::kFiles; ++i) {
      const bool listed = names.count("m" + std::to_string(i)) != 0;
      if (!box_.exists[i]) {
        wrong += listed ? 1 : 0;
        continue;
      }
      live += 1;
      auto st = env.sys.stat(*p, MailBox::path(i));
      if (!listed || !st.ok() || st.value().size != box_.size[i]) wrong += 1;
    }
    checks.expect(wrong == 0 && names.size() == live, "mail.file_set",
                  std::to_string(names.size()) + " listed, " +
                      std::to_string(live) + " expected, " +
                      std::to_string(wrong) + " wrong");
  }

 private:
  std::uint64_t seed_;
  std::uint64_t ops_;
  std::uint64_t prefill_seed_;
  MailBox box_;
};

// ---- untar: replay of a synthetic linux-4.15 tree ----

class UntarJob final : public Job {
 public:
  UntarJob(Env& env, const std::vector<wl::UntarEntry>& manifest)
      : Job(env, 0), manifest_(manifest), data_(kMiB, std::byte{0x55}) {}

  void setup() override { proc_ = env_.bed.kernel().new_process(); }

 protected:
  bool done() const override { return next_ >= manifest_.size(); }

  std::int64_t op() override {
    const wl::UntarEntry& e = manifest_[next_++];
    auto& s = env_.sys;
    if (e.is_dir) {
      (void)s.mkdir(*proc_, e.path);
      return 0;
    }
    auto fd = s.open(*proc_, e.path, kern::kOCreat | kern::kOWrOnly);
    if (!fd.ok()) return 0;
    std::uint64_t left = e.size;
    std::int64_t bytes = 0;
    while (left > 0) {
      const auto chunk = std::min<std::uint64_t>(left, data_.size());
      auto w = s.write(*proc_, fd.value(),
                       std::span<const std::byte>(data_).first(chunk));
      if (!w.ok()) break;
      bytes += static_cast<std::int64_t>(w.value());
      left -= chunk;
    }
    (void)s.close(*proc_, fd.value());
    return bytes;
  }

 private:
  const std::vector<wl::UntarEntry>& manifest_;
  std::size_t next_ = 0;
  std::unique_ptr<kern::Process> proc_;
  std::vector<std::byte> data_;
};

class UntarBench final : public Bench {
 public:
  explicit UntarBench(std::uint64_t seed)
      : manifest_(wl::linux_tree_manifest(0.25, seed)) {}

  wl::BedOptions bed() const override { return bento_bed(524'288, ""); }
  int threads() const override { return 1; }
  std::uint64_t ops() const override { return 0; }
  std::size_t trace_events() const override { return 1'500'000; }

  std::unique_ptr<Job> job(Env& env, int) override {
    return std::make_unique<UntarJob>(env, manifest_);
  }

  void verify(Env& env, Checks& checks) override {
    auto p = env.bed.kernel().new_process();
    std::uint64_t wrong = 0;
    for (const wl::UntarEntry& e : manifest_) {
      auto st = env.sys.stat(*p, e.path);
      const kern::FileType want =
          e.is_dir ? kern::FileType::Directory : kern::FileType::Regular;
      if (!st.ok() || st.value().type != want ||
          (!e.is_dir && st.value().size != e.size)) {
        wrong += 1;
      }
    }
    checks.expect(wrong == 0, "untar.manifest_stat",
                  std::to_string(wrong) + " of " +
                      std::to_string(manifest_.size()) + " entries wrong");
  }

 private:
  std::vector<wl::UntarEntry> manifest_;
};

// ---- seqwrite_r0x4 and fsync_r5x4: ring overwrites of a pre-allocated file ----

/// One ring-overwrite workload: its volume, its file and its writes. Write
/// lengths are seeded draws at byte granularity, so a write's page-copy
/// cost, and with it its latency, depends on the seed.
struct RingSpec {
  const char* name;
  const char* mount_opts;
  const char* path;
  std::uint64_t file_bytes;
  std::uint64_t max_write;
  std::uint64_t (*write_len)(sim::Rng&);  // at most max_write
  bool fsync;                             // fsync after every write
  std::size_t events_per_op;              // trace ring sizing
  int readback_samples;                   // 0 reads the whole file back
};

class RingJob final : public Job {
 public:
  RingJob(Env& env, const RingSpec& spec, RingFile& f)
      : Job(env, 0),
        spec_(spec),
        f_(f),
        rng_(mix(f.seed ^ 0x3f1)),
        buf_(spec.max_write) {}

  void setup() override {
    proc_ = env_.bed.kernel().new_process();
    fd_ = open_or_throw(env_, *proc_, spec_.path,
                        kern::kOCreat | kern::kORdWr);
    prefill(env_, *proc_, fd_, pattern(f_.seed, 0), f_.size);
  }

 protected:
  std::int64_t op() override {
    const RingFile::Extent e = f_.next(spec_.write_len(rng_));
    const auto buf = std::span(buf_).first(e.len);
    fill(buf, pattern(f_.seed, e.pass), e.off);
    auto w = env_.sys.pwrite(*proc_, fd_, buf, e.off);
    if (spec_.fsync) (void)env_.sys.fsync(*proc_, fd_);
    return w.ok() ? static_cast<std::int64_t>(w.value()) : 0;
  }

 private:
  const RingSpec& spec_;
  RingFile& f_;
  sim::Rng rng_;
  std::unique_ptr<kern::Process> proc_;
  int fd_ = -1;
  std::vector<std::byte> buf_;
};

class RingBench final : public Bench {
 public:
  RingBench(const RingSpec& spec, std::uint64_t seed, std::uint64_t ops)
      : spec_(spec), f_(seed, spec.file_bytes), ops_(ops) {}

  wl::BedOptions bed() const override {
    return bento_bed(262'144, spec_.mount_opts);
  }
  int threads() const override { return 1; }
  std::uint64_t ops() const override { return ops_; }
  std::size_t trace_events() const override {
    return spec_.events_per_op * ops_;
  }

  std::unique_ptr<Job> job(Env& env, int) override {
    return std::make_unique<RingJob>(env, spec_, f_);
  }

  void verify(Env& env, Checks& checks) override {
    const std::uint64_t wrong =
        ring_readback(env, f_, spec_.path, spec_.readback_samples);
    checks.expect(wrong == 0, std::string(spec_.name) + ".readback",
                  std::to_string(wrong) + " blocks wrong");
  }

 private:
  const RingSpec& spec_;
  RingFile f_;
  std::uint64_t ops_;
};

/// Buffered sequential writes on a 4-member RAID0 (64 KiB chunks), no
/// fsync. Lengths are uniform in [64 KiB, 192 KiB]: the mean is 128 KiB,
/// the buffer size of coreutils cp and cat; the range around it is a
/// choice, not taken from a trace. The 128 MiB file is overwritten about
/// ten times.
constexpr RingSpec kSeqWrite{
    "seqwrite", "stripe=4,chunk=16", "/mnt/seq", 128 * kMiB, 192 * kKiB,
    [](sim::Rng& r) { return r.range(64 * kKiB, 192 * kKiB); },
    false, 480, 1024};

/// A write-ahead log on a 4+1 RAID5 (64 KiB chunks): each op appends one
/// commit record and fsyncs it, cycling through a 16 MiB log file. Record
/// lengths follow the clamped-exponential size model mail uses
/// (Rng::size_around, after filebench): mean 2 KiB, at most 16 KiB, so
/// most commits touch one or two blocks and a few large ones make the
/// tail.
constexpr RingSpec kFsync{
    "fsync", "parity=4,chunk=16", "/mnt/fsync", 16 * kMiB, 16 * kKiB,
    [](sim::Rng& r) { return r.size_around(2 * kKiB, 16 * kKiB); },
    true, 150, 0};

// ---- randread_cold: random record reads of a file the cache has not seen ----

struct RandFile {
  static constexpr std::uint64_t kBytes = 512 * kMiB;
  // A plain device with default options. The remount that empties the
  // page cache passes no "trace=": the tracer stays armed on the device.
  static constexpr const char* kMountOpts = "";

  std::uint64_t seed;
  std::uint64_t bad_reads = 0;
};

class RandJob final : public Job {
 public:
  RandJob(Env& env, int tid, RandFile& f)
      : Job(env, tid),
        f_(f),
        rng_(mix(f.seed) ^ (static_cast<std::uint64_t>(tid) << 32)),
        got_(kBlock),
        want_(kBlock) {}

  void setup() override {
    proc_ = env_.bed.kernel().new_process();
    if (tid_ == 0) {
      // Write the file, then remount so the page cache starts cold.
      const int fd = open_or_throw(env_, *proc_, "/mnt/rr",
                                   kern::kOCreat | kern::kOWrOnly);
      prefill(env_, *proc_, fd, pattern(f_.seed, 0), RandFile::kBytes);
      (void)env_.sys.close(*proc_, fd);
      auto& k = env_.bed.kernel();
      if (k.umount("/mnt") != kern::Err::Ok ||
          k.mount(env_.bed.fs(), "ssd0", "/mnt", RandFile::kMountOpts) !=
              kern::Err::Ok) {
        throw std::runtime_error("randread_cold: remount failed");
      }
    }
    fd_ = open_or_throw(env_, *proc_, "/mnt/rr", kern::kORdOnly);
    if (tid_ == 0) {
      // Warm the block map: one sector read per run of kNIndirect blocks
      // caches every indirect block (and 0.1% of the data pages), so a
      // measured miss costs one data read. Left cold, the map's first
      // touches add device reads to about 250 early ops, and whether p999
      // lands among them flips from seed to seed.
      for (std::uint64_t b = 0; b < RandFile::kBytes / kBlock;
           b += xv6::kNIndirect) {
        (void)env_.sys.pread(*proc_, fd_, std::span(got_).first(kSector),
                             b * kBlock);
      }
    }
  }

 protected:
  /// Reads one record: one sector to one block long (512 B to 4 KiB), at
  /// a uniform offset within a uniform block, so it never spans two
  /// blocks and a miss costs one device read.
  std::int64_t op() override {
    const std::uint64_t len = rng_.range(kSector, kBlock);
    const std::uint64_t off = rng_.below(RandFile::kBytes / kBlock) * kBlock +
                              rng_.below(kBlock - len + 1);
    const auto got = std::span(got_).first(len);
    const auto want = std::span(want_).first(len);
    auto r = env_.sys.pread(*proc_, fd_, got, off);
    fill(want, pattern(f_.seed, 0), off);
    if (!r.ok() || r.value() != len ||
        std::memcmp(got.data(), want.data(), len) != 0) {
      f_.bad_reads += 1;
      return 0;
    }
    return static_cast<std::int64_t>(len);
  }

 private:
  RandFile& f_;
  sim::Rng rng_;
  std::unique_ptr<kern::Process> proc_;
  int fd_ = -1;
  std::vector<std::byte> got_;
  std::vector<std::byte> want_;
};

class RandBench final : public Bench {
 public:
  RandBench(std::uint64_t seed, std::uint64_t ops) : f_{seed}, ops_(ops) {}

  wl::BedOptions bed() const override {
    return bento_bed(262'144, RandFile::kMountOpts);
  }
  int threads() const override { return 4; }
  std::uint64_t ops() const override { return ops_; }
  std::size_t trace_events() const override { return 10 * ops_; }

  std::unique_ptr<Job> job(Env& env, int tid) override {
    return std::make_unique<RandJob>(env, tid, f_);
  }

  void verify(Env&, Checks& checks) override {
    checks.expect(f_.bad_reads == 0, "randread.content",
                  std::to_string(f_.bad_reads) + " reads returned wrong data");
  }

 private:
  RandFile f_;
  std::uint64_t ops_;
};

}  // namespace

std::unique_ptr<Bench> make_mail(std::uint64_t seed, std::uint64_t ops,
                                 std::uint64_t prefill_seed) {
  return std::make_unique<MailBench>(seed, ops, prefill_seed);
}

std::unique_ptr<Bench> make_bench(std::string_view name, std::uint64_t seed,
                                  std::uint64_t ops) {
  auto pick = [ops](std::uint64_t dflt) { return ops != 0 ? ops : dflt; };
  if (name == "mail") return make_mail(seed, pick(20'000), mix(seed ^ 99));
  if (name == "untar") return std::make_unique<UntarBench>(seed);
  if (name == "seqwrite_r0x4") {
    return std::make_unique<RingBench>(kSeqWrite, seed, pick(10'000));
  }
  if (name == "randread_cold") {
    return std::make_unique<RandBench>(seed, pick(40'000));
  }
  if (name == "fsync_r5x4") {
    return std::make_unique<RingBench>(kFsync, seed, pick(20'000));
  }
  return nullptr;
}

}  // namespace bsim::bm
