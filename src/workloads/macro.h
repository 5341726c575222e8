// Macrobenchmark personalities (paper §6.6): filebench varmail and
// fileserver, plus "untar the Linux kernel".
//
// Op accounting: one step() = one whole personality iteration (varmail's
// delete/create-append-fsync/read-append-fsync/read sequence; fileserver's
// create-write/append/read/delete/stat sequence). The paper's absolute
// ops/sec therefore differ by the flowops-per-iteration factor; compare
// ratios between file systems, which are unit-free.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/runner.h"
#include "workloads/testbed.h"

namespace bsim::wl {

struct VarmailConfig {
  std::uint64_t nfiles = 1000;
  std::size_t mean_size = 16384;
  std::size_t iosize = 16384;  // append size
};

/// Shared across varmail threads: which mail files currently exist.
struct MailSet {
  VarmailConfig config;
  std::vector<bool> exists;
};

/// filebench varmail: a mail-server-like fsync-heavy loop.
class Varmail final : public sim::Workload {
 public:
  Varmail(TestBed& bed, MailSet& set, int thread_id, std::uint64_t seed);
  void setup() override;
  std::int64_t step() override;

  static std::string path_of(std::uint64_t i);

 private:
  std::uint64_t pick_existing();
  std::int64_t do_iteration();

  TestBed& bed_;
  MailSet& set_;
  int thread_id_;
  sim::Rng rng_;
  std::unique_ptr<kern::Process> proc_;
  std::vector<std::byte> append_buf_;
  std::vector<std::byte> read_buf_;
};

struct FileserverConfig {
  std::uint64_t nfiles = 5000;
  int dirwidth = 20;
  std::size_t mean_size = 131072;  // 128 KiB
  std::size_t append_size = 16384;
};

struct ServerSet {
  FileserverConfig config;
  std::vector<bool> exists;
  std::uint64_t next_new = 0;  // names for freshly created files
};

/// filebench fileserver: create/write, append, read-whole, delete, stat.
class Fileserver final : public sim::Workload {
 public:
  Fileserver(TestBed& bed, ServerSet& set, int thread_id, std::uint64_t seed);
  void setup() override;
  std::int64_t step() override;

  static std::string path_of(const FileserverConfig& cfg, std::uint64_t i);

 private:
  std::uint64_t pick_existing();
  TestBed& bed_;
  ServerSet& set_;
  int thread_id_;
  sim::Rng rng_;
  std::unique_ptr<kern::Process> proc_;
  std::vector<std::byte> buf_;
  std::vector<std::byte> read_buf_;
};

/// One entry of the synthetic Linux source tree.
struct UntarEntry {
  std::string path;
  std::uint64_t size = 0;  // 0 with is_dir
  bool is_dir = false;
};

/// Deterministic synthetic linux-4.15 source-tree manifest. `scale` = 1.0
/// reproduces the full tree's shape (~62k files, ~900 MB); benchmarks run
/// scaled down and report the scale they used.
std::vector<UntarEntry> linux_tree_manifest(double scale, std::uint64_t seed);

/// Untar: replay a manifest (mkdir/create/write/close), single-threaded.
class Untar final : public sim::Workload {
 public:
  Untar(TestBed& bed, const std::vector<UntarEntry>& manifest);
  void setup() override;
  std::int64_t step() override;

  [[nodiscard]] bool done() const { return next_ >= manifest_.size(); }

 private:
  TestBed& bed_;
  const std::vector<UntarEntry>& manifest_;
  std::size_t next_ = 0;
  std::unique_ptr<kern::Process> proc_;
  std::vector<std::byte> data_;
};

}  // namespace bsim::wl
