// Data provenance (paper §3, third motivating use case): a pipeline of
// "processes" reads sensor data, calibrates it, and writes reports; the
// provenance layer tracks which sources and executables every output
// depends on. When the sensor calibration turns out to be wrong, the
// invalidation query names exactly the derived data that must be
// regenerated — and the retained pre-overwrite version of the source is
// still readable for auditing, until gc() decides nothing needs it.
//
// Build & run:   cmake --build build && ./build/examples/provenance
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bento/provenance.h"
#include "bento/user.h"
#include "sim/thread.h"
#include "xv6fs/fs.h"
#include "xv6fs/layout.h"

using namespace bsim;

namespace {

std::span<const std::byte> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// A formatted xv6 image in memory: the "disk" under the stack.
std::unique_ptr<bento::MemBlockBackend> xv6_image() {
  blk::DeviceParams params;
  params.nblocks = 8192;
  blk::BlockDevice image(params);
  xv6::mkfs(image, 512);
  return std::make_unique<bento::MemBlockBackend>(image);
}

const char* kind_str(const bento::ProvSource& s) {
  return s.kind == bento::ProvSource::Kind::Image ? "image" : "file";
}

}  // namespace

int main() {
  sim::SimThread main_thread(0);
  sim::ScopedThread in(main_thread);

  auto prov = std::make_unique<bento::ProvenanceFs>(
      std::make_unique<xv6::Xv6FileSystem>());
  auto* fs = prov.get();
  bento::UserMount mount(xv6_image(), std::move(prov));
  if (mount.mount_init() != kern::Err::Ok) return 1;

  // Register the pipeline's "executables".
  fs->register_process(100, "ingest-v2.1");
  fs->register_process(200, "calibrate-v0.9");
  fs->register_process(300, "report-gen-v1.4");

  auto req = [&](std::uint32_t pid) {
    auto r = mount.mkreq();
    r.pid = pid;
    return r;
  };
  auto create = [&](std::string_view name) {
    auto made =
        fs->create(req(0), mount.borrow(), bento::kRootIno, name, 0644);
    mount.check_borrows();
    return made.value().ino;
  };
  auto write_as = [&](std::uint32_t pid, bento::Ino ino,
                      std::string_view data) {
    (void)fs->write(req(pid), mount.borrow(), ino, 0, 0, bytes_of(data));
    (void)fs->fsync(req(pid), mount.borrow(), ino, 0, false);
    mount.check_borrows();
  };
  auto read_as = [&](std::uint32_t pid, bento::Ino ino) {
    std::vector<std::byte> buf(64);
    (void)fs->read(req(pid), mount.borrow(), ino, 0, 0, buf);
    mount.check_borrows();
  };

  // The pipeline: sensor.raw -> calibrated.dat -> report.txt
  const auto sensor = create("sensor.raw");
  const auto calibrated = create("calibrated.dat");
  const auto report = create("report.txt");
  write_as(100, sensor, "raw readings: 17 19 23");
  read_as(200, sensor);
  write_as(200, calibrated, "calibrated: 17.2 19.1 23.4");
  read_as(300, calibrated);
  write_as(300, report, "Q2 anomaly report");

  auto& store = fs->store();
  std::printf("report.txt lineage:\n");
  for (const auto& s : store.lineage_of(report)) {
    if (s.kind == bento::ProvSource::Kind::Image) {
      std::printf("  %-6s %s\n", kind_str(s), s.image.c_str());
    } else {
      std::printf("  %-6s ino=%llu v%llu\n", kind_str(s),
                  static_cast<unsigned long long>(s.ino),
                  static_cast<unsigned long long>(s.seq));
    }
  }

  // The calibration was wrong; the sensor data gets re-ingested.
  std::printf("\nsensor.raw is re-ingested (old version retained: the\n"
              "report still derives from it)...\n");
  write_as(100, sensor, "raw readings: 17 19 23 29");

  std::printf("data invalidated by sensor.raw:");
  for (const auto ino : store.tainted_by(sensor)) {
    std::printf(" ino=%llu", static_cast<unsigned long long>(ino));
  }
  std::printf("  (= calibrated.dat and report.txt)\n");

  std::printf("outputs of calibrate-v0.9:");
  for (const auto ino : store.tainted_by_image("calibrate-v0.9")) {
    std::printf(" ino=%llu", static_cast<unsigned long long>(ino));
  }
  std::printf("\n");

  const auto v0 = store.read_version(sensor, 0);
  std::printf("\nretained sensor.raw v0 (%zu bytes): %.*s\n",
              v0 ? v0->size() : 0, v0 ? static_cast<int>(v0->size()) : 0,
              v0 ? reinterpret_cast<const char*>(v0->data()) : "");
  std::printf("retained bytes before gc: %llu\n",
              static_cast<unsigned long long>(store.retained_bytes()));

  // Regenerate the pipeline from the new sensor data (fresh invocations
  // of the tools — a new execution starts a new read set), then collect.
  fs->register_process(200, "calibrate-v0.9");
  fs->register_process(300, "report-gen-v1.4");
  read_as(200, sensor);
  write_as(200, calibrated, "calibrated: 17.2 19.1 23.4 29.3");
  read_as(300, calibrated);
  write_as(300, report, "Q2 anomaly report, revised");
  const auto reclaimed = store.gc();
  std::printf("after regeneration, gc reclaimed %llu bytes "
              "(old lineage no longer referenced)\n",
              static_cast<unsigned long long>(reclaimed));

  std::printf("virtual time elapsed: %.3f ms\n",
              static_cast<double>(sim::now()) / sim::kMillisecond);
  return 0;
}
