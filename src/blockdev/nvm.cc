#include "blockdev/nvm.h"

#include <cassert>
#include <cstring>

#include "sim/thread.h"

namespace bsim::blk {

namespace {
constexpr std::size_t kLine = 64;

std::size_t lines(std::size_t n) { return (n + kLine - 1) / kLine; }

void charge_if_timed(sim::Nanos cost) {
  if (sim::current_or_null() != nullptr) sim::charge(cost);
}
}  // namespace

NvmRegion::NvmRegion(NvmParams params)
    : params_(params),
      working_(params.bytes, std::byte{0}),
      stable_(params.bytes, std::byte{0}) {}

void NvmRegion::write(std::size_t off, std::span<const std::byte> data) {
  assert(off + data.size() <= working_.size() && "NVM write out of range");
  charge_if_timed(static_cast<sim::Nanos>(lines(data.size())) *
                  params_.write_per_line);
  if (!data.empty()) {
    std::memcpy(working_.data() + off, data.data(), data.size());
    dirty_.emplace_back(off, data.size());
  }
  stats_.bytes_written += data.size();
}

void NvmRegion::read(std::size_t off, std::span<std::byte> out) const {
  assert(off + out.size() <= working_.size() && "NVM read out of range");
  charge_if_timed(static_cast<sim::Nanos>(lines(out.size())) *
                  params_.read_per_line);
  // An empty span (a truncate record's payload) may have a null data().
  if (!out.empty()) std::memcpy(out.data(), working_.data() + off, out.size());
}

void NvmRegion::persist_barrier() {
  // The drain stalls the issuing core; it is not timeshared away under
  // CPU contention, so model it as a wait.
  if (sim::current_or_null() != nullptr) sim::current().wait(params_.barrier);
  for (const auto& [off, len] : dirty_) {
    std::memcpy(stable_.data() + off, working_.data() + off, len);
  }
  dirty_.clear();
  stats_.barriers += 1;
}

void NvmRegion::crash() {
  for (const auto& [off, len] : dirty_) {
    std::memcpy(working_.data() + off, stable_.data() + off, len);
  }
  dirty_.clear();
}

}  // namespace bsim::blk
