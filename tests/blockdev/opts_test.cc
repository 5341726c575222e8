// The mount-option table (blockdev/opts.h) and the volumes it describes:
// every table token sets its field, the last token wins, unknown,
// malformed and out-of-range tokens reject the whole string, and
// Kernel::add_volume builds each layout at one logical size.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string_view>

#include "blockdev/mirrored.h"
#include "blockdev/opts.h"
#include "blockdev/parity.h"
#include "blockdev/striped.h"
#include "kernel/kernel.h"

namespace bsim::blk {
namespace {

/// One case per table entry: an option string whose last token exercises
/// the entry, and what the parsed options must then hold. A value equal to
/// the default is applied over its opposite, so every case proves that
/// its last token moved the field ("rw" alone sets nothing).
struct Case {
  std::string_view entry;  // the table token under test
  std::string_view opts;
  bool (*holds)(const MountOpts& o);
};

const Case kCases[] = {
    {"stripe=", "stripe=4", [](const MountOpts& o) { return o.stripe == 4; }},
    {"chunk=", "chunk=32", [](const MountOpts& o) { return o.chunk == 32; }},
    {"mirror=", "mirror=3", [](const MountOpts& o) { return o.mirror == 3; }},
    {"parity=", "parity=4", [](const MountOpts& o) { return o.parity == 4; }},
    {"trace=", "trace=500", [](const MountOpts& o) { return o.trace == 500; }},
    {"retries=", "retries=3",
     [](const MountOpts& o) { return o.retry.max_retries == 3; }},
    {"retry_backoff_us=", "retry_backoff_us=200",
     [](const MountOpts& o) { return o.retry.backoff == sim::usec(200); }},
    {"errors=remount-ro", "errors=panic,errors=remount-ro",
     [](const MountOpts& o) { return o.errors == ErrorsMode::RemountRo; }},
    {"errors=continue", "errors=continue",
     [](const MountOpts& o) { return o.errors == ErrorsMode::Continue; }},
    {"errors=panic", "errors=panic",
     [](const MountOpts& o) { return o.errors == ErrorsMode::Panic; }},
    {"rw", "rw", [](const MountOpts& o) { return o == MountOpts{}; }},
    {"noflusher", "noflusher", [](const MountOpts& o) { return !o.flusher; }},
    {"noplug", "noplug", [](const MountOpts& o) { return !o.plug; }},
    {"nopipeline", "nopipeline",
     [](const MountOpts& o) { return !o.pipeline; }},
    {"max_log_batch=", "max_log_batch=4",
     [](const MountOpts& o) { return o.max_log_batch == 4; }},
    {"nogroup", "nogroup",
     [](const MountOpts& o) { return o.max_log_batch == 1; }},
    {"io_uring", "io_uring", [](const MountOpts& o) { return o.io_uring; }},
    {"extfuse", "extfuse", [](const MountOpts& o) { return o.extfuse; }},
};

TEST(MountOptTable, EveryTokenSetsItsField) {
  // The cases cover the table exactly, so a new token needs a case.
  ASSERT_EQ(std::size(kCases), std::size(kMountOptTable));
  for (const OptSpec& spec : kMountOptTable) {
    int covered = 0;
    for (const Case& c : kCases) covered += c.entry == spec.token ? 1 : 0;
    EXPECT_EQ(covered, 1) << spec.token;
  }
  for (const Case& c : kCases) {
    const std::optional<MountOpts> o = parse_mount_opts(c.opts);
    ASSERT_TRUE(o.has_value()) << c.opts;
    EXPECT_TRUE(c.holds(*o)) << c.opts;
    const std::size_t last = c.opts.rfind(',');
    const std::optional<MountOpts> before = parse_mount_opts(
        last == std::string_view::npos ? "" : c.opts.substr(0, last));
    ASSERT_TRUE(before.has_value()) << c.opts;
    EXPECT_EQ(c.holds(*before), c.entry == "rw") << c.opts;
  }
}

TEST(MountOptTable, LastTokenWins) {
  EXPECT_EQ(parse_mount_opts("nogroup,max_log_batch=4")->max_log_batch, 4u);
  EXPECT_EQ(parse_mount_opts("max_log_batch=4,nogroup")->max_log_batch, 1u);
  EXPECT_EQ(parse_mount_opts("stripe=4 stripe=1")->stripe, 1u);
  // Unrelated tokens coexist: one string describes volume and FS alike.
  const MountOpts o = 
      *parse_mount_opts("noflusher,stripe=4,mirror=2,chunk=8");
  EXPECT_EQ(o.stripe, 4u);
  EXPECT_EQ(o.mirror, 2u);
  EXPECT_EQ(o.chunk, 8u);
  EXPECT_FALSE(o.flusher);
}

TEST(MountOptTable, RejectsUnknownMalformedAndOutOfRangeTokens) {
  for (const std::string_view bad :
       {"mirrro=2", "bogus", "noflusher,bogus", "lax_opts", "stripe",
        "Linear", "policy=xx", "errors=bogus", "chunk=16k", "chunk=",
        "stripe=-1", "retries=4294967296", "trace=99999999999999999999",
        "chunk=0",
        "stripe=0", "mirror=0", "max_log_batch=0", "linear", "policy=rr",
        "policy=sq", "log_blocks=96", "io_deadline_ms=7", "spare=1",
        "scrub"}) {
    EXPECT_FALSE(parse_mount_opts(bad).has_value()) << bad;
  }
  // The documented "off" values stay valid.
  for (const std::string_view ok :
       {"", " , ", "stripe=1", "mirror=1", "parity=0", "parity=1",
        "retries=0", "trace=0"}) {
    EXPECT_TRUE(parse_mount_opts(ok).has_value()) << ok;
  }
}

TEST(AddVolume, EachLayoutBuildsItsTopLevelTypeAtOneLogicalSize) {
  constexpr std::uint64_t kBlocks = 8192;
  enum class Top { Plain, Striped, Mirrored, Parity };
  struct Layout {
    const char* opts;
    Top top;
    Top member;  // of a stripe; Plain otherwise
  };
  const Layout layouts[] = {
      {"", Top::Plain, Top::Plain},
      {"stripe=4,chunk=16", Top::Striped, Top::Plain},     // RAID0
      {"mirror=2", Top::Mirrored, Top::Plain},             // RAID1
      {"stripe=2,mirror=2", Top::Striped, Top::Mirrored},  // RAID10
      {"parity=4,chunk=16", Top::Parity, Top::Plain},      // RAID5
      {"stripe=2,parity=2", Top::Striped, Top::Parity},    // RAID50
      {"mirror=2,parity=4", Top::Parity, Top::Plain},  // parity beats mirror
  };
  auto top_of = [](BlockDevice& d) {
    if (dynamic_cast<StripedDevice*>(&d) != nullptr) return Top::Striped;
    if (dynamic_cast<MirroredDevice*>(&d) != nullptr) return Top::Mirrored;
    if (dynamic_cast<ParityDevice*>(&d) != nullptr) return Top::Parity;
    return Top::Plain;
  };
  for (const Layout& l : layouts) {
    kern::Kernel kernel;
    DeviceParams params;
    params.nblocks = kBlocks;
    BlockDevice& dev = kernel.add_volume("ssd0", l.opts, params);
    EXPECT_EQ(&dev, kernel.device("ssd0")) << l.opts;
    EXPECT_EQ(dev.nblocks(), kBlocks) << l.opts;
    EXPECT_EQ(top_of(dev), l.top) << l.opts;
    if (auto* s = dynamic_cast<StripedDevice*>(&dev)) {
      EXPECT_EQ(top_of(s->member(0)), l.member) << l.opts;
    }
  }
  kern::Kernel kernel;
  EXPECT_THROW(kernel.add_volume("ssd0", "chunk=0", DeviceParams{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bsim::blk
