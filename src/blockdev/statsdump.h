// JSON serialization of the block layer's stats structs, one object per
// struct (keyed by "struct": "<TypeName>" so tests can assert coverage),
// recursing through aggregate volumes into their member devices. Used by
// Kernel::dump_stats for the unified snapshot.
#pragma once

#include <string>

#include "blockdev/device.h"
#include "sim/jsonw.h"

namespace bsim::blk {

/// Append the stats objects of `dev` (DeviceStats, RequestQueueStats;
/// plus AggregateVolumeStats, ParityVolumeStats for parity volumes, and
/// each member's objects for aggregate volumes) to an OPEN JSON array on
/// `w`. `name` labels the device ("disk0", "vol/2", ...); member devices
/// get "name/<i>".
void dump_device_tree_stats(sim::JsonWriter& w, const std::string& name,
                            BlockDevice& dev);

}  // namespace bsim::blk
