#include "blockdev/striped.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>


namespace bsim::blk {

DeviceParams StripedDevice::volume_params(
    const StripeParams& sp, const std::vector<DeviceParams>& children) {
  assert(!children.empty());
  DeviceParams p = children.front();
  std::uint64_t usable = children.front().nblocks;
  usable -= usable % sp.chunk_blocks;
  p.nblocks = usable * children.size();
  p.channels = 0;
  for (const DeviceParams& c : children) p.channels += c.channels;
  return p;
}

namespace {

std::vector<std::unique_ptr<BlockDevice>> make_plain_children(
    const std::vector<DeviceParams>& child_params) {
  std::vector<std::unique_ptr<BlockDevice>> out;
  out.reserve(child_params.size());
  for (const DeviceParams& p : child_params) {
    out.push_back(std::make_unique<BlockDevice>(p));
  }
  return out;
}

std::vector<DeviceParams> params_of(
    const std::vector<std::unique_ptr<BlockDevice>>& children) {
  std::vector<DeviceParams> out;
  out.reserve(children.size());
  for (const auto& c : children) out.push_back(c->params());
  return out;
}

}  // namespace

StripedDevice::StripedDevice(StripeParams sp, DeviceParams child_params)
    : StripedDevice(sp, std::vector<DeviceParams>(
                            std::max<std::size_t>(sp.ndevices, 1),
                            child_params)) {}

StripedDevice::StripedDevice(StripeParams sp,
                             std::vector<DeviceParams> child_params)
    : StripedDevice(sp, make_plain_children(child_params)) {}

StripedDevice::StripedDevice(StripeParams sp,
                             std::vector<std::unique_ptr<BlockDevice>> children)
    : AggregateDevice(volume_params(sp, params_of(children))), stripe_(sp) {
  assert(!children.empty());
  stripe_.ndevices = children.size();
  assert(stripe_.chunk_blocks > 0);
  auto usable = [&](const BlockDevice& c) {
    return c.nblocks() - c.nblocks() % stripe_.chunk_blocks;
  };
  if (usable(*children.front()) == 0) {
    throw std::invalid_argument("striped member smaller than one chunk");
  }
  for (const auto& c : children) {
    if (usable(*c) != usable(*children.front())) {
      throw std::invalid_argument("striped members must be the same size");
    }
  }
  adopt_children(std::move(children));
}

StripedDevice::~StripedDevice() = default;

std::size_t StripedDevice::child_of(std::uint64_t blockno) const {
  return static_cast<std::size_t>((blockno / stripe_.chunk_blocks) %
                                  children_.size());
}

std::uint64_t StripedDevice::child_block_of(std::uint64_t blockno) const {
  const std::uint64_t chunk = blockno / stripe_.chunk_blocks;
  return (chunk / children_.size()) * stripe_.chunk_blocks +
         blockno % stripe_.chunk_blocks;
}

void StripedDevice::submit_fragments(const std::vector<Bio*>& parents,
                                     ChildTickets& tickets,
                                     sim::Nanos& last_done) {
  const std::size_t n = children_.size();
  std::vector<std::vector<Bio>> frags(n);
  std::vector<std::vector<Bio*>> owners(n);  // aligned with frags[c]

  for (Bio* parent : parents) {
    assert(!parent->vecs.empty() && "submitting an empty bio");
    parent->done_at = 0;
    parent->applied = true;  // AND-ed with every fragment below
    parent->io_error = false;  // OR-ed: any failed fragment fails the bio
    std::size_t nfrags = 0;
    std::size_t cur_child = n;  // sentinel: no open fragment
    for (const BioVec& v : parent->vecs) {
      const std::size_t c = child_of(v.blockno);
      const std::uint64_t cb = child_block_of(v.blockno);
      if (c != cur_child) {
        frags[c].emplace_back(parent->op);
        frags[c].back().parent_trace_id = parent->trace_id;
        owners[c].push_back(parent);
        cur_child = c;
        nfrags += 1;
      }
      Bio& frag = frags[c].back();
      if (parent->op == BioOp::Read) {
        frag.add_read(cb, v.data);
      } else {
        frag.add_write(cb, v.wdata);
      }
    }
    vstats_.fragments += nfrags;
    if (nfrags > 1) vstats_.boundary_splits += 1;
  }

  // Submit each member's share as ONE async batch, in member order: the
  // member queue elevator-sorts/merges independently, media effects land
  // now, and the caller ends up holding all members' tickets at once.
  for (std::size_t c = 0; c < n; ++c) {
    if (frags[c].empty()) continue;
    const Ticket t = children_[c]->submit_async(frags[c]);
    tickets.emplace_back(c, t);
    last_done = std::max(last_done, t.done);
    for (std::size_t i = 0; i < frags[c].size(); ++i) {
      Bio* parent = owners[c][i];
      parent->done_at = std::max(parent->done_at, frags[c][i].done_at);
      if (!frags[c][i].applied) parent->applied = false;
      // A member (or, in RAID10, a whole mirror) that could not serve a
      // read fragment fails the logical bio — consumers (BufferCache)
      // check io_error, so the error must not vanish at the stripe layer.
      if (frags[c][i].io_error) parent->io_error = true;
    }
  }
}

void StripedDevice::route_policy(const std::vector<Bio*>& writes,
                                 const std::vector<Bio*>& killed, bool fire,
                                 const std::vector<Bio*>& reads,
                                 ChildTickets& tickets,
                                 sim::Nanos& last_done) {
  std::vector<Bio*> survivors = writes;
  survivors.insert(survivors.end(), reads.begin(), reads.end());
  submit_fragments(survivors, tickets, last_done);
  if (fire) {
    mark_volume_dead();
    submit_fragments(killed, tickets, last_done);
  }
}

void StripedDevice::read_untimed(std::uint64_t blockno,
                                 std::span<std::byte> out) {
  children_[child_of(blockno)]->read_untimed(child_block_of(blockno), out);
}

void StripedDevice::write_untimed(std::uint64_t blockno,
                                  std::span<const std::byte> in) {
  children_[child_of(blockno)]->write_untimed(child_block_of(blockno), in);
}

}  // namespace bsim::blk
