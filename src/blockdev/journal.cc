#include "blockdev/journal.h"

namespace bsim::blk {

std::size_t commit_threshold(std::size_t cap, std::uint64_t stripe_width) {
  if (stripe_width > 0 && stripe_width < cap) {
    cap -= cap % static_cast<std::size_t>(stripe_width);
  }
  return cap;
}

bool RunningTxn::tag(std::uint32_t blockno) {
  if (!tagged_.insert(blockno).second) {
    c_->absorbed += 1;
    return false;
  }
  blocks_.push_back(blockno);
  return true;
}

void RunningTxn::committed() {
  c_->ops_committed += ops_;
  if (ops_ > 1) c_->group_commits += 1;
  clear();
}

}  // namespace bsim::blk
