#include "core/rob.hpp"

#include <stdexcept>
#include <utility>

#include "common/numeric.hpp"

namespace resim::core {

Rob::Rob(unsigned capacity) : entries_(capacity), capacity_(capacity) {
  require(capacity >= 1, "Rob: capacity >= 1");
}

int Rob::allocate(FetchedInst fi, Cycle dispatched_at) {
  if (full()) throw std::logic_error("Rob::allocate on full ROB");
  const unsigned slot = wrap(head_ + count_);
  ++count_;
  entries_[slot] = RobEntry{.fi = std::move(fi), .dispatched_at = dispatched_at};
  return static_cast<int>(slot);
}

void Rob::pop_head() {
  if (empty()) throw std::logic_error("Rob::pop_head on empty ROB");
  head_ = wrap(head_ + 1);
  --count_;
}

void Rob::clear() {
  head_ = 0;
  count_ = 0;
}

}  // namespace resim::core
