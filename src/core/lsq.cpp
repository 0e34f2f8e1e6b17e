#include "core/lsq.hpp"

#include <stdexcept>

#include "common/numeric.hpp"

namespace resim::core {

Lsq::Lsq(unsigned capacity) : entries_(capacity), capacity_(capacity) {
  require(capacity >= 1, "Lsq: capacity >= 1");
}

int Lsq::allocate(const LsqEntry& e) {
  if (full()) throw std::logic_error("Lsq::allocate on full LSQ");
  const unsigned slot = wrap(head_ + count_);
  ++count_;
  entries_[slot] = e;
  return static_cast<int>(slot);
}

void Lsq::pop_head() {
  if (empty()) throw std::logic_error("Lsq::pop_head on empty LSQ");
  head_ = wrap(head_ + 1);
  --count_;
}

void Lsq::clear() {
  head_ = 0;
  count_ = 0;
}

}  // namespace resim::core
