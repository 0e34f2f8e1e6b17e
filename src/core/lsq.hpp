// Load/Store Queue.
//
// Paper §III: "Loads can be issued only after their effective address has
// been calculated, and there are no unresolved memory dependencies. These
// checks are performed by Lsq_refresh." The LSQ holds memory operations
// in program order; Lsq_refresh (core/lsq_refresh.cpp) resolves
// dependencies and store-to-load forwarding over this structure.
#ifndef RESIM_CORE_LSQ_H
#define RESIM_CORE_LSQ_H

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"

namespace resim::core {

inline constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

struct LsqEntry {
  bool is_store = false;
  int rob_slot = -1;
  InstSeq seq = 0;
  Addr addr = 0;            ///< effective address (known from the trace record)
  Cycle addr_ready_at = kNever;  ///< when address generation completes
  bool mem_ready = false;   ///< load: cleared by Lsq_refresh to issue to memory
  bool forwarded = false;   ///< load: value satisfied by an older store
  bool mem_issued = false;  ///< load: memory access (or forward) scheduled
  bool store_done = false;  ///< store: address+data complete, awaiting commit

  [[nodiscard]] bool addr_ready(Cycle now) const { return addr_ready_at <= now; }
};

class Lsq {
 public:
  explicit Lsq(unsigned capacity);

  [[nodiscard]] unsigned capacity() const { return capacity_; }
  [[nodiscard]] unsigned size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool full() const { return count_ == capacity_; }

  /// Allocate the next entry in program order, written once from `e`;
  /// returns its physical slot.
  int allocate(const LsqEntry& e = {});

  [[nodiscard]] int slot_at(unsigned age_index) const {
    if (age_index >= count_) throw std::out_of_range("Lsq::slot_at");
    return static_cast<int>(wrap(head_ + age_index));
  }
  [[nodiscard]] LsqEntry& entry(int slot) { return entries_.at(static_cast<std::size_t>(slot)); }
  [[nodiscard]] const LsqEntry& entry(int slot) const {
    return entries_.at(static_cast<std::size_t>(slot));
  }

  /// Release the oldest entry; the caller asserts it belongs to the
  /// committing instruction.
  void pop_head();
  [[nodiscard]] int head_slot() const { return slot_at(0); }

  void clear();

 private:
  /// Ring index of i < 2 * capacity(): a conditional subtract, not a `%`.
  [[nodiscard]] unsigned wrap(unsigned i) const { return i >= capacity() ? i - capacity() : i; }

  std::vector<LsqEntry> entries_;
  unsigned capacity_;
  unsigned head_ = 0;
  unsigned count_ = 0;
};

}  // namespace resim::core

#endif  // RESIM_CORE_LSQ_H
