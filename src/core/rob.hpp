// Reorder Buffer: circular in-order window of in-flight instructions.
// Dispatch allocates at the tail, Commit releases from the head
// (paper §III: "Dispatch allocates Load/Store Queue (LSQ) and Reorder
// Buffer (RB) entries").
#ifndef RESIM_CORE_ROB_H
#define RESIM_CORE_ROB_H

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bpred/unit.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"

namespace resim::core {

/// An instruction as it left Fetch: the pre-decoded record plus the
/// fetch-time prediction state.
struct FetchedInst {
  trace::TraceRecord rec{};
  Addr pc = 0;
  InstSeq seq = 0;
  Cycle fetched_at = 0;
  bpred::Prediction pred{};
  bpred::Outcome outcome = bpred::Outcome::kCorrect;

  [[nodiscard]] bool wrong_path() const { return rec.wrong_path; }
};

struct RobEntry {
  FetchedInst fi{};
  Cycle dispatched_at = 0;

  // Dataflow: up to two register sources, tracked as producing ROB slots.
  int src_rob[2] = {-1, -1};
  unsigned src_pending = 0;

  // Execution state.
  bool issued = false;      ///< FU op (or load memory access) scheduled
  bool agen_issued = false; ///< memory ops: address generation scheduled
  Cycle complete_at = 0;    ///< valid when issued
  bool completed = false;   ///< result written back / store done

  int lsq_slot = -1;        ///< -1 for non-memory instructions

  // Dependent list (docs/ENGINE.md §4): the consumers renamed to this
  // entry's result, as nodes `slot * 2 + operand` threaded through each
  // consumer's dep_next[operand]. Dispatch links, Writeback walks once.
  int dep_head = -1;
  int dep_next[2] = {-1, -1};

  [[nodiscard]] bool is_mem() const { return fi.rec.is_mem(); }
  [[nodiscard]] bool is_load() const { return fi.rec.is_load(); }
  [[nodiscard]] bool is_store() const { return fi.rec.is_mem() && fi.rec.is_store; }
  [[nodiscard]] bool is_branch() const { return fi.rec.is_branch(); }
};

class Rob {
 public:
  explicit Rob(unsigned capacity);

  [[nodiscard]] unsigned capacity() const { return capacity_; }
  [[nodiscard]] unsigned size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool full() const { return count_ == capacity_; }

  /// Allocate the next entry in program order, written once from `fi`
  /// (every other field at its default); returns its physical slot.
  /// Precondition: !full().
  int allocate(FetchedInst fi = {}, Cycle dispatched_at = 0);

  /// Physical slot of the i-th oldest entry (0 == head).
  [[nodiscard]] int slot_at(unsigned age_index) const {
    if (age_index >= count_) throw std::out_of_range("Rob::slot_at");
    return static_cast<int>(wrap(head_ + age_index));
  }

  /// Age index of a live entry's physical slot (0 == head): the inverse
  /// of slot_at.
  [[nodiscard]] unsigned age_of(int slot) const {
    const auto s = static_cast<unsigned>(slot);
    return s >= head_ ? s - head_ : s + capacity() - head_;
  }

  [[nodiscard]] RobEntry& entry(int slot) { return entries_.at(static_cast<std::size_t>(slot)); }
  [[nodiscard]] const RobEntry& entry(int slot) const {
    return entries_.at(static_cast<std::size_t>(slot));
  }

  [[nodiscard]] RobEntry& head() { return entry(slot_at(0)); }
  [[nodiscard]] int head_slot() const { return slot_at(0); }

  /// Release the head entry (commit). Precondition: !empty().
  void pop_head();

  /// Squash: drop every entry (mis-speculation recovery).
  void clear();

 private:
  /// Ring index of i < 2 * capacity(): a conditional subtract, not a `%`.
  [[nodiscard]] unsigned wrap(unsigned i) const { return i >= capacity() ? i - capacity() : i; }

  std::vector<RobEntry> entries_;
  unsigned capacity_;
  unsigned head_ = 0;
  unsigned count_ = 0;
};

}  // namespace resim::core

#endif  // RESIM_CORE_ROB_H
