// ReSim's internal minor-cycle pipeline (paper §IV, Figures 2-4).
//
// A *major cycle* is one simulated processor cycle; ReSim executes it as
// a sequence of *minor cycles*, processing one instruction slot per
// stage per minor cycle (the serial execution model). The three
// published organizations:
//
//   Simple    (Fig. 2): WB(xN) -> Lsq_refresh -> Issue(xN, cache access
//              pipelined one behind) -> bookkeeping.  Latency 2N+3.
//   Efficient (Fig. 3): Issue before Writeback inside the major cycle
//              (writeback broadcast pipelined one simulated cycle early;
//              a flag keeps Commit from seeing same-cycle completions);
//              cache access before WB.                Latency N+4.
//   Optimized (Fig. 4): Lsq_refresh executes in parallel with the first
//              Issue slot, which therefore may not issue a load; valid
//              for <= N-1 memory ports.               Latency N+3.
//
// The exact lane layout of the figures is reconstructed from the prose
// constraints (see docs/ENGINE.md §2); `validate()` checks every documented
// constraint and the latency formulas are exact.
#ifndef RESIM_CORE_SCHEDULE_H
#define RESIM_CORE_SCHEDULE_H

#include <cstdint>
#include <string>
#include <vector>

namespace resim::core {

enum class PipelineVariant : std::uint8_t { kSimple, kEfficient, kOptimized };

[[nodiscard]] const char* variant_name(PipelineVariant v);

/// Stage units of the ReSim datapath (Figure 1 / Table 4 columns).
enum class StageUnit : std::uint8_t {
  kFetch,        // F_k: one trace instruction per minor cycle
  kICacheAccess, // CA on the fetch lane
  kDecouple,     // DPL: fetch->dispatch decouple buffer transfer
  kDispatch,     // D_k
  kIssue,        // IS_k
  kDCacheAccess, // CA_k: load cache access for issue slot k
  kWriteback,    // WB_k
  kLsqRefresh,   // once per major cycle
  kCommit,       // C_k
  kStoreCacheAccess,  // store D-cache access at commit
  kBookkeep,     // end-of-major-cycle bookkeeping
};

[[nodiscard]] const char* stage_unit_name(StageUnit u);

struct MicroOp {
  StageUnit unit;
  int slot;  ///< instruction slot within the stage (-1 for once-per-cycle units)
};

class PipelineSchedule {
 public:
  [[nodiscard]] static PipelineSchedule make(PipelineVariant v, unsigned width);

  /// Major-cycle latency in minor cycles: 2N+3 / N+4 / N+3.
  [[nodiscard]] static unsigned latency_of(PipelineVariant v, unsigned width);

  [[nodiscard]] PipelineVariant variant() const { return variant_; }
  [[nodiscard]] unsigned width() const { return width_; }
  [[nodiscard]] unsigned latency() const { return static_cast<unsigned>(minors_.size()); }

  /// Micro-ops executing in minor cycle m (parallel units).
  [[nodiscard]] const std::vector<MicroOp>& minor(unsigned m) const { return minors_.at(m); }
  [[nodiscard]] const std::vector<std::vector<MicroOp>>& minors() const { return minors_; }

  /// May issue slot 0 hold a load? (false only for the Optimized variant.)
  [[nodiscard]] bool load_allowed_in_slot0() const {
    return variant_ != PipelineVariant::kOptimized;
  }

  /// Check every documented ordering constraint; throws std::logic_error
  /// with a description on violation.
  void validate() const;

  /// ASCII rendering in the style of Figures 2-4 (one lane per unit).
  [[nodiscard]] std::string render() const;

 private:
  PipelineSchedule(PipelineVariant v, unsigned width) : variant_(v), width_(width) {}

  /// Minor cycle in which (unit, slot) executes; -1 if absent.
  [[nodiscard]] int find(StageUnit u, int slot) const;

  PipelineVariant variant_;
  unsigned width_;
  std::vector<std::vector<MicroOp>> minors_;
};

}  // namespace resim::core

#endif  // RESIM_CORE_SCHEDULE_H
