// ReSimEngine: the trace-driven, cycle-accurate timing engine
// (the paper's primary contribution, §III-§IV).
//
// One call to step_major_cycle() simulates one target-processor cycle.
// Stages execute in reverse pipeline order so each stage observes
// begin-of-cycle state, which reproduces the paper's documented timing
// semantics exactly:
//   * instructions woken by Writeback may issue in the same cycle
//     (§IV.A: "instructions waken up by their producer may be issued
//     during the same simulated cycle");
//   * instructions completing in cycle C become commit-eligible in C+1
//     (§IV.B: the flag that "prevents Commit from considering such
//     instructions within the same major cycle");
//   * instructions fetched in C dispatch no earlier than C+1 (the
//     Decouple Buffer between Fetch and Dispatch);
//   * the Optimized pipeline may not issue a load in slot 0 (§IV.B).
//
// Minor-cycle accounting: every major cycle costs schedule().latency()
// minor cycles (the paper's fixed-latency major cycle), which is what the
// FPGA performance model converts to wall-clock throughput.
#ifndef RESIM_CORE_ENGINE_H
#define RESIM_CORE_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/unit.hpp"
#include "cache/memsys.hpp"
#include "common/fixed_queue.hpp"
#include "common/stats.hpp"
#include "core/config.hpp"
#include "core/fu.hpp"
#include "core/lsq.hpp"
#include "core/rename.hpp"
#include "core/rob.hpp"
#include "core/schedule.hpp"
#include "trace/reader.hpp"

namespace resim::core {

class IntervalRecorder;  // core/interval.hpp

// --- per-stage statistics structs ------------------------------------------
// Each stage resolves its counters ONCE at engine construction (the
// constructors live in the stage's own translation unit, next to the code
// that bumps them). The cycle loop then increments plain uint64_t slots
// through stable StatsRegistry handles instead of paying a string-keyed
// map lookup per event (docs/STATS.md). Resolution alone publishes
// nothing: a counter appears in reports only once an event touches it.

struct FetchStats {
  explicit FetchStats(StatsRegistry& reg);
  Counter& insts;
  Counter& branches;
  Counter& wrong_path_insts;
  Counter& pc_resyncs;
  Counter& taken_breaks;
  Counter& misfetches;
  Counter& mispredicts;
  Counter& mispredict_without_block;
  Counter& skipped_tagged;
  Counter& icache_miss_stalls;
  Counter& penalty_stall_cycles;
  Counter& resolution_stall_cycles;
  Counter& ifq_full;
};

struct DispatchStats {
  explicit DispatchStats(StatsRegistry& reg);
  Counter& insts;
  Counter& loads;
  Counter& stores;
  Counter& rob_full;
  Counter& lsq_full;
};

struct IssueStats {
  explicit IssueStats(StatsRegistry& reg);
  Counter& ops;
  Counter& agen;
  Counter& fu_stalls;
  Counter& slot0_load_skips;
  Counter& loads_forwarded;
  Counter& read_port_stalls;
  Counter& load_hits;
  Counter& load_misses;
};

struct LsqRefreshStats {
  explicit LsqRefreshStats(StatsRegistry& reg);
  Counter& stores_completed;
  Counter& loads_blocked;
  Counter& loads_forwarded;
  Counter& loads_ready;
};

struct WritebackStats {
  explicit WritebackStats(StatsRegistry& reg);
  Counter& broadcasts;
};

struct CommitStats {
  explicit CommitStats(StatsRegistry& reg);
  Counter& insts;
  Counter& loads;
  Counter& stores;
  Counter& branches;
  Counter& store_hits;
  Counter& store_misses;
  Counter& write_port_stalls;
  Counter& squashes;
  Counter& squashed_insts;
  Counter& discarded_tagged;  ///< "fetch.discarded_tagged" (squash path)
};

struct OccupancyStats {
  explicit OccupancyStats(StatsRegistry& reg);
  Occupancy& ifq;
  Occupancy& rob;
  Occupancy& lsq;
};

/// Final outcome of a simulation run.
struct SimResult {
  std::uint64_t committed = 0;          ///< correct-path instructions committed
  std::uint64_t fetched = 0;            ///< instructions entering the pipeline (incl. wrong path)
  std::uint64_t wrong_path_fetched = 0; ///< tagged instructions fetched
  std::uint64_t squashed = 0;           ///< wrong-path instructions squashed in-flight
  std::uint64_t major_cycles = 0;
  std::uint64_t minor_cycles = 0;
  std::uint64_t trace_records = 0;      ///< records consumed from the source
  std::uint64_t trace_bits = 0;         ///< wire bits consumed

  StatsRegistry stats;

  [[nodiscard]] double ipc() const {
    return major_cycles == 0 ? 0.0
                             : static_cast<double>(committed) / static_cast<double>(major_cycles);
  }
  /// Records processed per major cycle (Table 3 counts wrong-path work).
  [[nodiscard]] double processed_per_cycle() const {
    return major_cycles == 0
               ? 0.0
               : static_cast<double>(trace_records) / static_cast<double>(major_cycles);
  }
  [[nodiscard]] double bits_per_record() const {
    return trace_records == 0
               ? 0.0
               : static_cast<double>(trace_bits) / static_cast<double>(trace_records);
  }
};

class ReSimEngine {
 public:
  ReSimEngine(const CoreConfig& cfg, trace::TraceSource& source);

  // The stage stat structs hold references into stats_; a copied or
  // moved engine would keep counting into the source object's registry.
  ReSimEngine(const ReSimEngine&) = delete;
  ReSimEngine& operator=(const ReSimEngine&) = delete;

  /// Run until the trace is exhausted and the pipeline drains.
  SimResult run();

  /// Simulate one major cycle. Returns false iff the simulation had
  /// already finished (nothing was stepped).
  bool step_major_cycle();

  [[nodiscard]] bool finished();

  // --- observers (tests, benches) ----------------------------------------
  [[nodiscard]] Cycle cycle() const { return cycle_; }
  [[nodiscard]] std::uint64_t committed() const { return committed_; }
  [[nodiscard]] const CoreConfig& config() const { return cfg_; }
  [[nodiscard]] const PipelineSchedule& schedule() const { return sched_; }
  [[nodiscard]] const Rob& rob() const { return rob_; }
  [[nodiscard]] const Lsq& lsq() const { return lsq_; }
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }
  [[nodiscard]] const bpred::BranchPredictorUnit& predictor() const { return bp_; }
  [[nodiscard]] const cache::MemorySystem& memory() const { return mem_; }

  [[nodiscard]] SimResult result() const;

  // --- sampling / interval-stats plane (core/sampling.cpp) ----------------

  /// Full-view snapshot of the engine's statistics: core stats merged
  /// with predictor and cache stats, exactly the registry result()
  /// reports. Cold path (region/interval boundaries only).
  [[nodiscard]] StatsSnapshot stats_snapshot() const;

  /// Attach (or detach with nullptr) an interval recorder. While
  /// attached, every rec->interval_insts() committed instructions the
  /// engine closes an interval with a stats snapshot. The steady-state
  /// cost in the cycle loop is one integer compare; with no recorder the
  /// threshold is an unreachable sentinel.
  void attach_interval_recorder(IntervalRecorder* rec);

  /// Close the trailing partial interval (no-op if empty or detached).
  /// Call after the run drains; run()/result() do not do this implicitly
  /// because result() is const and repeatable.
  void flush_intervals();

  /// Functional warmup (docs/SAMPLING.md): consume up to `max_records`
  /// records from the source, updating the branch predictor and caches
  /// architecturally — no pipeline occupancy, no cycle accounting, no
  /// timing stats. Wrong-path (tagged) records are discarded untouched,
  /// exactly like the detailed squash path discards them. Requires an
  /// empty pipeline (throws std::logic_error otherwise). Returns the
  /// number of records consumed; leaves fetch_pc_ at the next record's
  /// implicit PC so a detailed window can start seamlessly.
  std::uint64_t functional_warmup(std::uint64_t max_records);

 private:
  // Stage implementations (one translation unit each).
  void stage_commit();
  void stage_writeback();
  void stage_lsq_refresh();
  void stage_issue();
  void stage_dispatch();
  void stage_fetch();

  // Mis-speculation recovery at branch resolution (Commit).
  void squash_and_redirect(Addr resume_pc);

  void wake_dependents(int producer_slot);
  void sample_occupancy_and_advance();
  [[nodiscard]] bool pipeline_empty() const;

  CoreConfig cfg_;
  PipelineSchedule sched_;
  trace::TraceSource& src_;
  bpred::BranchPredictorUnit bp_;
  cache::MemorySystem mem_;
  Rob rob_;
  Lsq lsq_;
  RenameTable rename_;
  FuPool fu_;
  FixedQueue<FetchedInst> ifq_;
  StatsRegistry stats_;

  // Resolve-once stat handles (must follow stats_: they bind into it).
  FetchStats fstat_;
  DispatchStats dstat_;
  IssueStats istat_;
  LsqRefreshStats lstat_;
  WritebackStats wstat_;
  CommitStats cstat_;
  OccupancyStats ostat_;

  // Event-driven scheduling lists (docs/ENGINE.md §4), so each stage
  // touches only the entries with work instead of scanning the ROB. All
  // hold ROB slots, reserve the ROB's capacity once, and are emptied by
  // a squash.
  //  * issue_list_: age-ordered entries that still have issue work
  //    (dispatch appends; issue drops finished entries in order);
  //  * inflight_: issued entries not yet written back, in issue order.
  std::vector<int> issue_list_;
  std::vector<int> inflight_;

  // Per-cycle scratch, hoisted out of the cycle loop so the hot path
  // never allocates.
  enum class IssueCandKind : std::uint8_t { kFuOp, kAgen, kLoadMem };
  struct IssueCand {
    int rob_slot;
    IssueCandKind kind;
  };
  std::vector<IssueCand> issue_cands_;
  std::vector<int> wb_due_;  ///< in-flight slots whose result is due

  Cycle cycle_ = 0;
  InstSeq next_seq_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t fetched_ = 0;
  std::uint64_t wrong_path_fetched_ = 0;
  std::uint64_t squashed_ = 0;
  Cycle last_commit_cycle_ = 0;

  // Fetch state.
  Addr fetch_pc_ = 0;
  Cycle fetch_stall_until_ = 0;
  bool wrong_path_active_ = false;   ///< consuming a tagged block
  Addr wrong_path_pc_ = 0;           ///< next wrong-path PC to assign
  bool awaiting_resolution_ = false; ///< mispredict outstanding, nothing to fetch
  bool mispredict_inflight_ = false; ///< an unresolved mispredicted branch exists
  Addr resume_pc_ = 0;               ///< correct-path PC after the branch resolves

  // Per-cycle port usage.
  unsigned read_ports_used_ = 0;
  unsigned write_ports_used_ = 0;

  // Interval-stats plane (core/sampling.cpp). interval_next_ is the
  // committed-inst threshold for the next boundary; ~0 (the sentinel
  // when no recorder is attached) keeps the cycle loop's check to one
  // never-taken compare.
  void record_interval_boundary();
  IntervalRecorder* intervals_ = nullptr;
  std::uint64_t interval_next_ = ~std::uint64_t{0};
};

}  // namespace resim::core

#endif  // RESIM_CORE_ENGINE_H
