#include "core/engine.hpp"

#include <stdexcept>

#include "isa/program.hpp"

namespace resim::core {

ReSimEngine::ReSimEngine(const CoreConfig& cfg, trace::TraceSource& source)
    : cfg_(cfg),
      sched_(PipelineSchedule::make(cfg.variant, cfg.width)),
      src_(source),
      bp_(cfg.bp),
      mem_(cfg.mem),
      rob_(cfg.rob_size),
      lsq_(cfg.lsq_size),
      fu_(cfg.fu.alu_count, cfg.fu.alu_latency, cfg.fu.alu_pipelined, cfg.fu.mul_count,
          cfg.fu.mul_latency, cfg.fu.mul_pipelined, cfg.fu.div_count, cfg.fu.div_latency,
          cfg.fu.div_pipelined),
      ifq_(cfg.ifq_size),
      fstat_(stats_),
      dstat_(stats_),
      istat_(stats_),
      lstat_(stats_),
      wstat_(stats_),
      cstat_(stats_),
      ostat_(stats_) {
  cfg_.validate();
  issue_list_.reserve(cfg_.rob_size);
  inflight_.reserve(cfg_.rob_size);
  issue_cands_.reserve(cfg_.rob_size);
  wb_due_.reserve(cfg_.rob_size);
  // The first record carries no PC context: PCs are implicit from the
  // program base until the first branch record resyncs us (docs/ENGINE.md §1).
  fetch_pc_ = isa::Program::kDefaultBase;
}

OccupancyStats::OccupancyStats(StatsRegistry& reg)
    : ifq(reg.occupancy("occ.ifq")),
      rob(reg.occupancy("occ.rob")),
      lsq(reg.occupancy("occ.lsq")) {}

bool ReSimEngine::pipeline_empty() const {
  return rob_.empty() && ifq_.empty();
}

bool ReSimEngine::finished() {
  return src_.peek() == nullptr && pipeline_empty() && !mispredict_inflight_;
}

bool ReSimEngine::step_major_cycle() {
  if (finished()) return false;

  read_ports_used_ = 0;
  write_ports_used_ = 0;

  // Reverse pipeline order: every stage sees begin-of-cycle state.
  stage_commit();
  stage_writeback();
  stage_lsq_refresh();
  stage_issue();
  stage_dispatch();
  stage_fetch();

  sample_occupancy_and_advance();

  // Watchdog: a cycle budget without forward progress indicates a model
  // bug; fail loudly rather than spin.
  if (cycle_ - last_commit_cycle_ > 200'000 && !pipeline_empty()) {
    throw std::runtime_error("ReSimEngine: no commit in 200k cycles (deadlock?)");
  }
  return true;
}

void ReSimEngine::sample_occupancy_and_advance() {
  ostat_.ifq.sample(ifq_.size());
  ostat_.rob.sample(rob_.size());
  ostat_.lsq.sample(lsq_.size());
  ++cycle_;
  // One never-taken compare when no recorder is attached (sentinel ~0).
  if (committed_ >= interval_next_) record_interval_boundary();
}

void ReSimEngine::wake_dependents(int producer_slot) {
  // Only the consumers dispatch linked to this producer can name it:
  // a producer completes before it commits, so no live entry holds a
  // source renamed to an earlier occupant of the slot.
  RobEntry& p = rob_.entry(producer_slot);
  for (int node = p.dep_head; node >= 0;) {
    RobEntry& e = rob_.entry(node >> 1);
    const int k = node & 1;
    node = e.dep_next[k];
    if (e.src_rob[k] == producer_slot && e.src_pending > 0) {
      e.src_rob[k] = -1;
      --e.src_pending;
    }
  }
  p.dep_head = -1;
}

void ReSimEngine::squash_and_redirect(Addr resume_pc) {
  // Everything younger than the resolving branch is wrong-path by
  // construction (fetch only followed the tagged block).
  squashed_ += rob_.size() + ifq_.size();
  cstat_.squashed_insts.add(rob_.size() + ifq_.size());
  cstat_.squashes.add();
  rob_.clear();
  lsq_.clear();
  ifq_.clear();
  rename_.clear();
  issue_list_.clear();
  inflight_.clear();

  // Discard tagged records not fetched by the resolution point (§V.A).
  while (src_.peek() != nullptr && src_.peek()->wrong_path) {
    (void)src_.next();
    cstat_.discarded_tagged.add();
  }

  wrong_path_active_ = false;
  awaiting_resolution_ = false;
  mispredict_inflight_ = false;
  fetch_pc_ = resume_pc;
  fetch_stall_until_ = cycle_ + 1 + cfg_.misspec_penalty;
}

SimResult ReSimEngine::result() const {
  SimResult r;
  r.committed = committed_;
  r.fetched = fetched_;
  r.wrong_path_fetched = wrong_path_fetched_;
  r.squashed = squashed_;
  r.major_cycles = cycle_;
  r.minor_cycles = static_cast<std::uint64_t>(cycle_) * sched_.latency();
  r.trace_records = src_.records_consumed();
  r.trace_bits = src_.bits_consumed();
  r.stats = stats_;
  // Fold predictor and cache statistics into the report.
  r.stats.merge(bp_.stats());
  mem_.export_stats(r.stats);
  return r;
}

SimResult ReSimEngine::run() {
  while (step_major_cycle()) {
  }
  return result();
}

}  // namespace resim::core
