// Fetch stage (paper §III):
//
//   "Fetch is the simulator's front end, fetching instructions from the
//    trace until a control flow bubble is encountered or Instruction
//    Fetch Queue (IFQ) is full. It performs target resolution of control
//    flow instructions and checks for misfetches ... On misfetch PC is
//    set to the next sequential address, a misfetch delayed penalty is
//    imposed. During Fetch Instruction Cache is also accessed."
//
// Mis-speculation (§V.A): on a direction mispredict, fetch follows the
// tagged wrong-path block; when the block is exhausted (or absent —
// predictor disagreement with the trace generator) fetch stalls until the
// branch resolves at Commit.
#include "core/engine.hpp"

namespace resim::core {

FetchStats::FetchStats(StatsRegistry& reg)
    : insts(reg.counter("fetch.insts")),
      branches(reg.counter("fetch.branches")),
      wrong_path_insts(reg.counter("fetch.wrong_path_insts")),
      pc_resyncs(reg.counter("fetch.pc_resyncs")),
      taken_breaks(reg.counter("fetch.taken_breaks")),
      misfetches(reg.counter("fetch.misfetches")),
      mispredicts(reg.counter("fetch.mispredicts")),
      mispredict_without_block(reg.counter("fetch.mispredict_without_block")),
      skipped_tagged(reg.counter("fetch.skipped_tagged")),
      icache_miss_stalls(reg.counter("fetch.icache_miss_stalls")),
      penalty_stall_cycles(reg.counter("fetch.penalty_stall_cycles")),
      resolution_stall_cycles(reg.counter("fetch.resolution_stall_cycles")),
      ifq_full(reg.counter("fetch.ifq_full")) {}

// --- columnar fast-path helpers --------------------------------------------

void ReSimEngine::flush_view() {
  if (view_.batch != nullptr) {
    if (view_pos_ != 0) src_.consume_view(view_pos_);
    view_ = {};
    view_pos_ = 0;
    view_mat_ = ~std::size_t{0};
  }
}

const trace::TraceRecord* ReSimEngine::fetch_peek() {
  if (view_pos_ == view_.count) {
    flush_view();
    view_ = src_.fetch_view();
    if (view_.count == 0) return src_.peek();
  }
  if (view_mat_ != view_pos_) {
    view_.batch->get(view_.first + view_pos_, view_rec_);
    view_mat_ = view_pos_;
  }
  return &view_rec_;
}

trace::TraceRecord ReSimEngine::fetch_next() {
  if (view_pos_ == view_.count) {
    flush_view();
    view_ = src_.fetch_view();
    if (view_.count == 0) return src_.next();
  }
  if (view_mat_ != view_pos_) {
    view_.batch->get(view_.first + view_pos_, view_rec_);
    view_mat_ = view_pos_;
  }
  ++view_pos_;
  return view_rec_;
}

void ReSimEngine::stage_fetch() {
  fetch_cycle();
  // Settle the view before any other stage (or finished()/result())
  // observes the source: counters and the cursor are exact here.
  flush_view();
}

void ReSimEngine::fetch_cycle() {
  if (cycle_ < fetch_stall_until_) {
    fstat_.penalty_stall_cycles.add();
    return;
  }
  if (awaiting_resolution_) {
    fstat_.resolution_stall_cycles.add();
    return;
  }

  for (unsigned slot = 0; slot < cfg_.width; ++slot) {
    if (ifq_.full()) {
      fstat_.ifq_full.add();
      break;
    }

    // Skip stale tagged blocks: the trace generator mispredicted where our
    // commit-time-trained predictor did not (docs/ENGINE.md §1).
    while (!wrong_path_active_ && fetch_peek() != nullptr && fetch_peek()->wrong_path) {
      (void)fetch_next();
      fstat_.skipped_tagged.add();
    }

    const trace::TraceRecord* rec = fetch_peek();
    if (rec == nullptr) {
      if (wrong_path_active_) {
        // Trace ended inside a tagged block: wait for branch resolution.
        wrong_path_active_ = false;
        awaiting_resolution_ = true;
      }
      break;
    }

    if (wrong_path_active_ && !rec->wrong_path) {
      // Tagged block exhausted before resolution: fetch has nothing more
      // to do until Commit redirects it.
      wrong_path_active_ = false;
      awaiting_resolution_ = true;
      break;
    }

    // --- wrong-path fetch --------------------------------------------------
    if (wrong_path_active_) {
      const auto ic = mem_.ifetch(wrong_path_pc_);
      if (!ic.hit) {
        fstat_.icache_miss_stalls.add();
        fetch_stall_until_ = cycle_ + ic.latency;
        break;
      }
      FetchedInst fi;
      fi.rec = fetch_next();
      fi.pc = wrong_path_pc_;
      fi.seq = next_seq_++;
      fi.fetched_at = cycle_;
      wrong_path_pc_ += kInstBytes;
      ifq_.push(fi);
      ++fetched_;
      ++wrong_path_fetched_;
      fstat_.insts.add();
      fstat_.wrong_path_insts.add();
      continue;
    }

    // --- correct-path fetch --------------------------------------------------
    // Branch records carry their PC; resync the implicit PC tracker if the
    // stream and our bookkeeping ever disagree.
    Addr pc = fetch_pc_;
    if (rec->is_branch() && rec->pc != pc) {
      fstat_.pc_resyncs.add();
      pc = rec->pc;
    }

    const auto ic = mem_.ifetch(pc);
    if (!ic.hit) {
      // Blocking I-cache: the line fills, fetch retries after the miss
      // latency (the access above installed the tags).
      fstat_.icache_miss_stalls.add();
      fetch_stall_until_ = cycle_ + ic.latency;
      break;
    }

    FetchedInst fi;
    fi.rec = fetch_next();
    fi.pc = pc;
    fi.seq = next_seq_++;
    fi.fetched_at = cycle_;

    if (!fi.rec.is_branch()) {
      ifq_.push(fi);
      ++fetched_;
      fstat_.insts.add();
      fetch_pc_ = pc + kInstBytes;
      continue;
    }

    // Control flow: predict, classify, steer.
    const Addr fallthrough = pc + kInstBytes;
    const Addr actual_next = fi.rec.taken ? fi.rec.target : fallthrough;
    fi.pred = bp_.predict(pc, fi.rec.ctrl, fallthrough, fi.rec.taken, actual_next);
    fi.outcome = bpred::BranchPredictorUnit::classify(fi.pred, fi.rec.taken, actual_next);

    ifq_.push(fi);
    ++fetched_;
    fstat_.insts.add();
    fstat_.branches.add();

    switch (fi.outcome) {
      case bpred::Outcome::kCorrect:
        fetch_pc_ = actual_next;
        if (fi.pred.dir_taken) {
          // Control-flow bubble: a predicted-taken branch ends the group.
          fstat_.taken_breaks.add();
          slot = cfg_.width;  // break out after accounting
        }
        break;

      case bpred::Outcome::kMisfetch:
        // Direction right, target wrong: fetch went sequential; the front
        // end recovers after the misfetch delayed penalty and resumes on
        // the correct path.
        fstat_.misfetches.add();
        fetch_pc_ = actual_next;
        fetch_stall_until_ = cycle_ + 1 + cfg_.misfetch_penalty;
        slot = cfg_.width;
        break;

      case bpred::Outcome::kMispredict: {
        fstat_.mispredicts.add();
        mispredict_inflight_ = true;
        resume_pc_ = actual_next;
        const trace::TraceRecord* nxt = fetch_peek();
        if (nxt != nullptr && nxt->wrong_path) {
          // Follow the tagged wrong-path block down our predicted path.
          wrong_path_active_ = true;
          wrong_path_pc_ = fi.pred.next_pc;
        } else {
          // No block available (generator predicted correctly here):
          // nothing to fetch until resolution.
          awaiting_resolution_ = true;
          fstat_.mispredict_without_block.add();
        }
        slot = cfg_.width;
        break;
      }
    }
  }
}

}  // namespace resim::core
