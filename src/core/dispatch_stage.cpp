// Dispatch stage (paper §III): "Dispatch allocates Load/Store Queue (LSQ)
// and Reorder Buffer (RB) entries, and accesses the Rename Table."
//
// Instructions become dispatchable one cycle after fetch (the Decouple
// Buffer boundary); dispatch stalls on a full ROB or LSQ.
#include "core/engine.hpp"

namespace resim::core {

DispatchStats::DispatchStats(StatsRegistry& reg)
    : insts(reg.counter("dispatch.insts")),
      loads(reg.counter("dispatch.loads")),
      stores(reg.counter("dispatch.stores")),
      rob_full(reg.counter("dispatch.rob_full")),
      lsq_full(reg.counter("dispatch.lsq_full")) {}


void ReSimEngine::stage_dispatch() {
  for (unsigned slot = 0; slot < cfg_.width; ++slot) {
    if (ifq_.empty()) break;
    const FetchedInst& fi = ifq_.front();
    if (fi.fetched_at >= cycle_) break;  // decouple: fetched this very cycle

    if (rob_.full()) {
      dstat_.rob_full.add();
      break;
    }
    if (fi.rec.is_mem() && lsq_.full()) {
      dstat_.lsq_full.add();
      break;
    }

    const int rob_slot = rob_.allocate(ifq_.pop(), cycle_);
    RobEntry& e = rob_.entry(rob_slot);
    trace::TraceRecord& rec = e.fi.rec;
    // Decode normalization: stores write no register. A malformed record
    // carrying a destination would otherwise rename a register to an
    // instruction that never broadcasts a result (stores complete through
    // Lsq_refresh, not Writeback) and strand its consumers.
    if (rec.is_mem() && rec.is_store) rec.out = kNoReg;

    // Rename-table read: source operands either have an in-flight
    // producer (pending until its writeback, which walks the producer's
    // dependent list) or are architecturally ready.
    const Reg srcs[2] = {rec.in1, rec.in2};
    for (int k = 0; k < 2; ++k) {
      const int producer = rename_.lookup(srcs[k]);
      if (producer < 0) continue;
      RobEntry& p = rob_.entry(producer);
      if (p.completed) continue;
      e.src_rob[k] = producer;
      ++e.src_pending;
      e.dep_next[k] = p.dep_head;
      p.dep_head = rob_slot * 2 + k;
    }

    // Rename-table write: this entry becomes the newest producer.
    rename_.set(rec.out, rob_slot);

    if (rec.is_mem()) {
      LsqEntry m;
      m.is_store = rec.is_store;
      m.rob_slot = rob_slot;
      m.seq = e.fi.seq;
      m.addr = rec.addr;
      e.lsq_slot = lsq_.allocate(m);
      (rec.is_store ? dstat_.stores : dstat_.loads).add();
    }

    // Every new entry has issue work: an FU op, or address generation.
    issue_list_.push_back(rob_slot);
    dstat_.insts.add();
  }
}

}  // namespace resim::core
