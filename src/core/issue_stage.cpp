// Issue stage (paper §III):
//
//   "The Issue stage examines the ready instructions and schedules them
//    if there are available functional units. Load operations marked as
//    ready by Lsq_refresh are issued and a read port is allocated if
//    their value has not been forwarded in the LSQ. Issue also schedules
//    a Writeback event."
//
// Scheduling is oldest-first over the issue list (the ROB entries that
// still have issue work, in age order) with a total width of N slots
// per cycle. Memory operations take two issue steps: address generation
// on an ALU, then (loads) the cache access once Lsq_refresh marks them
// ready. In the Optimized pipeline, slot 0 may not hold a load memory
// access (§IV.B) — non-load candidates are preferred for slot 0 and, if
// none exists, slot 0 stays empty.
#include "core/engine.hpp"

#include <vector>

namespace resim::core {

IssueStats::IssueStats(StatsRegistry& reg)
    : ops(reg.counter("issue.ops")),
      agen(reg.counter("issue.agen")),
      fu_stalls(reg.counter("issue.fu_stalls")),
      slot0_load_skips(reg.counter("issue.slot0_load_skips")),
      loads_forwarded(reg.counter("issue.loads_forwarded")),
      read_port_stalls(reg.counter("issue.read_port_stalls")),
      load_hits(reg.counter("issue.load_hits")),
      load_misses(reg.counter("issue.load_misses")) {}

namespace {

/// An entry still has issue work while an FU op is unissued, a memory
/// op's address generation is unissued, or a load's access is unissued.
bool has_issue_work(const RobEntry& e) {
  if (!e.is_mem()) return !e.issued;
  return !e.agen_issued || (e.is_load() && !e.issued);
}

}  // namespace

void ReSimEngine::stage_issue() {
  // Collect issue candidates oldest-first against begin-of-stage state,
  // walking only the age-ordered issue list, and drop the entries whose
  // issue work finished (in an earlier cycle) in the same pass. An entry
  // that finishes issuing in cycle C cannot commit before C+2, so it
  // leaves the list before its slot can be reallocated.
  // issue_cands_ is a member scratch buffer (capacity reserved once in
  // the constructor): clearing keeps the allocation across cycles.
  std::vector<IssueCand>& cands = issue_cands_;
  cands.clear();
  std::size_t kept = 0;
  for (const int slot : issue_list_) {
    const RobEntry& e = rob_.entry(slot);
    if (!has_issue_work(e)) continue;
    issue_list_[kept++] = slot;
    if (e.completed || e.dispatched_at >= cycle_) continue;

    if (e.is_mem()) {
      // Address generation needs only the base register (in1); a store's
      // data register (in2) is tracked separately (STA/STD split), so an
      // in-flight store with late data does not hide its address from
      // Lsq_refresh's dependence checks.
      if (!e.agen_issued && e.src_rob[0] < 0) {
        cands.push_back({slot, IssueCandKind::kAgen});
      } else if (e.is_load() && !e.issued) {
        const LsqEntry& m = lsq_.entry(e.lsq_slot);
        if (m.mem_ready && !m.mem_issued) cands.push_back({slot, IssueCandKind::kLoadMem});
      }
    } else if (!e.issued && e.src_pending == 0) {
      cands.push_back({slot, IssueCandKind::kFuOp});
    }
  }
  issue_list_.resize(kept);

  // Optimized pipeline: if the oldest candidate is a load memory access,
  // pull the first non-load candidate into slot 0 (ages otherwise kept).
  if (!sched_.load_allowed_in_slot0() && !cands.empty() &&
      cands.front().kind == IssueCandKind::kLoadMem) {
    for (std::size_t i = 1; i < cands.size(); ++i) {
      if (cands[i].kind != IssueCandKind::kLoadMem) {
        const IssueCand c = cands[i];
        cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(i));
        cands.insert(cands.begin(), c);
        break;
      }
    }
  }

  unsigned used_slots = 0;
  for (const IssueCand& c : cands) {
    if (used_slots >= cfg_.width) break;
    RobEntry& e = rob_.entry(c.rob_slot);

    switch (c.kind) {
      case IssueCandKind::kFuOp: {
        // Branches and O-format ops bind their functional-unit class.
        const trace::OtherFu fu =
            e.is_branch() ? trace::OtherFu::kAlu : e.fi.rec.fu;
        const auto lat = fu_.try_issue(fu, cycle_);
        if (!lat) {
          istat_.fu_stalls.add();
          continue;
        }
        e.issued = true;
        e.complete_at = cycle_ + *lat;
        inflight_.push_back(c.rob_slot);
        ++used_slots;
        istat_.ops.add();
        break;
      }

      case IssueCandKind::kAgen: {
        // Effective-address computation occupies an ALU for one op.
        const auto lat = fu_.try_issue_alu(cycle_);
        if (!lat) {
          istat_.fu_stalls.add();
          continue;
        }
        e.agen_issued = true;
        lsq_.entry(e.lsq_slot).addr_ready_at = cycle_ + *lat;
        ++used_slots;
        istat_.agen.add();
        break;
      }

      case IssueCandKind::kLoadMem: {
        // Optimized pipeline: no load in the major cycle's first slot.
        // With only load candidates ready, slot 0 stays empty and loads
        // occupy slots 1..N-1.
        if (used_slots == 0 && !sched_.load_allowed_in_slot0()) {
          istat_.slot0_load_skips.add();
          used_slots = 1;
        }
        LsqEntry& m = lsq_.entry(e.lsq_slot);
        if (m.forwarded) {
          // Value satisfied inside the LSQ: one-cycle completion, no port.
          m.mem_issued = true;
          e.issued = true;
          e.complete_at = cycle_ + 1;
          inflight_.push_back(c.rob_slot);
          ++used_slots;
          istat_.loads_forwarded.add();
        } else {
          if (read_ports_used_ >= cfg_.mem_read_ports) {
            istat_.read_port_stalls.add();
            continue;
          }
          ++read_ports_used_;
          const auto res = mem_.dread(m.addr);
          m.mem_issued = true;
          e.issued = true;
          e.complete_at = cycle_ + res.latency;
          inflight_.push_back(c.rob_slot);
          ++used_slots;
          (res.hit ? istat_.load_hits : istat_.load_misses).add();
        }
        break;
      }
    }
  }
}

}  // namespace resim::core
