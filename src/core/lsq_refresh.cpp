// Lsq_refresh (paper §III): executed once per major cycle.
//
//   "Loads can be issued only after their effective address has been
//    calculated, and there are no unresolved memory dependencies. These
//    checks are performed by Lsq_refresh."
//
// The scan walks the LSQ in program order. A load with a completed
// address is decided by the youngest older store whose address is
// unknown or names the same word:
//  * an unknown address blocks it (conservative memory disambiguation);
//  * a same-word store blocks it until the store completes, then
//    forwards its value (§III: "a read port is allocated if their value
//    has not been forwarded in the LSQ");
//  * stores become commit-ready (store_done) once their address
//    generation — which waits for both base and data registers — has
//    completed.
#include "core/engine.hpp"

namespace resim::core {

LsqRefreshStats::LsqRefreshStats(StatsRegistry& reg)
    : stores_completed(reg.counter("lsq.stores_completed")),
      loads_blocked(reg.counter("lsq.loads_blocked")),
      loads_forwarded(reg.counter("lsq.loads_forwarded")),
      loads_ready(reg.counter("lsq.loads_ready")) {}


void ReSimEngine::stage_lsq_refresh() {
  for (unsigned i = 0; i < lsq_.size(); ++i) {
    const int slot = lsq_.slot_at(i);
    LsqEntry& m = lsq_.entry(slot);

    if (m.is_store) {
      // A store is commit-ready once its address is generated *and* its
      // data register has resolved (STA/STD split).
      if (m.store_done || !m.addr_ready(cycle_)) continue;
      RobEntry& e = rob_.entry(m.rob_slot);
      if (e.src_rob[1] < 0) {
        m.store_done = true;
        // Stores produce no register value: completion bypasses the
        // writeback broadcast and the entry waits for Commit.
        e.completed = true;
        lstat_.stores_completed.add();
      }
      continue;
    }

    // Loads.
    if (m.mem_issued || m.mem_ready || !m.addr_ready(cycle_)) continue;

    // The youngest older store whose address is unknown or names the
    // same word decides (program-order conflict checks, where each later
    // store overrides an earlier verdict): an unknown address or a
    // matching store without its data blocks, a matching completed store
    // forwards. Without one the load reads memory.
    bool blocked = false;
    bool forwarded = false;
    for (unsigned j = i; j-- > 0;) {
      const LsqEntry& older = lsq_.entry(lsq_.slot_at(j));
      if (!older.is_store) continue;
      if (!older.addr_ready(cycle_)) {
        blocked = true;  // unresolved memory dependence
        break;
      }
      if (older.addr == m.addr) {
        forwarded = older.store_done;
        blocked = !older.store_done;  // matching store's data not ready yet
        break;
      }
    }

    if (blocked) {
      lstat_.loads_blocked.add();
      continue;
    }
    m.mem_ready = true;
    m.forwarded = forwarded;
    if (forwarded) lstat_.loads_forwarded.add();
    lstat_.loads_ready.add();
  }
}

}  // namespace resim::core
