// Writeback stage (paper §III): "Writeback selects the oldest completed
// instruction(s) and broadcasts their results and wakes up all their
// dependent instructions."
//
// An instruction issued at cycle C with latency L completes at C+L; the
// writeback of cycle C+L broadcasts it, so a dependent can issue in the
// same major cycle (Issue runs after Writeback in the engine's stage
// order). Because Commit runs *before* Writeback, a completion only
// becomes commit-eligible one cycle later — the architectural effect of
// the paper's §IV.B commit-blocking flag.
#include "core/engine.hpp"

#include <algorithm>
#include <vector>

namespace resim::core {

WritebackStats::WritebackStats(StatsRegistry& reg)
    : broadcasts(reg.counter("wb.broadcasts")) {}


void ReSimEngine::stage_writeback() {
  // The in-flight list holds exactly the issued, not-yet-completed
  // entries, so filtering it by complete_at finds what a ROB scan would.
  std::vector<int>& due = wb_due_;
  due.clear();
  for (const int slot : inflight_) {
    if (rob_.entry(slot).complete_at <= cycle_) due.push_back(slot);
  }
  if (due.empty()) return;
  if (due.size() > cfg_.width) {
    // Oldest first by ROB age, up to the width. (Below the width, order
    // is immaterial: every due entry broadcasts, and wakeups commute.)
    const auto by_age = [this](int a, int b) { return rob_.age_of(a) < rob_.age_of(b); };
    std::partial_sort(due.begin(), due.begin() + cfg_.width, due.end(), by_age);
    due.resize(cfg_.width);
  }

  for (const int slot : due) {
    rob_.entry(slot).completed = true;
    wstat_.broadcasts.add();
    wake_dependents(slot);
  }
  std::erase_if(inflight_, [this](int slot) { return rob_.entry(slot).completed; });
}

}  // namespace resim::core
