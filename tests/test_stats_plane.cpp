// The handle-based statistics plane (docs/STATS.md):
//  * handle-vs-string equivalence and reference stability,
//  * the touched-visibility contract (resolve-once handles must not
//    change reports),
//  * StatsRegistry::merge() semantics,
//  * byte-exact golden stats reports for the two paper machines, pinned
//    against tests/golden/ (the report format is a compatibility
//    contract: name-sorted, setw(34), fixed-4 occupancy averages).
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "config/config_file.hpp"
#include "core/engine.hpp"
#include "trace/reader.hpp"
#include "trace/tracegen.hpp"
#include "workload/suite.hpp"

namespace {

using namespace resim;

// ---- handles vs strings ---------------------------------------------------

TEST(StatsHandles, HandleAndStringApiHitTheSameSlot) {
  StatsRegistry s;
  Counter& h = s.counter("fetch.insts");
  h.add(3);
  s.counter("fetch.insts").add(4);
  EXPECT_EQ(s.value("fetch.insts"), 7u);
  EXPECT_EQ(h.value(), 7u);
}

TEST(StatsHandles, HandlesSurviveLaterRegistrations) {
  StatsRegistry s;
  Counter& c = s.counter("first");
  Occupancy& o = s.occupancy("occ.first");
  c.add();
  o.sample(5);
  // Node-stable storage: resolving many more names must not move slots.
  for (int i = 0; i < 1000; ++i) {
    s.counter("filler." + std::to_string(i));
    s.occupancy("ofiller." + std::to_string(i));
  }
  c.add();
  o.sample(7);
  EXPECT_EQ(s.value("first"), 2u);
  EXPECT_EQ(s.occupancy("occ.first").samples(), 2u);
  EXPECT_EQ(s.occupancy("occ.first").max(), 7u);
}

TEST(StatsHandles, ResolvingAloneDoesNotPublish) {
  StatsRegistry s;
  Counter& silent = s.counter("never.fired");
  Occupancy& osilent = s.occupancy("occ.never");
  (void)silent;
  (void)osilent;
  s.counter("fired").add();
  EXPECT_FALSE(s.has_counter("never.fired"));
  EXPECT_TRUE(s.has_counter("fired"));
  const auto rep = s.report();
  EXPECT_EQ(rep.find("never.fired"), std::string::npos);
  EXPECT_EQ(rep.find("occ.never"), std::string::npos);
  EXPECT_NE(rep.find("fired"), std::string::npos);
}

TEST(StatsHandles, AddZeroPublishes) {
  // add(0) is an event (e.g. a squash that found an empty window): the
  // counter must appear in the report with value 0, as it always has.
  StatsRegistry s;
  s.counter("commit.squashed_insts").add(0);
  EXPECT_TRUE(s.has_counter("commit.squashed_insts"));
  EXPECT_NE(s.report().find("commit.squashed_insts"), std::string::npos);
}

TEST(StatsHandles, ResetZeroesButKeepsVisibility) {
  StatsRegistry s;
  s.counter("a").add(7);
  s.occupancy("b").sample(3);
  s.reset();
  EXPECT_TRUE(s.has_counter("a"));
  EXPECT_EQ(s.value("a"), 0u);
  EXPECT_EQ(s.occupancy("b").samples(), 0u);
  EXPECT_NE(s.report().find('a'), std::string::npos);
}

// ---- merge ----------------------------------------------------------------

TEST(StatsMerge, CountersAddAndUntouchedAreSkipped) {
  StatsRegistry a;
  StatsRegistry b;
  a.counter("shared").add(10);
  b.counter("shared").add(5);
  b.counter("only_b").add(2);
  (void)b.counter("silent_in_b");  // resolved, never fired
  a.merge(b);
  EXPECT_EQ(a.value("shared"), 15u);
  EXPECT_EQ(a.value("only_b"), 2u);
  EXPECT_FALSE(a.has_counter("silent_in_b"));
}

TEST(StatsMerge, OccupanciesWeighBySampleCount) {
  StatsRegistry a;
  StatsRegistry b;
  a.occupancy("occ.x").sample(2);  // sum 2, samples 1, max 2
  b.occupancy("occ.x").sample(4);
  b.occupancy("occ.x").sample(6);  // sum 10, samples 2, max 6
  b.occupancy("occ.only_b").sample(3);
  a.merge(b);
  const auto& x = a.occupancies().at("occ.x");
  EXPECT_EQ(x.samples(), 3u);
  EXPECT_EQ(x.max(), 6u);
  EXPECT_DOUBLE_EQ(x.average(), 4.0);  // (2 + 10) / 3
  EXPECT_EQ(a.occupancies().at("occ.only_b").samples(), 1u);
}

TEST(StatsMerge, MergeIntoEmptyEqualsCopy) {
  StatsRegistry src;
  src.counter("c").add(9);
  src.occupancy("o").sample(4);
  StatsRegistry dst;
  dst.merge(src);
  EXPECT_EQ(dst.report(), src.report());
}

// ---- snapshot / delta -----------------------------------------------------

TEST(StatsSnapshotDelta, SnapshotCapturesTouchedOnly) {
  StatsRegistry s;
  s.counter("fired").add(3);
  (void)s.counter("silent");  // resolved, never fired
  s.occupancy("occ.fired").sample(5);
  (void)s.occupancy("occ.silent");
  const StatsSnapshot snap = s.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.value("fired"), 3u);
  EXPECT_EQ(snap.value("silent"), 0u);  // absent reads as 0
  ASSERT_EQ(snap.occupancies.size(), 1u);
  EXPECT_EQ(snap.occupancies.at("occ.fired").sum, 5u);
  EXPECT_EQ(snap.occupancies.at("occ.fired").samples, 1u);
  EXPECT_EQ(snap.occupancies.at("occ.fired").max, 5u);
}

TEST(StatsSnapshotDelta, SnapshotIsAValueCopy) {
  StatsRegistry s;
  s.counter("c").add(2);
  const StatsSnapshot snap = s.snapshot();
  s.counter("c").add(10);
  EXPECT_EQ(snap.value("c"), 2u);  // later events don't leak into it
}

TEST(StatsSnapshotDelta, DeltaSubtractsCounters) {
  StatsRegistry s;
  s.counter("commit.insts").add(100);
  const StatsSnapshot before = s.snapshot();
  s.counter("commit.insts").add(40);
  s.counter("new.in_region").add(7);  // first touched inside the region
  const StatsSnapshot after = s.snapshot();
  const StatsSnapshot d = StatsRegistry::delta(after, before);
  EXPECT_EQ(d.value("commit.insts"), 40u);
  EXPECT_EQ(d.value("new.in_region"), 7u);
}

TEST(StatsSnapshotDelta, DeltaSubtractsOccupancySumsAndSamples) {
  StatsRegistry s;
  s.occupancy("occ.rob").sample(10);
  s.occupancy("occ.rob").sample(12);  // sum 22, samples 2, max 12
  const StatsSnapshot before = s.snapshot();
  s.occupancy("occ.rob").sample(4);  // sum 26, samples 3, max still 12
  const StatsSnapshot after = s.snapshot();
  const StatsSnapshot d = StatsRegistry::delta(after, before);
  const auto& occ = d.occupancies.at("occ.rob");
  EXPECT_EQ(occ.sum, 4u);
  EXPECT_EQ(occ.samples, 1u);
  // Running max can't be un-merged: the delta carries the newer max as
  // an upper bound for the region (documented on StatsSnapshot::Occ).
  EXPECT_EQ(occ.max, 12u);
}

TEST(StatsSnapshotDelta, DeltaThrowsOnDecreasedCounter) {
  StatsRegistry s;
  s.counter("c").add(10);
  const StatsSnapshot big = s.snapshot();
  s.reset();
  s.counter("c").add(3);
  const StatsSnapshot small = s.snapshot();
  try {
    (void)StatsRegistry::delta(small, big);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("'c'"), std::string::npos);
  }
}

TEST(StatsSnapshotDelta, DeltaOfEqualSnapshotsIsZero) {
  StatsRegistry s;
  s.counter("c").add(5);
  s.occupancy("o").sample(2);
  const StatsSnapshot snap = s.snapshot();
  const StatsSnapshot d = StatsRegistry::delta(snap, snap);
  EXPECT_EQ(d.value("c"), 0u);
  EXPECT_EQ(d.occupancies.at("o").sum, 0u);
  EXPECT_EQ(d.occupancies.at("o").samples, 0u);
}

// ---- engine-level: result() is repeatable and handle-driven ---------------

core::SimResult run_paper_machine(const std::string& cfg_file, std::uint64_t insts,
                                  std::string* report_out = nullptr,
                                  const std::vector<std::string>& sets = {}) {
  core::CoreConfig cfg = core::CoreConfig::paper_4wide_perfect();
  config::load_config_file(std::string(RESIM_SOURCE_DIR) + "/configs/" + cfg_file, cfg);
  for (const std::string& s : sets) (void)config::apply_set(cfg, s);
  // The sweep_point pairing every paper experiment uses: the generator
  // predicts with the engine's predictor configuration.
  trace::TraceGenConfig g;
  g.max_insts = insts;
  g.bp = cfg.bp;
  g.wrong_path_block = cfg.wrong_path_block();
  trace::TraceGenerator gen(workload::make_workload("gzip"), g);
  const trace::Trace t = gen.generate();
  trace::VectorTraceSource src(t);
  core::ReSimEngine eng(cfg, src);
  auto r = eng.run();
  // result() merges bp/cache stats into a copy; calling it again must
  // not double-count (the live registry stays unmerged).
  EXPECT_EQ(eng.result().stats.report(), r.stats.report());
  if (report_out != nullptr) *report_out = r.stats.report();
  return r;
}

// Compares the full stats report of a 30000-instruction gzip run against
// tests/golden/<golden>.
void expect_golden_report(const std::string& cfg_file, const std::string& golden_name,
                          const std::vector<std::string>& sets = {}) {
  std::string report;
  (void)run_paper_machine(cfg_file, 30000, &report, sets);
  std::ifstream golden(std::string(RESIM_SOURCE_DIR) + "/tests/golden/" + golden_name);
  ASSERT_TRUE(golden) << "missing tests/golden/" << golden_name;
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(report, want.str());
}

TEST(StatsGolden, Paper4WidePerfectReportIsByteExact) {
  expect_golden_report("paper_4wide_perfect.cfg", "stats_paper_4wide_perfect.txt");
}

TEST(StatsGolden, Paper2WideCacheReportIsByteExact) {
  expect_golden_report("paper_2wide_cache.cfg", "stats_paper_2wide_cache.txt");
}

// Deep-window goldens. The paper configs run LSQ 8, which caps a ROB 256
// window at about 31 entries; these LSQ sizes let the window fill, so
// they pin the timing of wakeup, select and writeback over a deep ROB.
TEST(StatsGolden, Paper4WidePerfectRob256ReportIsByteExact) {
  expect_golden_report("paper_4wide_perfect.cfg", "stats_paper_4wide_perfect_rob256.txt",
                       {"core.rob_size=256", "core.lsq_size=64"});
}

TEST(StatsGolden, Paper2WideCacheRob64ReportIsByteExact) {
  expect_golden_report("paper_2wide_cache.cfg", "stats_paper_2wide_cache_rob64.txt",
                       {"core.rob_size=64", "core.lsq_size=32"});
}

TEST(StatsGolden, CacheMachinePublishesL1CountersEvenWhenIdle) {
  // A constructed cache always exports its three counters (value 0 if
  // idle) — the shape the pre-handle result() produced.
  const auto r = run_paper_machine("paper_2wide_cache.cfg", 2000);
  EXPECT_TRUE(r.stats.has_counter("il1.accesses"));
  EXPECT_TRUE(r.stats.has_counter("dl1.hits"));
  EXPECT_TRUE(r.stats.has_counter("dl1.misses"));
  EXPECT_EQ(r.stats.value("il1.hits") + r.stats.value("il1.misses"),
            r.stats.value("il1.accesses"));
}

TEST(StatsGolden, PerfectMemoryMachineReportsNoCacheCounters) {
  const auto r = run_paper_machine("paper_4wide_perfect.cfg", 2000);
  EXPECT_FALSE(r.stats.has_counter("il1.accesses"));
  EXPECT_FALSE(r.stats.has_counter("dl1.accesses"));
}

TEST(StatsGolden, PerfectPredictorMachineReportsNoMispredictCounters) {
  // paper_2wide_cache runs the perfect (oracle) predictor: the
  // mispredict machinery never fires, so none of its (eagerly resolved)
  // counters may appear — exactly what the lazy-creation binary printed.
  const auto r = run_paper_machine("paper_2wide_cache.cfg", 2000);
  const auto rep = r.stats.report();
  EXPECT_EQ(rep.find("fetch.mispredicts"), std::string::npos);
  EXPECT_EQ(rep.find("commit.squashes"), std::string::npos);
}

}  // namespace
