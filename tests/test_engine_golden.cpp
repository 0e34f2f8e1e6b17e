// Golden timing tests: micro-kernels with analytically-known IPC pin each
// mechanism of the out-of-order model (FU latencies, fetch breaks,
// load-use delay, forwarding, RAS, predictor quality).
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "trace/tracegen.hpp"
#include "workload/micro.hpp"

namespace resim::core {
namespace {

SimResult run_micro(const workload::Workload& wl, std::uint64_t insts,
                    CoreConfig cfg = CoreConfig::paper_4wide_perfect(),
                    bpred::BPredConfig bp = {}) {
  trace::TraceGenConfig g;
  g.max_insts = insts;
  g.bp = bp;
  cfg.bp = bp;
  trace::TraceGenerator gen(wl, g);
  const auto t = gen.generate();
  trace::VectorTraceSource src(t);
  ReSimEngine eng(cfg, src);
  return eng.run();
}

TEST(Golden, DependentAluChainIpcNearOne) {
  // A serial add chain retires one instruction per cycle at best.
  const auto r = run_micro(workload::make_dep_chain_alu(1 << 20, 16), 30000);
  EXPECT_GT(r.ipc(), 0.85);
  EXPECT_LT(r.ipc(), 1.35);
}

TEST(Golden, IndependentStreamsSaturateWidth) {
  // Four independent streams on four ALUs -> IPC close to the width.
  const auto r = run_micro(workload::make_indep_alu(1 << 20, 4, 16), 30000);
  EXPECT_GT(r.ipc(), 2.6);
  EXPECT_LE(r.ipc(), 4.0);
}

TEST(Golden, MulChainPacedByMultiplierLatency) {
  // Dependent multiplies: one result every 3 cycles.
  const auto r = run_micro(workload::make_mul_chain(1 << 20, 8), 20000);
  EXPECT_GT(r.ipc(), 0.25);
  EXPECT_LT(r.ipc(), 0.55);
}

TEST(Golden, DivChainPacedByUnpipelinedDivider) {
  // Dependent divides: one result every 10 cycles, divider unpipelined.
  const auto r = run_micro(workload::make_div_chain(1 << 20, 4), 10000);
  EXPECT_GT(r.ipc(), 0.10);
  EXPECT_LT(r.ipc(), 0.22);
}

TEST(Golden, IndependentDivsStillSerializeOnOneUnit) {
  // Each iteration is kDivs mutually independent divides plus the
  // 2-instruction loop overhead. The single unpipelined divider holds
  // every divide for its full latency, so an iteration takes at least
  // kDivs * div_latency cycles: IPC <= (kDivs + 2) / (kDivs * 10) = 0.15,
  // independence notwithstanding.
  constexpr int kDivs = 4;
  const CoreConfig cfg = CoreConfig::paper_4wide_perfect();
  ASSERT_EQ(cfg.fu.div_count, 1u);
  ASSERT_FALSE(cfg.fu.div_pipelined);
  const double ceiling = double(kDivs + 2) / double(kDivs * cfg.fu.div_latency);
  const auto one = run_micro(workload::make_indep_div(1 << 20, kDivs, kDivs), 8000, cfg);
  EXPECT_LE(one.ipc(), ceiling * 1.01);
  EXPECT_GT(one.ipc(), ceiling * 0.9);  // nothing else limits the loop

  // The divides really are independent: with one divider per stream they
  // overlap, which a dependent chain could not.
  CoreConfig per_stream = cfg;
  per_stream.fu.div_count = kDivs;
  const auto many =
      run_micro(workload::make_indep_div(1 << 20, kDivs, kDivs), 8000, per_stream);
  EXPECT_GT(many.ipc(), 2 * ceiling);
}

TEST(Golden, PointerChaseBoundByLoadUseChain) {
  // Each hop: agen (1) + access (1) + 2 ALU ops, serial -> IPC ~= 0.75.
  const auto r = run_micro(workload::make_pointer_chase(1 << 20, 8), 20000);
  EXPECT_GT(r.ipc(), 0.5);
  EXPECT_LT(r.ipc(), 1.1);
}

TEST(Golden, TinyTakenLoopBoundByFetchBreaks) {
  // A 2-instruction always-taken loop fetches at most 2 per cycle.
  const auto r = run_micro(workload::make_taken_loop(1 << 20, 2), 20000);
  EXPECT_LE(r.ipc(), 2.05);
  // Fetch must break on (almost) every iteration's taken back-branch.
  const auto breaks = r.stats.value("fetch.taken_breaks");
  EXPECT_GT(breaks, r.committed / 3);
}

TEST(Golden, StoreLoadForwardingUsed) {
  const auto r = run_micro(workload::make_store_load_forward(1 << 20), 20000);
  const auto forwarded = r.stats.value("issue.loads_forwarded");
  const auto loads = r.stats.value("commit.loads");
  EXPECT_GT(loads, 0u);
  // Nearly every load reloads the just-stored word.
  EXPECT_GT(forwarded * 10, loads * 9);
}

TEST(Golden, TwoLevelLearnsPeriodicBranchBimodalCannot) {
  bpred::BPredConfig twolevel;  // paper default
  bpred::BPredConfig bimodal;
  bimodal.kind = bpred::DirKind::kBimodal;

  const auto wl = workload::make_periodic_branch(1 << 20, 4);
  const auto r2 = run_micro(wl, 20000, CoreConfig::paper_4wide_perfect(), twolevel);
  const auto rb = run_micro(workload::make_periodic_branch(1 << 20, 4), 20000,
                            CoreConfig::paper_4wide_perfect(), bimodal);
  const auto m2 = r2.stats.value("fetch.mispredicts");
  const auto mb = rb.stats.value("fetch.mispredicts");
  EXPECT_LT(m2 * 3, mb) << "two-level should crush bimodal on a periodic pattern";
  EXPECT_LT(r2.major_cycles, rb.major_cycles);
}

TEST(Golden, RandomBranchDefeatsEveryPredictor) {
  const auto r = run_micro(workload::make_random_branch(1 << 20), 20000);
  const auto branches = r.stats.value("fetch.branches");
  const auto mispredicts = r.stats.value("fetch.mispredicts");
  // The 50/50 branch is 1 of 2 branches per iteration: mispredict rate
  // over all branches lands near 25%.
  EXPECT_GT(double(mispredicts) / double(branches), 0.10);
}

TEST(Golden, CallLadderReturnsPredictedByRas) {
  const auto r = run_micro(workload::make_call_ladder(1 << 20, 8), 20000);
  // Returns resolve through the RAS: after BTB warmup on calls there
  // should be essentially no mispredictions.
  EXPECT_EQ(r.stats.value("fetch.mispredicts"), 0u);
  EXPECT_GT(r.stats.value("bpred.ras_pops"), 1000u);
  // Misfetches only during BTB warmup: a handful.
  EXPECT_LT(r.stats.value("fetch.misfetches"), 50u);
}

TEST(Golden, StreamReadCacheSensitivity) {
  // Footprint 4 KiB fits a 32 KiB L1; footprint 4 MiB streams through it.
  auto cfg = CoreConfig::paper_2wide_cache();
  const auto fits = run_micro(workload::make_stream_read(1 << 20, 1 << 12), 20000, cfg,
                              bpred::BPredConfig::perfect());
  const auto thrash = run_micro(workload::make_stream_read(1 << 20, 1 << 22), 20000, cfg,
                                bpred::BPredConfig::perfect());
  EXPECT_LT(fits.major_cycles, thrash.major_cycles);
  EXPECT_GT(thrash.stats.value("dl1.misses"), fits.stats.value("dl1.misses") * 5);
}

TEST(Golden, MisfetchPenaltyVisibleOnColdJumps) {
  // First executions of direct jumps misfetch (cold BTB); with penalty 0
  // the run must be faster than with penalty 10.
  auto slow = CoreConfig::paper_4wide_perfect();
  slow.misfetch_penalty = 10;
  auto fast = CoreConfig::paper_4wide_perfect();
  fast.misfetch_penalty = 0;
  const auto wl = workload::make_call_ladder(1 << 20, 8);
  const auto rs = run_micro(wl, 10000, slow);
  const auto rf = run_micro(workload::make_call_ladder(1 << 20, 8), 10000, fast);
  EXPECT_LE(rf.major_cycles, rs.major_cycles);
}

TEST(Golden, MisspecPenaltyScalesRecoveryCost) {
  auto cheap = CoreConfig::paper_4wide_perfect();
  cheap.misspec_penalty = 0;
  auto costly = CoreConfig::paper_4wide_perfect();
  costly.misspec_penalty = 20;
  const auto rc = run_micro(workload::make_random_branch(1 << 20), 15000, cheap);
  const auto re = run_micro(workload::make_random_branch(1 << 20), 15000, costly);
  EXPECT_LT(rc.major_cycles, re.major_cycles);
}

}  // namespace
}  // namespace resim::core
