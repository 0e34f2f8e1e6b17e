// google-benchmark micro-measurements of the building blocks' host speed:
// trace codec, predictors, cache model, functional simulator and the full
// engine. These are host-performance numbers (not paper results) used to
// size bulk-simulation experiments.
#include <benchmark/benchmark.h>

#include "bpred/unit.hpp"
#include "cache/cache.hpp"
#include "core/engine.hpp"
#include "funcsim/funcsim.hpp"
#include "trace/reader.hpp"
#include "trace/tracegen.hpp"
#include "workload/suite.hpp"

namespace {

using namespace resim;

const trace::Trace& shared_trace() {
  static const trace::Trace t = [] {
    trace::TraceGenConfig g;
    g.max_insts = 50'000;
    trace::TraceGenerator gen(workload::make_workload("gzip"), g);
    return gen.generate();
  }();
  return t;
}

void BM_CodecEncode(benchmark::State& state) {
  const auto& t = shared_trace();
  for (auto _ : state) {
    BitWriter w;
    for (const auto& r : t.records) trace::encode(r, w);
    benchmark::DoNotOptimize(w.bit_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(t.records.size()));
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  const auto& t = shared_trace();
  const auto payload = t.encode_payload();
  for (auto _ : state) {
    BitReader br(payload);
    trace::TraceRecord r;
    for (std::size_t i = 0; i < t.records.size(); ++i) {
      benchmark::DoNotOptimize(trace::decode(br, r));
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(t.records.size()));
}
BENCHMARK(BM_CodecDecode);

void BM_PredictorLookup(benchmark::State& state) {
  bpred::BranchPredictorUnit u(bpred::BPredConfig::paper_default());
  Addr pc = 0x400000;
  for (auto _ : state) {
    const auto p = u.predict(pc, isa::CtrlType::kCond, pc + 8, true, pc + 64);
    u.update_commit(pc, isa::CtrlType::kCond, true, pc + 64, p);
    pc += 8;
    if (pc > 0x410000) pc = 0x400000;
    benchmark::DoNotOptimize(p.next_pc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorLookup);

void BM_CacheAccess(benchmark::State& state) {
  cache::TagCache c("dl1", cache::CacheConfig{});
  Addr a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(a, cache::AccessKind::kRead).hit);
    a = (a + 72) & 0xF'FFFF;  // stride with wrap
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_FunctionalSim(benchmark::State& state) {
  auto wl = workload::make_workload("gzip");
  for (auto _ : state) {
    funcsim::FuncSim f(wl.program, wl.fsim);
    for (int i = 0; i < 10'000 && !f.done(); ++i) benchmark::DoNotOptimize(f.step().pc);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_FunctionalSim);

void BM_EngineTraceDriven(benchmark::State& state) {
  const auto& t = shared_trace();
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  for (auto _ : state) {
    trace::VectorTraceSource src(t);
    core::ReSimEngine eng(cfg, src);
    const auto r = eng.run();
    benchmark::DoNotOptimize(r.committed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(shared_trace().records.size()));
}
BENCHMARK(BM_EngineTraceDriven);

void BM_EngineByWidth(benchmark::State& state) {
  const auto& t = shared_trace();
  auto cfg = core::CoreConfig::paper_4wide_perfect();
  cfg.width = static_cast<unsigned>(state.range(0));
  cfg.mem_read_ports = cfg.width > 1 ? cfg.width - 1 : 1;
  if (cfg.width == 1) cfg.variant = core::PipelineVariant::kEfficient;
  for (auto _ : state) {
    trace::VectorTraceSource src(t);
    core::ReSimEngine eng(cfg, src);
    benchmark::DoNotOptimize(eng.run().major_cycles);
  }
}
BENCHMARK(BM_EngineByWidth)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
