// Trace-feed throughput across every .rsim reading backend (the Table 3
// angle: ReSim's appetite for trace bandwidth is what makes the trace
// path a hot path worth measuring, and what the CI perf gate watches).
//
// Generates one trace, saves it as a raw chunked v2 .rsim, a compressed
// v3 .rsim, and a delta-prefiltered v4 .rsim, then drains it
//   (a) from a decoded in-memory vector   (VectorTraceSource),
//   (b) chunk-streamed off each file      (FileTraceSource, O(chunk)),
//   (c) memory-mapped, decoded in place   (MmapTraceSource),
//   (d) through a SharedBatchCache feed   (BatchTraceSource, the sweep
//       fan-out path — measured cold, decoding every chunk, and warm,
//       replaying cached decoded chunks),
// reporting records/s and decoded-wire MB/s for each, plus a full engine
// run on every source as a bit-identity self-check (exit 1 on mismatch).
//
// Besides the table, the run is saved as machine-readable
// BENCH_trace_io.json (path override: RESIM_BENCH_JSON env var) with one
// entry per backend, the v3/v2 and v4/v2 compression ratios, so the CI
// perf-regression gate has MB/s numbers to compare against
// bench/baselines/BENCH_trace_io.json (docs/CI.md).
//
//   ./micro_trace_stream [reps]        (RESIM_BENCH_INSTS sizes the trace)
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "trace/batch_cache.hpp"
#include "trace/file_source.hpp"
#include "trace/writer.hpp"

namespace resim::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct DrainResult {
  std::string name;
  double secs = 0;
  std::uint64_t records = 0;
  std::uint64_t bits = 0;

  [[nodiscard]] double mrecords_per_sec() const {
    return static_cast<double>(records) / secs / 1e6;
  }
  [[nodiscard]] double mb_per_sec() const {
    return static_cast<double>(bits) / 8.0 / 1e6 / secs;
  }
};

DrainResult drain(trace::TraceSource& src) {
  DrainResult d;
  const auto t0 = Clock::now();
  while (src.peek() != nullptr) (void)src.next();
  d.secs = std::chrono::duration<double>(Clock::now() - t0).count();
  d.records = src.records_consumed();
  d.bits = src.bits_consumed();
  return d;
}

/// Best-of-reps drain through sources built fresh per rep.
DrainResult best_drain(const std::string& name, int reps,
                       const std::function<std::unique_ptr<trace::TraceSource>()>& make) {
  DrainResult best;
  for (int i = 0; i < reps; ++i) {
    const auto src = make();
    const auto d = drain(*src);
    if (best.secs == 0 || d.secs < best.secs) best = d;
  }
  best.name = name;
  return best;
}

void report(const DrainResult& d) {
  std::cout << std::left << std::setw(22) << d.name << std::right << std::fixed
            << std::setprecision(1) << std::setw(14) << d.mrecords_per_sec()
            << std::setw(14) << d.mb_per_sec() << '\n';
}

int run(int reps) {
  const auto insts = inst_budget();
  const auto cfg = core::CoreConfig::paper_4wide_perfect();

  trace::TraceGenConfig g;
  g.max_insts = insts;
  g.bp = cfg.bp;
  g.wrong_path_block = cfg.wrong_path_block();
  const trace::Trace t =
      trace::TraceGenerator(workload::make_workload("gzip"), g).generate();

  // Pid-suffixed so concurrent invocations on one host never collide.
  const std::string stem =
      (std::filesystem::temp_directory_path() / "micro_trace_stream_").string() +
      std::to_string(::getpid());
  const std::string raw_path = stem + "_v2.rsim";
  const std::string lz_path = stem + "_v3.rsim";
  const std::string delta_path = stem + "_v4.rsim";
  trace::save_trace(t, raw_path);
  trace::save_trace(t, lz_path, trace::kDefaultChunkRecords, /*compress=*/true);
  trace::save_trace(t, delta_path, trace::kDefaultChunkRecords, /*compress=*/true,
                    /*prefilter=*/true);
  const auto raw_file_bytes = std::filesystem::file_size(raw_path);
  const auto lz_file_bytes = std::filesystem::file_size(lz_path);
  const auto delta_file_bytes = std::filesystem::file_size(delta_path);
  const double ratio =
      static_cast<double>(raw_file_bytes) / static_cast<double>(lz_file_bytes);
  const double delta_ratio =
      static_cast<double>(raw_file_bytes) / static_cast<double>(delta_file_bytes);

  print_header("Trace feed throughput: memory vs stream vs mmap vs shared batches");
  std::cout << "trace: gzip, " << t.records.size() << " records, v2 "
            << raw_file_bytes << " bytes, v3 " << lz_file_bytes << " bytes ("
            << std::fixed << std::setprecision(2) << ratio << "x), v4 "
            << delta_file_bytes << " bytes (" << delta_ratio << "x), chunk = "
            << trace::kDefaultChunkRecords << " records, " << reps << " reps\n\n";
  std::cout << std::left << std::setw(22) << "source" << std::right << std::setw(14)
            << "Mrecords/s" << std::setw(14) << "wire MB/s" << '\n';
  print_rule(50);

  std::vector<DrainResult> results;
  results.push_back(best_drain("memory", reps, [&] {
    // The vector source reads a prepared decoded trace; its "drain" is
    // the in-memory upper bound the file backends chase.
    return std::make_unique<trace::VectorTraceSource>(t);
  }));
  results.push_back(best_drain("stream/raw", reps, [&] {
    return std::make_unique<trace::FileTraceSource>(raw_path);
  }));
  results.push_back(best_drain("stream/lz", reps, [&] {
    return std::make_unique<trace::FileTraceSource>(lz_path);
  }));
  results.push_back(best_drain("mmap/raw", reps, [&] {
    return std::make_unique<trace::MmapTraceSource>(raw_path);
  }));
  results.push_back(best_drain("mmap/lz", reps, [&] {
    return std::make_unique<trace::MmapTraceSource>(lz_path);
  }));
  results.push_back(best_drain("stream/delta", reps, [&] {
    return std::make_unique<trace::FileTraceSource>(delta_path);
  }));
  results.push_back(best_drain("mmap/delta", reps, [&] {
    return std::make_unique<trace::MmapTraceSource>(delta_path);
  }));

  // Shared-batch feed, both halves of the fan-out story: "cold" pays the
  // one-time chunk decode (what the single producer does once per
  // sweep), "warm" replays already-decoded chunks (what every other
  // consumer in the group sees).
  results.push_back(best_drain("shared/cold", reps, [&] {
    return std::make_unique<trace::BatchTraceSource>(std::make_shared<trace::SharedBatchCache>(
        lz_path, /*expected_consumers=*/1, /*capacity=*/1));
  }));
  {
    // Capacity covers the whole trace so warm reps replay cached chunks
    // only (skip() hops chunks without decoding, so the warmup must
    // drain, not skip). One warm pass is well under a millisecond, so a
    // rep times kWarmPasses passes and reports the mean pass.
    constexpr int kWarmPasses = 16;
    const auto cache = std::make_shared<trace::SharedBatchCache>(
        lz_path, /*expected_consumers=*/1,
        /*capacity=*/std::numeric_limits<std::size_t>::max());
    {
      trace::BatchTraceSource warmup(cache);
      (void)drain(warmup);
    }
    DrainResult warm;
    for (int i = 0; i < reps; ++i) {
      DrainResult d;
      for (int pass = 0; pass < kWarmPasses; ++pass) {
        trace::BatchTraceSource src(cache);
        const auto p = drain(src);
        d.secs += p.secs / kWarmPasses;
        d.records = p.records;
        d.bits = p.bits;
      }
      if (warm.secs == 0 || d.secs < warm.secs) warm = d;
    }
    warm.name = "shared/warm";
    results.push_back(warm);
  }
  for (const auto& r : results) report(r);

  bool ok = true;
  for (const auto& r : results) {
    ok = ok && r.records == results[0].records && r.bits == results[0].bits;
  }

  // Engine-level identity: the whole point of interchangeable backends.
  trace::VectorTraceSource vsrc(t);
  const auto rv = core::ReSimEngine(cfg, vsrc).run();
  for (const std::string& path : {raw_path, lz_path, delta_path}) {
    trace::FileTraceSource fsrc(path);
    const auto rf = core::ReSimEngine(cfg, fsrc).run();
    trace::MmapTraceSource msrc(path);
    const auto rm = core::ReSimEngine(cfg, msrc).run();
    trace::BatchTraceSource bsrc(std::make_shared<trace::SharedBatchCache>(path));
    const auto rb = core::ReSimEngine(cfg, bsrc).run();
    for (const auto& r : {rf, rm, rb}) {
      ok = ok && rv.committed == r.committed && rv.major_cycles == r.major_cycles &&
           rv.trace_records == r.trace_records && rv.trace_bits == r.trace_bits;
    }
  }
  std::cout << "\nengine identity check across backends: committed " << rv.committed
            << ", cycles " << rv.major_cycles << " -> " << (ok ? "OK" : "MISMATCH")
            << '\n';

  // Machine-readable results for the CI perf-regression gate.
  const char* json_env = std::getenv("RESIM_BENCH_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_trace_io.json";
  std::ofstream jf(json_path);
  if (!jf) {
    std::cerr << "warning: cannot write " << json_path << '\n';
  } else {
    jf << std::fixed << std::setprecision(6);
    jf << "{\n"
       << "  \"bench\": \"micro_trace_stream\",\n"
       << "  \"records\": " << t.records.size() << ",\n"
       << "  \"v2_file_bytes\": " << raw_file_bytes << ",\n"
       << "  \"v3_file_bytes\": " << lz_file_bytes << ",\n"
       << "  \"v4_file_bytes\": " << delta_file_bytes << ",\n"
       << "  \"compression_ratio\": " << ratio << ",\n"
       << "  \"delta_compression_ratio\": " << delta_ratio << ",\n"
       << "  \"identity_ok\": " << (ok ? "true" : "false") << ",\n"
       << "  \"backends\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      jf << "    {\"name\": \"" << results[i].name
         << "\", \"mrecords_per_sec\": " << results[i].mrecords_per_sec()
         << ", \"mb_per_sec\": " << results[i].mb_per_sec() << "}"
         << (i + 1 < results.size() ? ",\n" : "\n");
    }
    jf << "  ]\n}\n";
    std::cout << "wrote " << json_path << " (" << results.size() << " backends)\n";
  }

  std::remove(raw_path.c_str());
  std::remove(lz_path.c_str());
  std::remove(delta_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace resim::bench

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
  return resim::bench::run(reps > 0 ? reps : 3);
}
