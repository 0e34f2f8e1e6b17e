// Engine-core simulation throughput: how many simulated cycles and
// committed instructions per host second the ReSimEngine cycle loop
// sustains — the software-side counterpart of the paper's MIPS-scale
// FPGA engine numbers (§V.C, Tables 1/3), and the number the
// handle-based statistics plane exists to protect: with resolve-once
// stat handles the cycle loop does plain uint64_t increments, so this
// bench measures timing logic, not bookkeeping.
//
// Grid: every suite workload x {efficient, optimized} pipeline x
// {memory, stream} trace backend, plus a ROB-size axis (gzip, optimized,
// memory, ROB 16/64/256 with an LSQ of half the ROB) that shows whether
// host cost follows the window size. Each point runs `reps` times and
// keeps the fastest (cold caches and scheduler jitter only ever slow a
// run down); every run cross-checks committed/cycle totals against the
// point's first run — backends and reps must be bit-identical (exit 1
// otherwise, and identity_ok=false lands in the JSON for the gate).
//
// Besides the table, the run is saved as machine-readable
// BENCH_engine.json (path override: RESIM_BENCH_JSON env var) with one
// entry per grid point, so the CI perf gate has Minsts/s numbers to
// compare against bench/baselines/BENCH_engine.json (docs/CI.md).
//
//   ./micro_engine_throughput [reps]   (RESIM_BENCH_INSTS sizes traces)
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "trace/file_source.hpp"
#include "trace/writer.hpp"

namespace resim::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Point {
  std::string name;
  double secs = 0;            ///< fastest rep
  std::uint64_t committed = 0;
  std::uint64_t major_cycles = 0;

  [[nodiscard]] double mcycles_per_sec() const {
    return static_cast<double>(major_cycles) / secs / 1e6;
  }
  [[nodiscard]] double minsts_per_sec() const {
    return static_cast<double>(committed) / secs / 1e6;
  }
  [[nodiscard]] double ipc() const {
    return major_cycles == 0
               ? 0.0
               : static_cast<double>(committed) / static_cast<double>(major_cycles);
  }
};

// Runs one grid point `reps` times, keeping the fastest rep. Every rep
// must commit the first rep's totals (identity_ok is cleared otherwise).
Point measure(const std::string& point_name, const core::CoreConfig& cfg,
              const trace::Trace& t, const std::string& rsim_path, const std::string& backend,
              int reps, bool& identity_ok) {
  Point p;
  p.name = point_name;
  for (int rep = 0; rep < reps; ++rep) {
    std::unique_ptr<trace::TraceSource> src;
    if (backend == "memory") {
      src = std::make_unique<trace::VectorTraceSource>(t);
    } else {
      src = std::make_unique<trace::FileTraceSource>(rsim_path);
    }
    core::ReSimEngine eng(cfg, *src);
    const auto t0 = Clock::now();
    const core::SimResult r = eng.run();
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    if (rep == 0) {
      p.committed = r.committed;
      p.major_cycles = r.major_cycles;
      p.secs = secs;
    } else {
      if (r.committed != p.committed || r.major_cycles != p.major_cycles) {
        std::cerr << "DETERMINISM VIOLATION at " << p.name << " rep " << rep << '\n';
        identity_ok = false;
      }
      if (secs < p.secs) p.secs = secs;
    }
  }
  std::cout << std::left << std::setw(30) << p.name << std::right << std::fixed
            << std::setprecision(3) << std::setw(12) << p.mcycles_per_sec() << std::setw(12)
            << p.minsts_per_sec() << std::setw(10) << p.ipc() << '\n';
  return p;
}

int run(int reps) {
  const std::uint64_t insts = inst_budget();
  bool identity_ok = true;

  const core::PipelineVariant variants[] = {core::PipelineVariant::kEfficient,
                                            core::PipelineVariant::kOptimized};
  const char* backends[] = {"memory", "stream"};
  // The ROB axis: gzip, optimized, memory backend, with an LSQ of half
  // the ROB so the window can fill (at the paper's LSQ of 8, loads and
  // stores cap a deep window at a few dozen entries).
  const unsigned rob_sizes[] = {16, 64, 256};

  bench::print_header("engine-core throughput: " + std::to_string(insts) +
                      " insts per workload, best of " + std::to_string(reps) +
                      " reps");
  std::cout << std::left << std::setw(30) << "point" << std::right << std::setw(12)
            << "Mcycles/s" << std::setw(12) << "Minsts/s" << std::setw(10) << "IPC"
            << '\n';
  bench::print_rule(64);

  std::vector<Point> points;
  for (const auto& name : workload::suite_names()) {
    // One deterministic trace per workload, paired with the default
    // (2lev) predictor exactly like SimJob::sweep_point.
    core::CoreConfig base = core::CoreConfig::paper_4wide_perfect();
    trace::TraceGenConfig g;
    g.max_insts = insts;
    g.bp = base.bp;
    g.wrong_path_block = base.wrong_path_block();
    trace::TraceGenerator gen(workload::make_workload(name), g);
    const trace::Trace t = gen.generate();
    const std::string rsim_path = std::filesystem::temp_directory_path() /
                                  ("engine_bench_" + std::to_string(getpid()) + "_" +
                                   name + ".rsim");
    trace::save_trace(t, rsim_path);

    for (const auto variant : variants) {
      core::CoreConfig cfg = base;
      cfg.variant = variant;
      for (const char* backend : backends) {
        const std::string stem = name + "/" + core::variant_name(variant);
        const Point p =
            measure(stem + "/" + backend, cfg, t, rsim_path, backend, reps, identity_ok);
        // Backend identity: same workload+variant must commit the same
        // totals on every backend.
        if (!points.empty() && points.back().name.rfind(stem + "/", 0) == 0 &&
            (points.back().committed != p.committed ||
             points.back().major_cycles != p.major_cycles)) {
          std::cerr << "IDENTITY VIOLATION at " << p.name << ": " << p.committed << "/"
                    << p.major_cycles << " vs " << points.back().committed << "/"
                    << points.back().major_cycles << '\n';
          identity_ok = false;
        }
        points.push_back(p);
      }
    }

    if (name == "gzip") {
      for (const unsigned rob : rob_sizes) {
        core::CoreConfig cfg = base;
        cfg.variant = core::PipelineVariant::kOptimized;
        cfg.rob_size = rob;
        cfg.lsq_size = rob / 2;
        points.push_back(measure(name + "/optimized/memory/rob" + std::to_string(rob), cfg, t,
                                 rsim_path, "memory", reps, identity_ok));
      }
    }
    std::filesystem::remove(rsim_path);
  }

  const char* json_env = std::getenv("RESIM_BENCH_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_engine.json";
  std::ofstream jf(json_path);
  if (!jf) {
    std::cerr << "warning: cannot write " << json_path << '\n';
  } else {
    jf << std::fixed << std::setprecision(6);
    jf << "{\n"
       << "  \"bench\": \"micro_engine_throughput\",\n"
       << "  \"insts_per_workload\": " << insts << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"identity_ok\": " << (identity_ok ? "true" : "false") << ",\n"
       << "  \"engine_points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      jf << "    {\"name\": \"" << points[i].name
         << "\", \"mcycles_per_sec\": " << points[i].mcycles_per_sec()
         << ", \"minsts_per_sec\": " << points[i].minsts_per_sec()
         << ", \"ipc\": " << points[i].ipc() << "}"
         << (i + 1 < points.size() ? ",\n" : "\n");
    }
    jf << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << " (" << points.size() << " points)\n";
  }

  return identity_ok ? 0 : 1;
}

}  // namespace
}  // namespace resim::bench

int main(int argc, char** argv) {
  int reps = 3;
  if (argc > 1) {
    const long v = std::strtol(argv[1], nullptr, 10);
    if (v >= 1 && v <= 100) reps = static_cast<int>(v);
  }
  return resim::bench::run(reps);
}
