// Batch-runner scaling: jobs/sec of a design-space sweep vs. worker
// thread count. Host-performance numbers (not paper results) that size
// bulk-simulation campaigns: the speedup column is what sharding a
// (config x workload) sweep across host cores buys over serial runs.
//
// Traces are prepared once and shared read-only across jobs so the
// measurement is dominated by the timing engine, the part BatchRunner
// parallelizes. Each thread count simulates the identical job list; the
// bench cross-checks that every parallel run commits exactly the same
// instruction totals as the serial baseline.
//
// Besides the table, the run is saved as machine-readable
// BENCH_sweep.json (path override: RESIM_BENCH_JSON env var) so future
// changes have a jobs/sec-vs-threads trajectory to compare against.
//
//   ./micro_batch_scaling [max_threads]   (RESIM_BENCH_INSTS budget applies)
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "driver/batch_runner.hpp"
#include "trace/writer.hpp"

int main(int argc, char** argv) {
  using namespace resim;
  using bench::inst_budget;

  // Thread points come from the host, never a hard-coded floor: forcing
  // 4 workers on a 1- or 2-core runner measures oversubscription, not
  // scaling, and produced garbage jobs/sec trajectories in CI.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned max_threads =
      argc > 1 ? static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10)) : hw;
  const std::uint64_t insts = inst_budget() / 4;

  // Job list: suite benchmarks x widths, traces shared per benchmark.
  std::vector<driver::SimJob> jobs;
  for (const auto& name : workload::suite_names()) {
    auto proto = driver::SimJob::sweep_point(name, name,
                                             core::CoreConfig::paper_4wide_perfect(),
                                             insts);
    const auto trace = std::make_shared<const trace::Trace>(
        trace::TraceGenerator(workload::make_workload(name), proto.gen).generate());
    for (unsigned width : {2u, 4u, 8u}) {
      driver::SimJob job = proto;
      job.label = name + "/w" + std::to_string(width);
      job.config.width = width;
      job.config.mem_read_ports = std::max(1u, width - 1);
      job.trace = trace;
      jobs.push_back(std::move(job));
    }
  }

  bench::print_header("batch-runner scaling: " + std::to_string(jobs.size()) +
                      " jobs (" + std::to_string(insts) +
                      " insts each), host has " + std::to_string(hw) + " cores");
  std::cout << std::left << std::setw(10) << "threads" << std::right << std::setw(12)
            << "seconds" << std::setw(12) << "jobs/s" << std::setw(12) << "speedup"
            << '\n';
  bench::print_rule(46);

  struct Point {
    unsigned threads;
    double seconds;
    double jobs_per_sec;
    double speedup;
  };
  std::vector<Point> points;

  // Powers of two up to the host core count, plus the core count itself
  // (a 6-core host measures 1, 2, 4, 6 — the saturation point matters).
  std::vector<unsigned> thread_points;
  for (unsigned t = 1; t <= max_threads; t *= 2) thread_points.push_back(t);
  if (thread_points.empty() || thread_points.back() != max_threads) {
    thread_points.push_back(max_threads);
  }

  std::uint64_t serial_committed = 0;
  double serial_jobs_per_sec = 0.0;
  for (const unsigned threads : thread_points) {
    const driver::BatchRunner runner(threads);
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = runner.run(jobs);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    std::uint64_t committed = 0;
    for (const auto& r : results) committed += r.result.committed;
    if (threads == 1) {
      serial_committed = committed;
      serial_jobs_per_sec = static_cast<double>(jobs.size()) / secs;
    } else if (committed != serial_committed) {
      std::cerr << "DETERMINISM VIOLATION: " << committed << " committed at "
                << threads << " threads vs " << serial_committed << " serial\n";
      return 1;
    }

    const double jps = static_cast<double>(jobs.size()) / secs;
    std::cout << std::left << std::setw(10) << threads << std::right << std::fixed
              << std::setprecision(3) << std::setw(12) << secs << std::setw(12) << jps
              << std::setw(11) << jps / serial_jobs_per_sec << "x\n";
    points.push_back({threads, secs, jps, jps / serial_jobs_per_sec});
  }

  // --- shared-decode fan-out: N-point same-workload sweep -------------------
  // The sweep shape the shared producer exists for: every job reads the
  // SAME compressed .rsim through the stream backend. Private decode
  // inflates the LZ + bit-unpack work by the point count; the shared
  // producer (trace/batch_cache.hpp) decodes each chunk once and fans
  // the decoded records out. The ratio is the headline decode-once win and is
  // gated in CI on multi-core hosts (tools/check_bench_regression.py).
  const std::string fan_path =
      (std::filesystem::temp_directory_path() /
       ("bench_fanout_" + std::to_string(::getpid()) + ".rsim"))
          .string();
  std::vector<driver::SimJob> fan_jobs;
  {
    auto proto = driver::SimJob::sweep_point(
        "gzip", "gzip", core::CoreConfig::paper_4wide_perfect(), insts);
    const auto trace =
        trace::TraceGenerator(workload::make_workload("gzip"), proto.gen).generate();
    trace::save_trace(trace, fan_path, trace::kDefaultChunkRecords,
                      /*compress=*/true, /*prefilter=*/true);
    for (unsigned rob : {16u, 24u, 32u, 48u}) {
      for (unsigned width : {2u, 4u}) {
        driver::SimJob job = proto;
        job.label = "gzip/r" + std::to_string(rob) + "w" + std::to_string(width);
        job.config.width = width;
        job.config.mem_read_ports = std::max(1u, width - 1);
        job.config.rob_size = rob;
        job.config.trace_backend = core::TraceBackend::kStream;
        job.trace_path = fan_path;
        fan_jobs.push_back(std::move(job));
      }
    }
  }
  bench::print_header("shared-decode fan-out: " + std::to_string(fan_jobs.size()) +
                      " same-workload jobs over one LZ+delta .rsim, " +
                      std::to_string(max_threads) + " threads");
  const driver::BatchRunner fan_runner(max_threads);
  // The private side reads per-job copies of the fan file: jobs naming
  // different files never group, so each decodes every chunk itself.
  std::vector<driver::SimJob> private_jobs = fan_jobs;
  for (std::size_t i = 0; i < private_jobs.size(); ++i) {
    private_jobs[i].trace_path = fan_path + "." + std::to_string(i);
    std::filesystem::copy_file(fan_path, private_jobs[i].trace_path,
                               std::filesystem::copy_options::overwrite_existing);
  }
  const auto fan_measure = [&](const std::vector<driver::SimJob>& measured) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = fan_runner.run(measured);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::uint64_t committed = 0;
    for (const auto& r : results) committed += r.result.committed;
    return std::pair<double, std::uint64_t>(
        static_cast<double>(measured.size()) / secs, committed);
  };
  const auto [private_jps, private_committed] = fan_measure(private_jobs);
  const auto [shared_jps, shared_committed] = fan_measure(fan_jobs);
  std::filesystem::remove(fan_path);
  for (const auto& job : private_jobs) std::filesystem::remove(job.trace_path);
  if (shared_committed != private_committed) {
    std::cerr << "DETERMINISM VIOLATION: shared decode committed " << shared_committed
              << " vs private " << private_committed << '\n';
    return 1;
  }
  const double fan_ratio = shared_jps / private_jps;
  std::cout << std::left << std::setw(10) << "private" << std::right << std::fixed
            << std::setprecision(3) << std::setw(12) << private_jps << " jobs/s\n"
            << std::left << std::setw(10) << "shared" << std::right << std::setw(12)
            << shared_jps << " jobs/s  (" << std::setprecision(2) << fan_ratio
            << "x)\n";

  // Machine-readable trajectory for perf tracking across PRs.
  const char* json_env = std::getenv("RESIM_BENCH_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_sweep.json";
  std::ofstream jf(json_path);
  if (!jf) {
    std::cerr << "warning: cannot write " << json_path << '\n';
  } else {
    jf << std::fixed << std::setprecision(6);
    jf << "{\n"
       << "  \"bench\": \"micro_batch_scaling\",\n"
       << "  \"jobs\": " << jobs.size() << ",\n"
       << "  \"insts_per_job\": " << insts << ",\n"
       << "  \"host_cores\": " << hw << ",\n"
       << "  \"total_committed\": " << serial_committed << ",\n"
       << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      jf << "    {\"threads\": " << points[i].threads
         << ", \"seconds\": " << points[i].seconds
         << ", \"jobs_per_sec\": " << points[i].jobs_per_sec
         << ", \"speedup\": " << points[i].speedup << "}"
         << (i + 1 < points.size() ? ",\n" : "\n");
    }
    jf << "  ],\n"
       << "  \"shared_decode\": {\"jobs\": " << fan_jobs.size()
       << ", \"threads\": " << max_threads
       << ", \"private_jobs_per_sec\": " << private_jps
       << ", \"shared_jobs_per_sec\": " << shared_jps
       << ", \"ratio\": " << fan_ratio << "}\n"
       << "}\n";
    std::cout << "\nwrote " << json_path << " (" << points.size() << " points)\n";
  }

  std::cout << "\n(speedup saturates at physical cores; jobs are embarrassingly\n"
               " parallel, so shortfall from linear is scheduling + memory bandwidth)\n";
  return 0;
}
