// pb_layers — the benchmark's traced run: per-layer metrics.
//
//   pb_layers --workload NAME --deep FILE --deep-config CFG
//             --sampled FILE --sampled-config CFG --window W --warmup U
//             --windows K --pool FILE --threads N --spans FILE
//
// Times calls into the public functions of each layer (trace, core with
// its bpred/cache models, driver, serve) over the inputs run.py generated
// for the seed. Every call is wrapped in a span (layer, name, start, end,
// parent) kept in memory; when the run ends the spans are reduced to each
// layer's self time, and the time left to the benchmark's own code between
// layer calls is checked to be a small share of the traced wall time. A
// replica of the workload's own end-to-end operation runs alternately with
// tracing on and off, which gives the tracing overhead. The spans are
// written to --spans as a JSON array when the run ends. Prints one JSON
// line: metrics, the direct serve time of every pool request (run.py
// subtracts it from client latency to get the queue wait), the traced and
// untraced wall times (run.py checks them against the process's own wall
// time), output checks attempted/failed, and notes.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/result_export.hpp"
#include "driver/sampling.hpp"
#include "pool.hpp"
#include "resim/resim.hpp"
#include "serve/request.hpp"
#include "serve/trace_cache.hpp"

namespace {

using namespace resim;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Spans nest (one thread), so each span's
/// parent is the innermost span open when it started.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
  };

  bool enabled = true;

  int open(const char* layer, const char* name) {
    if (!enabled) return -1;
    spans_.push_back({layer, name, now_s(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(Tracer& t, const char* layer, const char* name) : t_(t), id_(t.open(layer, name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

Tracer g_tracer;

/// Largest share of the traced wall time the benchmark's own code may take
/// between layer calls (argument and pool parsing, result comparisons).
constexpr double kMaxUncoveredShare = 0.05;

/// Run f inside a span; returns its wall seconds (measured whether or not
/// tracing is on).
double timed(const char* layer, const char* name, const std::function<void()>& f) {
  const Scope s(g_tracer, layer, name);
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 1;
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back(what);
    }
  }
};

std::uint64_t drain(trace::TraceSource& src) {
  std::uint64_t n = 0;
  while (src.peek() != nullptr) {
    (void)src.next();
    ++n;
  }
  return n;
}

double per_kilo(std::uint64_t events, std::uint64_t committed) {
  return committed == 0 ? 0.0
                        : 1000.0 * static_cast<double>(events) / static_cast<double>(committed);
}

struct Args {
  std::map<std::string, std::string> kv;
  [[nodiscard]] const std::string& at(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::invalid_argument("missing " + k);
    return it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& k) const {
    return config::parse_u64(at(k), k);
  }
};

/// One pass over the request pool through serve::run_sim / run_sweep,
/// the functions the daemon's executor calls. Returns per-entry seconds.
std::vector<double> serve_pass(const std::vector<perfbench::PoolEntry>& pool, unsigned threads,
                               Checks& checks) {
  serve::SharedTraceCache cache;
  std::vector<double> secs;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const serve::JsonValue v = serve::parse_json(pool[i].payload);
    std::string body;
    const serve::Sink sink = [&body](std::string_view chunk) { body.append(chunk); };
    if (pool[i].sweep) {
      const serve::SweepRequest req = serve::parse_sweep_request(v);
      secs.push_back(
          timed("serve", "run_sweep", [&] { serve::run_sweep(req, threads, cache, sink); }));
    } else {
      const serve::SimRequest req = serve::parse_sim_request(v);
      secs.push_back(timed("serve", "run_sim", [&] { serve::run_sim(req, cache, sink); }));
    }
    checks.check(body == pool[i].ref,
                 "serve::run_* body differs for pool entry " + std::to_string(i));
  }
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) a.kv.insert_or_assign(argv[i], std::string(argv[i + 1]));
  std::map<std::string, Metric> m;
  Checks checks;
  std::vector<double> direct_ms;
  double traced_wall_s = 0.0;  ///< sum of the top-level spans
  double untraced_s = 0.0;     ///< the untraced replicas, outside every span
  try {
    const std::string workload = a.at("--workload");
    if (workload != "deep_rob_sim" && workload != "sampled_stream" && workload != "served_mix") {
      throw std::invalid_argument("unknown workload " + workload);
    }
    const auto threads = static_cast<unsigned>(a.u64("--threads"));
    const auto pool = perfbench::load_pool(a.at("--pool"));

    core::CoreConfig deep_cfg = core::CoreConfig::paper_4wide_perfect();
    config::load_config_file(a.at("--deep-config"), deep_cfg);
    deep_cfg.validate();
    core::CoreConfig samp_cfg = core::CoreConfig::paper_4wide_perfect();
    config::load_config_file(a.at("--sampled-config"), samp_cfg);
    (void)config::apply_sets(samp_cfg, {"bp.kind=2lev", "sample.windows=" + a.at("--windows"),
                                        "sample.window_insts=" + a.at("--window"),
                                        "sample.warmup_insts=" + a.at("--warmup")});
    samp_cfg.validate();

    const int root = g_tracer.open("bench", "pb_layers");

    // --- trace: load_trace of the deep (v2) trace ---------------------------
    trace::Trace deep;
    std::vector<double> load_s;
    for (int r = 0; r < 3; ++r) {
      load_s.push_back(
          timed("trace", "load_trace", [&] { deep = trace::load_trace(a.at("--deep")); }));
    }
    m["trace.load_s"] = {median(load_s), "s", load_s.size()};

    // --- core: detailed engine over the pre-decoded deep trace --------------
    std::map<unsigned, std::vector<double>> rate;
    std::map<unsigned, core::SimResult> res;
    std::vector<double> t256s;
    for (int r = 0; r < 3; ++r) {
      for (const unsigned rob : {16u, 256u}) {
        core::CoreConfig cfg = deep_cfg;
        cfg.rob_size = rob;
        cfg.validate();
        trace::VectorTraceSource src(deep);
        core::ReSimEngine eng(cfg, src);
        const double t = timed("core", "ReSimEngine::run", [&] { res[rob] = eng.run(); });
        rate[rob].push_back(static_cast<double>(res[rob].trace_records) / t / 1e6);
        if (rob == 256) t256s.push_back(t);
      }
    }
    const double t256 = median(t256s);
    const double r16 = median(rate[16]);
    const double r256 = median(rate[256]);
    m["core.engine_minsts_per_s.rob16"] = {r16, "Minsts/s", rate[16].size()};
    m["core.engine_minsts_per_s.rob256"] = {r256, "Minsts/s", rate[256].size()};
    m["core.rob256_over_rob16"] = {r256 / r16, "ratio", rate[256].size()};
    m["core.host_ns_per_major_cycle"] = {
        t256 * 1e9 / static_cast<double>(res[256].major_cycles), "ns", t256s.size()};
    m["core.ipc"] = {res[256].ipc(), "count", 1};

    // Simulated fingerprints of the bpred and cache models: one detailed
    // run of the deep trace under the sampled workload's machine.
    {
      trace::VectorTraceSource src(deep);
      core::ReSimEngine eng(samp_cfg, src);
      core::SimResult r;
      (void)timed("core", "ReSimEngine::run", [&] { r = eng.run(); });
      m["bpred.branch_mpki"] = {per_kilo(r.stats.value("fetch.mispredicts"), r.committed),
                                "count", 1};
      m["cache.l1d_mpki"] = {per_kilo(r.stats.value("dl1.misses"), r.committed), "count", 1};
    }
    deep = trace::Trace{};

    // --- trace: decode rates of the sampled (v4) container ------------------
    const std::string samp_path = a.at("--sampled");
    trace::Trace samp;
    std::uint64_t n_mem = 0;
    const double t_mem = timed("trace", "load_trace+drain", [&] {
      samp = trace::load_trace(samp_path);
      trace::VectorTraceSource src(samp);
      n_mem = drain(src);
    });
    std::uint64_t n_stream = 0;
    const double t_stream = timed("trace", "FileTraceSource drain", [&] {
      trace::FileTraceSource src(samp_path);
      n_stream = drain(src);
    });
    std::uint64_t n_mmap = 0;
    const double t_mmap = timed("trace", "MmapTraceSource drain", [&] {
      trace::MmapTraceSource src(samp_path);
      n_mmap = drain(src);
    });
    checks.check(n_mem == n_stream && n_mem == n_mmap, "backends drained different record counts");
    m["trace.decode_mrec_per_s.memory"] = {static_cast<double>(n_mem) / t_mem / 1e6, "Mrec/s", 1};
    m["trace.decode_mrec_per_s.stream"] = {static_cast<double>(n_stream) / t_stream / 1e6,
                                           "Mrec/s", 1};
    m["trace.decode_mrec_per_s.mmap"] = {static_cast<double>(n_mmap) / t_mmap / 1e6, "Mrec/s", 1};

    // --- core: functional warmup (bpred + caches, no pipeline) -------------
    {
      trace::VectorTraceSource src(samp);
      core::ReSimEngine eng(samp_cfg, src);
      std::uint64_t n = 0;
      const double t =
          timed("core", "functional_warmup", [&] { n = eng.functional_warmup(n_mem); });
      m["core.warmup_mrec_per_s"] = {static_cast<double>(n) / t / 1e6, "Mrec/s", 1};
    }
    samp = trace::Trace{};

    // --- driver: sampled run over the stream backend ------------------------
    {
      trace::FileTraceSource src(samp_path);
      driver::SamplingPlan plan;
      (void)timed("driver", "plan_from_config",
                  [&] { plan = driver::plan_from_config(samp_cfg, src); });
      driver::SampledResult sr;
      const double t = timed("driver", "run_sampled",
                             [&] { sr = driver::run_sampled(samp_cfg, src, plan); });
      const std::uint64_t covered = sr.detailed_records + sr.warmup_records + sr.skipped_records;
      const std::uint64_t decoded = std::min<std::uint64_t>(
          src.chunks_decoded() * trace::kDefaultChunkRecords, src.total_records());
      m["driver.sampled_s"] = {t, "s", 1};
      m["driver.sampled_detail_share"] = {sr.coverage(), "ratio", 1};
      m["trace.decoded_per_covered"] = {
          static_cast<double>(decoded) / static_cast<double>(covered), "ratio", 1};
    }

    // --- driver: the served 8-point mmap sweep, direct ----------------------
    {
      // The last pool entry is a sweep; resolve it as the daemon does, and
      // collapse the bench axis to the trace's name as serve::run_sweep does.
      if (pool.empty() || !pool.back().sweep) throw std::invalid_argument("pool ends in no sweep");
      const serve::SweepRequest req =
          serve::parse_sweep_request(serve::parse_json(pool.back().payload));
      config::SweepSpec spec = req.spec;
      spec.axes.insert(spec.axes.begin(),
                       {"bench", {trace::FileTraceSource(req.trace_path).trace_name()}});
      auto grid = driver::expand_spec(spec);
      for (auto& job : grid.jobs) job.trace_path = req.trace_path;

      double sum_one = 0.0;
      std::vector<driver::JobResult> solo;
      for (const auto& job : grid.jobs) {
        sum_one += timed("driver", "BatchRunner::run_one",
                         [&] { solo.push_back(driver::BatchRunner::run_one(job)); });
      }
      const driver::BatchRunner runner(threads);
      std::vector<driver::GroupDecodeStats> stats;
      std::vector<driver::JobResult> results;
      const double t_run = timed("driver", "BatchRunner::run",
                                 [&] { results = runner.run(grid.jobs, &stats); });
      bool same = results.size() == solo.size();
      for (std::size_t i = 0; same && i < results.size(); ++i) {
        same = driver::result_json(results[i]) == driver::result_json(solo[i]);
      }
      checks.check(same, "BatchRunner::run differs from run_one");
      std::uint64_t decoded = 0;
      std::uint64_t chunks = 0;
      for (const auto& g : stats) {
        decoded += g.chunks_decoded;
        chunks += g.chunks_in_trace;
      }
      m["driver.sweep_s"] = {t_run, "s", 1};
      m["driver.sweep_parallel_eff"] = {sum_one / (runner.threads() * t_run), "ratio", 1};
      m["trace.chunks_decoded_per_chunk"] = {
          chunks == 0 ? 0.0 : static_cast<double>(decoded) / static_cast<double>(chunks), "ratio",
          stats.size()};

      std::vector<double> export_s;
      for (int r = 0; r < 20; ++r) {
        export_s.push_back(timed("driver", "result_json+write_csv", [&] {
          std::ostringstream os;
          for (const auto& jr : results) os << driver::result_json(jr) << '\n';
          driver::write_csv(os, results);
        }));
      }
      m["driver.export_ms"] = {median(export_s) * 1e3, "ms", export_s.size()};
    }

    // --- serve: every pool request through serve::run_*, three passes -------
    {
      std::vector<std::vector<double>> per(pool.size());
      for (int r = 0; r < 3; ++r) {
        const auto secs = serve_pass(pool, threads, checks);
        for (std::size_t i = 0; i < secs.size(); ++i) per[i].push_back(secs[i]);
      }
      for (const auto& v : per) direct_ms.push_back(median(v) * 1e3);
    }

    g_tracer.close(root);

    // --- replica of the workload, tracing on and off alternately ------------
    // figure: throughput of the replica (Minsts/s, or requests/s served).
    const auto replica = [&]() -> double {
      const double t0 = now_s();
      double work = 0.0;
      if (workload == "deep_rob_sim") {
        trace::Trace t;
        (void)timed("trace", "load_trace", [&] { t = trace::load_trace(a.at("--deep")); });
        core::CoreConfig cfg = deep_cfg;
        cfg.rob_size = 256;
        cfg.validate();
        trace::VectorTraceSource src(t);
        core::ReSimEngine eng(cfg, src);
        driver::JobResult jr;
        (void)timed("core", "ReSimEngine::run", [&] { jr.result = eng.run(); });
        jr.label = jr.workload = t.name;
        jr.config = cfg;
        (void)timed("driver", "result_json", [&] { (void)driver::result_json(jr); });
        work = static_cast<double>(t.records.size()) / 1e6;
      } else if (workload == "sampled_stream") {
        std::optional<trace::FileTraceSource> src;
        (void)timed("trace", "FileTraceSource open", [&] { src.emplace(samp_path); });
        driver::SamplingPlan plan;
        (void)timed("driver", "plan_from_config",
                    [&] { plan = driver::plan_from_config(samp_cfg, *src); });
        driver::SampledResult sr;
        (void)timed("driver", "run_sampled",
                    [&] { sr = driver::run_sampled(samp_cfg, *src, plan); });
        work = static_cast<double>(sr.detailed_records + sr.warmup_records + sr.skipped_records) /
               1e6;
      } else {
        work = static_cast<double>(serve_pass(pool, threads, checks).size());
      }
      return work / (now_s() - t0);
    };

    // The traced replicas are top-level spans of their own; the untraced
    // ones run outside every span, so the traced wall time (the sum of the
    // top-level spans) holds traced work only.
    std::vector<double> on;
    std::vector<double> off;
    for (int r = 0; r < 3; ++r) {
      {
        const Scope s(g_tracer, "bench", "replica");
        on.push_back(replica());
      }
      g_tracer.enabled = false;
      const double t0 = now_s();
      off.push_back(replica());
      untraced_s += now_s() - t0;
      g_tracer.enabled = true;
    }
    const double traced_fig = median(on);
    const double untraced_fig = median(off);
    m["tracing.overhead_pct"] = {100.0 * (untraced_fig - traced_fig) / untraced_fig, "%",
                                 on.size()};
    checks.notes.push_back("replica " + workload + ": traced " + std::to_string(traced_fig) +
                           ", untraced " + std::to_string(untraced_fig) +
                           (workload == "served_mix" ? " requests/s" : " Minsts/s"));

    // --- reduce spans to self times -----------------------------------------
    // Self times partition the traced wall time by construction; what can
    // fail is the share left to the benchmark's own code between layer
    // calls ("bench" self time), checked against kMaxUncoveredShare.
    const auto& spans = g_tracer.spans();
    std::vector<double> child(spans.size(), 0.0);
    double wall = 0.0;
    for (const auto& s : spans) {
      if (s.parent < 0) {
        wall += s.t1 - s.t0;
      } else {
        child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].layer] += spans[i].t1 - spans[i].t0 - child[i];
    }
    for (const char* layer : {"trace", "core", "driver", "serve"}) {
      m[std::string("self_s.") + layer] = {self[layer], "s", 1};
    }
    const double uncovered = self["bench"] / wall;
    m["tracing.uncovered_share"] = {uncovered, "ratio", spans.size()};
    m["tracing.wall_s"] = {wall, "s", 1};
    checks.check(uncovered <= kMaxUncoveredShare,
                 "layer calls cover only " + std::to_string(1.0 - uncovered) +
                     " of the traced wall time");
    {
      std::ofstream f(a.at("--spans"));
      f.precision(12);
      f << "[";
      for (std::size_t i = 0; i < spans.size(); ++i) {
        f << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"parent\": " << spans[i].parent
          << ", \"layer\": \"" << spans[i].layer << "\", \"name\": \""
          << driver::json_escape(spans[i].name) << "\", \"start_s\": " << spans[i].t0 - spans[0].t0
          << ", \"end_s\": " << spans[i].t1 - spans[0].t0 << "}";
      }
      f << "\n]\n";
      checks.check(static_cast<bool>(f), "cannot write " + a.at("--spans"));
    }
    traced_wall_s = wall;
    checks.notes.push_back("traced wall " + std::to_string(wall) + " s in " +
                           std::to_string(spans.size()) + " spans; untraced replicas " +
                           std::to_string(untraced_s) + " s");
  } catch (const std::exception& e) {
    std::cerr << "pb_layers: " << e.what() << '\n';
    return 1;
  }

  std::ostringstream out;
  out.precision(12);
  out << "{\"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : m) {
    out << (first ? "" : ", ") << '"' << name << "\": [" << v.value << ", \"" << v.unit << "\", "
        << v.n << ']';
    first = false;
  }
  out << "}, \"direct_ms\": [";
  for (std::size_t i = 0; i < direct_ms.size(); ++i) out << (i == 0 ? "" : ", ") << direct_ms[i];
  out << "], \"traced_wall_s\": " << traced_wall_s << ", \"untraced_s\": " << untraced_s
      << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
      << ", \"notes\": [";
  for (std::size_t i = 0; i < checks.notes.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << driver::json_escape(checks.notes[i]) << '"';
  }
  out << "]}";
  std::cout << out.str() << '\n';
  return 0;
}
