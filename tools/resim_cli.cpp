// resim_cli — command-line front end, SimpleScalar-style.
//
//   resim_cli gen   --bench gzip --insts 1000000 --out gzip.rsim [--bp 2lev]
//                   [--chunk N] [--compress] [--prefilter]
//   resim_cli sim   --trace gzip.rsim [--config FILE] [--set key=value]...
//                   [--width 4 --rob 16 --lsq 8] [--variant optimized]
//                   [--mem perfect|l1|l2] [--bp 2lev|...] [--device xc4vlx40]
//                   [--report] [--json FILE]
//                   [--backend memory|stream|mmap] [--stream]
//                   [--skip N --warmup N --max-records N]
//                   [--intervals FILE] [--plan FILE]
//   resim_cli stats --trace gzip.rsim [--backend memory|stream|mmap]
//   resim_cli sweep --spec FILE [-j N] [--config FILE] [--set k=v]...
//                   [--out FILE | --resume FILE] [--json FILE] [--csv-full FILE]
//                   [--decode-stats FILE]
//   resim_cli params [--config FILE] [--set k=v]... [--save FILE] [--markdown]
//   resim_cli serve --socket PATH [--tcp PORT] [-j N] [--config FILE]
//                   [--set k=v]... [--protocol-markdown]
//   resim_cli client (--socket PATH | --tcp PORT) [--id ID] [--out FILE]
//                   (--ping | --status | --shutdown | --sim ... | --sweep ...)
//   resim_cli schedule --variant optimized --width 4
//   resim_cli vhdl  --out dir [--pht 4096 --hist 8 --btb 512 --ras 16]
//
// Every simulated-machine knob is a ParamRegistry dotted path
// (docs/CONFIG.md): --config loads a key=value file, --set overrides a
// single parameter, and the legacy shorthand flags (--width, --rob, ...)
// remain as aliases. Precedence: defaults < --config < shorthand flags
// < --set (left to right).
#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <atomic>
#include <csignal>

#include "config/config_file.hpp"
#include "config/names.hpp"
#include "config/param_registry.hpp"
#include "config/sweep_spec.hpp"
#include "core/cmp.hpp"
#include "core/interval.hpp"
#include "driver/result_export.hpp"
#include "driver/sampling.hpp"
#include "driver/sweep_grid.hpp"
#include "resim/resim.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace resim;

struct Args {
  std::map<std::string, std::string> kv;  ///< last occurrence wins
  std::vector<std::string> sets;          ///< every --set, in order
};

// A flag token is "--name" or a short "-x" (exactly one character, so
// values like "-results.csv" or "-3" still parse as values).
bool is_flag_token(const std::string& s) {
  if (s.rfind("--", 0) == 0) return s.size() > 2;
  return s.size() == 2 && s[0] == '-' && std::isalpha(static_cast<unsigned char>(s[1]));
}

/// The only flags that take no value; every other flag requires one.
bool is_boolean_flag(const std::string& key) {
  return key == "report" || key == "stream" || key == "markdown" ||
         key == "compress" || key == "prefilter" || key == "protocol-markdown" ||
         key == "sim" || key == "sweep" || key == "ping" || key == "status" ||
         key == "shutdown";
}

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string tok = argv[i];
    if (!is_flag_token(tok)) {
      throw std::invalid_argument("expected --flag, got: " + tok);
    }
    const std::string key = tok.substr(tok.rfind("--", 0) == 0 ? 2 : 1);
    // insert_or_assign with an explicit std::string sidesteps GCC 12's
    // -Wrestrict false positive on map::operator[] + char* assign at -O3.
    if (is_boolean_flag(key)) {
      args.kv.insert_or_assign(key, std::string("1"));
    } else if (i + 1 < argc && !is_flag_token(argv[i + 1])) {
      if (key == "set") {
        args.sets.emplace_back(argv[++i]);
      } else {
        args.kv.insert_or_assign(key, std::string(argv[++i]));
      }
    } else {
      throw std::invalid_argument("flag " + tok + " requires a value");
    }
  }
  return args;
}

std::string get(const Args& a, const std::string& key, const std::string& def) {
  const auto it = a.kv.find(key);
  return it == a.kv.end() ? def : it->second;
}

bool has(const Args& a, const std::string& key) { return a.kv.count(key) != 0; }

std::uint64_t get_u64(const Args& a, const std::string& key, std::uint64_t def) {
  const auto it = a.kv.find(key);
  return it == a.kv.end() ? def : config::parse_u64(it->second, "--" + key);
}

/// Resolve the simulated-machine configuration:
/// paper_4wide_perfect defaults, then --config FILE, then the legacy
/// shorthand flags, then --set overrides; validate() last so cross-field
/// constraints judge the final configuration.
core::CoreConfig config_from(const Args& a) {
  core::CoreConfig cfg = core::CoreConfig::paper_4wide_perfect();
  // Declarative mode (--config / --set) disables the legacy "scale the
  // IFQ and memory ports with --width" conveniences: a config file or
  // --set names every value it wants, and silently rewriting one of its
  // parameters behind its back would make files non-reproducible.
  const bool declarative = has(a, "config") || !a.sets.empty();
  if (has(a, "config")) config::load_config_file(get(a, "config", ""), cfg);

  if (has(a, "width")) cfg.width = static_cast<unsigned>(get_u64(a, "width", 0));
  if (has(a, "rob")) cfg.rob_size = static_cast<unsigned>(get_u64(a, "rob", 0));
  if (has(a, "lsq")) cfg.lsq_size = static_cast<unsigned>(get_u64(a, "lsq", 0));
  if (has(a, "ifq")) cfg.ifq_size = static_cast<unsigned>(get_u64(a, "ifq", 0));
  if (has(a, "ports")) cfg.mem_read_ports = static_cast<unsigned>(get_u64(a, "ports", 0));
  if (has(a, "variant")) cfg.variant = config::variant_of(get(a, "variant", ""));
  if (has(a, "bp")) cfg.bp.kind = config::dir_kind_of(get(a, "bp", ""));
  if (has(a, "mem")) cfg.mem = config::memsys_of(get(a, "mem", ""));
  // --stream is shorthand for --backend stream (the pre-backend flag).
  if (has(a, "stream")) cfg.trace_backend = core::TraceBackend::kStream;
  if (has(a, "backend")) cfg.trace_backend = config::trace_backend_of(get(a, "backend", ""));

  if (!declarative) {
    if (!has(a, "ifq")) cfg.ifq_size = std::max(cfg.ifq_size, cfg.width);
    if (!has(a, "ports")) cfg.mem_read_ports = std::max(1u, cfg.width - 1);
  }

  config::apply_sets(cfg, a.sets);
  cfg.validate();
  return cfg;
}

int cmd_gen(const Args& a) {
  const std::string bench = get(a, "bench", "gzip");
  const std::string out = get(a, "out", bench + ".rsim");
  trace::TraceGenConfig g;
  g.max_insts = get_u64(a, "insts", 1'000'000);
  g.bp.kind = config::dir_kind_of(get(a, "bp", "2lev"));
  const std::uint64_t chunk = get_u64(a, "chunk", trace::kDefaultChunkRecords);
  if (chunk == 0 || chunk > trace::kMaxChunkRecords) {
    // Guard before any work: chunk_records sizes every chunk-count
    // division downstream, so 0 must die here, loudly, not as a
    // divide-by-zero or a headerless file.
    throw std::invalid_argument("--chunk: must be in [1, " +
                                std::to_string(trace::kMaxChunkRecords) + "]");
  }
  trace::TraceGenerator gen(workload::make_workload(bench), g);
  const trace::Trace t = gen.generate();
  const bool compress = has(a, "compress");
  const bool prefilter = has(a, "prefilter");
  if (prefilter && !compress) {
    throw std::invalid_argument("--prefilter requires --compress (the delta "
                                "filter feeds the LZ stage; docs/TRACE_FORMAT.md)");
  }
  trace::save_trace(t, out, static_cast<std::uint32_t>(chunk), compress, prefilter);
  std::cout << "wrote " << out << ": " << trace::analyze(t).summary() << '\n';
  if (compress) {
    // Ratio defined exactly as the CI gate and the benches define it:
    // the bytes an uncompressed v2 container of this trace would take,
    // over the v3/v4 file actually written.
    std::uint64_t v2_bytes = 4 + 4 + 4 + t.name.size() + 8 + 8 + 4 + 4;
    for (std::uint64_t first = 0; first < t.records.size(); first += chunk) {
      const std::uint64_t n = std::min<std::uint64_t>(chunk, t.records.size() - first);
      std::uint64_t bits = 0;
      for (std::uint64_t i = 0; i < n; ++i) bits += trace::encoded_bits(t.records[first + i]);
      v2_bytes += 8 + (bits + 7) / 8;  // chunk header + byte-aligned payload
    }
    const auto file_bytes = std::filesystem::file_size(out);
    std::cout << "compressed (container v" << (prefilter ? 4 : 3) << "): "
              << file_bytes << " bytes on disk vs "
              << v2_bytes << " uncompressed (v2), "
              << static_cast<double>(v2_bytes) / static_cast<double>(file_bytes)
              << "x smaller\n";
  }
  return 0;
}

int cmd_stats(const Args& a) {
  // stats itself is configuration-independent, but --config/--set are
  // still resolved and validated so the command doubles as a config
  // checker next to a trace inspection. The resolved trace.backend also
  // drives how this very inspection reads the file.
  const auto cfg = config_from(a);
  const std::string path = get(a, "trace", "trace.rsim");
  std::string name;
  trace::TraceStats s;
  if (cfg.trace_backend == core::TraceBackend::kMemory) {
    const trace::Trace t = trace::load_trace(path);
    name = t.name;
    s = trace::analyze(t);
  } else {
    // Constant-memory pass: one decoded chunk at a time.
    const auto src = driver::open_trace_file(path, cfg.trace_backend);
    name = src->trace_name();
    s = trace::analyze(*src);
  }
  std::cout << name << ": " << s.summary() << '\n'
            << "  loads " << s.load_records << ", stores " << s.store_records
            << ", branches " << s.branch_records << '\n'
            << "  branch fraction " << s.branch_fraction() << ", mem fraction "
            << s.mem_fraction() << '\n';
  return 0;
}

int cmd_sim(const Args& a) {
  const std::string path = get(a, "trace", "trace.rsim");
  const auto cfg = config_from(a);

  const std::uint64_t skip = get_u64(a, "skip", 0);
  const std::uint64_t warmup = get_u64(a, "warmup", 0);
  const bool windowed = skip != 0 || warmup != 0 || has(a, "max-records");
  // --max-records caps the TOTAL simulated window (warm-up included), so
  // the flag means what it says.
  const std::uint64_t max_records = has(a, "max-records")
                                        ? get_u64(a, "max-records", 0)
                                        : trace::SegmentedTraceSource::kAll;
  if (max_records < warmup) {  // kAll compares greater than any warmup
    throw std::invalid_argument(
        "--max-records caps the total window (warm-up included) and must be >= --warmup");
  }

  // trace.backend (--backend, or the --stream shorthand) picks how the
  // file is read: decoded up front (memory), or one chunk at a time by
  // the file reader, through read() in O(chunk) RSS (stream) or from a
  // mapping (mmap). All three produce bit-identical SimResults.
  trace::Trace t;
  std::optional<trace::VectorTraceSource> vec;
  std::unique_ptr<trace::FileTraceSource> file;
  std::string name;
  trace::TraceSource* base = nullptr;
  if (cfg.trace_backend == core::TraceBackend::kMemory) {
    t = trace::load_trace(path);
    name = t.name;
    vec.emplace(t);
    base = &*vec;
  } else {
    file = driver::open_trace_file(path, cfg.trace_backend);
    name = file->trace_name();
    base = file.get();
  }
  // Sampled execution (sample.windows > 0 or --plan FILE) replaces the
  // single --skip/--warmup window with the plan's own windows.
  const bool sampled = cfg.sample.windows > 0 || has(a, "plan");
  if (sampled && windowed) {
    throw std::invalid_argument(driver::kWindowedSamplingError);
  }
  if (has(a, "intervals") && cfg.sample.interval_insts == 0) {
    throw std::invalid_argument(
        "--intervals needs an interval length: --set sample.interval_insts=N");
  }
  core::IntervalRecorder intervals(cfg.sample.interval_insts);
  core::IntervalRecorder* irec = cfg.sample.interval_insts > 0 ? &intervals : nullptr;

  // One region: fast-forward past the skip (whole chunks seeked unread
  // on the file backends), then one segment of warm-up + measured records.
  std::optional<trace::SegmentedTraceSource> win;
  if (windowed) {
    win.emplace(*base);
    (void)win->skip_gap(skip);
    win->open_segment(max_records);
  }
  trace::TraceSource& src = win ? static_cast<trace::TraceSource&>(*win) : *base;

  const unsigned sched_latency =
      core::PipelineSchedule::make(cfg.variant, cfg.width).latency();
  core::SimResult r;
  std::uint64_t effective_records = 0;  ///< incl. skipped/warmup (stderr Minsts/s)
  const auto wall0 = std::chrono::steady_clock::now();
  if (sampled) {
    const driver::SamplingPlan plan =
        has(a, "plan") ? driver::SamplingPlan::from_file(get(a, "plan", ""),
                                                         base->total_records(),
                                                         cfg.sample.window_insts,
                                                         cfg.sample.warmup_insts)
                       : driver::plan_from_config(cfg, *base);
    const driver::SampledResult sr = driver::run_sampled(cfg, *base, plan, irec);
    r = sr.result;
    effective_records = sr.detailed_records + sr.warmup_records + sr.skipped_records;

    std::cout << "trace " << name << ": sampled " << sr.windows.size() << " windows x "
              << plan.window_records << " records (warmup " << plan.warmup_records
              << "), " << 100.0 * sr.coverage() << "% of " << plan.total_records
              << " records in detail\n"
              << "engine: " << core::variant_name(cfg.variant) << " pipeline, "
              << sched_latency << " minors/major\n"
              << "sampled: detailed " << sr.detailed_records << " records, warmup "
              << sr.warmup_records << ", chunk-skipped " << sr.skipped_records
              << " unread\n"
              << "estimate ipc " << sr.ipc.mean << " +/- " << sr.ipc.ci95
              << " (95% CI over " << sr.windows.size() << " windows)\n"
              << "estimate mpki " << sr.mpki.mean << " +/- " << sr.mpki.ci95 << '\n'
              << "estimate branch_mpki " << sr.branch_mpki.mean << " +/- "
              << sr.branch_mpki.ci95 << '\n';
  } else {
    core::ReSimEngine eng(cfg, src);
    eng.attach_interval_recorder(irec);
    std::uint64_t warm_committed = 0;
    std::uint64_t warm_cycles = 0;
    if (win && warmup > 0) {
      // ChampSim-style region run: snapshot at the warm-up boundary so the
      // measured region's IPC excludes cold-start transients.
      while (win->records_consumed() < warmup && win->peek() != nullptr &&
             eng.step_major_cycle()) {
      }
      const auto w = eng.result();
      warm_committed = w.committed;
      warm_cycles = w.major_cycles;
      while (eng.step_major_cycle()) {
      }
      r = eng.result();
    } else {
      while (eng.step_major_cycle()) {
      }
      r = eng.result();
    }
    eng.flush_intervals();
    effective_records = skip + r.trace_records;

    const auto& dev = fpga::device_by_name(get(a, "device", "xc4vlx40"));
    const auto rpt = core::fpga_throughput(r, dev.minor_clock_mhz, eng.schedule().latency());

    std::cout << "trace " << name << ": committed " << r.committed << " insts, "
              << r.major_cycles << " cycles, IPC " << r.ipc() << '\n'
              << "engine: " << core::variant_name(cfg.variant) << " pipeline, "
              << eng.schedule().latency() << " minors/major, " << r.minor_cycles
              << " minor cycles\n"
              << dev.name << ": " << rpt.mips << " MIPS ("
              << rpt.mips_processed << " incl. wrong path), trace feed "
              << rpt.trace_mbytes_per_sec << " MB/s\n";
    if (windowed) {
      std::cout << "window: skipped " << skip << " records, warm-up " << warmup
                << ", simulated " << r.trace_records << " records\n";
      if (file) {
        std::cout << "window: chunk-skip seek jumped " << file->chunks_skipped()
                  << " chunks unread\n";
      }
    }
    if (win && warmup > 0) {
      if (win->records_consumed() < warmup) {
        std::cout << "warning: trace ended during warm-up (" << win->records_consumed()
                  << " of " << warmup << " records); no measured region\n";
      } else {
        const auto m_committed = r.committed - warm_committed;
        const auto m_cycles = r.major_cycles - warm_cycles;
        std::cout << "measured region (post warm-up): committed " << m_committed
                  << " in " << m_cycles << " cycles, IPC "
                  << (m_cycles == 0 ? 0.0
                                    : static_cast<double>(m_committed) /
                                          static_cast<double>(m_cycles))
                  << '\n';
      }
    }
  }
  // Effective host throughput counts every record the run got past —
  // skipped, warmed and simulated — so sampling wins are visible from
  // the CLI. On stderr: the stdout report is a byte-identity surface
  // (CI gates), and wall-clock timing is never reproducible.
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  if (wall_s > 0.0) {
    std::cerr << "timing: " << static_cast<double>(effective_records) / wall_s / 1e6
              << " effective Minsts/s (" << effective_records << " records incl. "
                 "skipped/warmup in " << wall_s << " s)\n";
  }
  if (has(a, "intervals")) {
    const std::string ipath = get(a, "intervals", "");
    std::ofstream f(ipath);
    if (!f) throw std::runtime_error("cannot open output file: " + ipath);
    const bool as_json =
        ipath.size() >= 5 && ipath.compare(ipath.size() - 5, 5, ".json") == 0;
    if (as_json) {
      driver::write_intervals_json(f, intervals.rows(), cfg.sample.interval_insts);
    } else {
      driver::write_intervals_csv(f, intervals.rows());
    }
    std::cout << "intervals: wrote " << intervals.rows().size() << " x "
              << cfg.sample.interval_insts << "-inst rows to " << ipath << '\n';
  }
  if (has(a, "report")) {
    std::cout << "\n-- statistics --\n" << r.stats.report();
  }
  if (has(a, "json")) {
    driver::JobResult jr;
    jr.label = name;
    jr.workload = name;
    jr.config = cfg;
    jr.result = std::move(r);
    std::ofstream f(get(a, "json", ""));
    if (!f) throw std::runtime_error("cannot open output file: " + get(a, "json", ""));
    f << driver::result_json(jr) << '\n';
  }
  return 0;
}

/// The legacy flag-driven sweep as a SweepSpec: same axes, same nesting
/// order, same labels — expand_spec reproduces the old loop nest's CSV
/// byte for byte. An implicit (defaulted) axis whose parameter the user
/// pinned with --config/--set collapses to the pinned value — the
/// default must not silently override an explicit request; an axis flag
/// given explicitly still wins, like a spec axis does.
config::SweepSpec legacy_sweep_spec(const Args& a, const core::CoreConfig& base,
                                    const std::vector<std::string>& pinned) {
  config::SweepSpec spec;
  spec.base = base;
  const auto& reg = config::ParamRegistry::instance();
  const auto axis = [&](const char* flag, const char* path,
                        const char* dflt) -> config::SweepAxis {
    if (!has(a, flag) &&
        std::find(pinned.begin(), pinned.end(), path) != pinned.end()) {
      return {path, {reg.get(base, path)}};
    }
    return {path, config::split_list(get(a, flag, dflt), std::string("--") + flag)};
  };
  spec.axes = {
      {"bench", config::split_list(get(a, "bench", "gzip"), "--bench")},
      axis("variants", "pipeline.variant", "optimized"),
      axis("widths", "core.width", "2,4,8"),
      axis("robs", "core.rob_size", "16"),
      axis("bps", "bp.kind", "2lev"),
  };
  return spec;
}

// Cross-product design-space sweep sharded across host cores
// (driver::BatchRunner). Output is a CSV, byte-identical for any -j.
// The grid comes from a sweep-spec file (--spec, docs/CONFIG.md) or the
// legacy axis flags; both paths expand through driver::expand_spec.
int cmd_sweep(const Args& a) {
  core::CoreConfig base = core::CoreConfig::paper_4wide_perfect();
  // Parameters named explicitly on the command line (config file or
  // --set) are pinned: expansion's width-linked derivations must not
  // silently rewrite them.
  std::vector<std::string> cli_pinned;
  if (has(a, "config")) config::load_config_file(get(a, "config", ""), base, &cli_pinned);
  // --backend (and the --stream shorthand) slots in at legacy-flag
  // precedence: above --config, below --set.
  if (has(a, "stream")) base.trace_backend = core::TraceBackend::kStream;
  if (has(a, "backend")) {
    base.trace_backend = config::trace_backend_of(get(a, "backend", ""));
  }
  if (has(a, "stream") || has(a, "backend")) cli_pinned.push_back("trace.backend");
  for (const auto& key : config::apply_sets(base, a.sets)) cli_pinned.push_back(key);

  config::SweepSpec spec;
  if (has(a, "spec")) {
    for (const char* legacy : {"bench", "variants", "widths", "robs", "bps"}) {
      if (has(a, legacy)) {
        throw std::invalid_argument(std::string("--") + legacy +
                                    " conflicts with --spec (axes come from the spec)");
      }
    }
    spec = config::load_sweep_spec_file(get(a, "spec", ""), base);
    // The spec's own `set` lines landed on top of the CLI overlays;
    // re-apply --set so its documented highest precedence holds.
    (void)config::apply_sets(spec.base, a.sets);
  } else {
    spec = legacy_sweep_spec(a, base, cli_pinned);
  }
  spec.pinned.insert(spec.pinned.end(), cli_pinned.begin(), cli_pinned.end());
  if (has(a, "insts")) spec.insts = get_u64(a, "insts", 0);

  // --trace FILE sweeps configurations over one prepared trace instead
  // of generating per job (driver::expand_trace_sweep). Generated jobs
  // under a non-memory backend round-trip a temp .rsim inside the
  // runner.
  const std::string trace_file = get(a, "trace", "");
  auto grid = driver::expand_trace_sweep(spec, trace_file, [&trace_file] {
    return std::make_shared<const trace::Trace>(trace::load_trace(trace_file));
  });

  // --resume FILE: the grid points whose complete label row already
  // exists in FILE are skipped; the rest run in batches, each batch
  // appended and flushed as it completes, so an interrupted resume run
  // itself leaves its finished rows behind for the next attempt. The
  // file's header must match the header this sweep would write (same
  // axes/extra columns), otherwise resuming is refused; rows truncated
  // by a crash are dropped from the file and their points re-run.
  const std::string resume = get(a, "resume", "");
  std::size_t resumed_skipped = 0;
  if (!resume.empty()) {
    if (has(a, "out")) {
      throw std::invalid_argument("--resume names the output CSV itself; drop --out");
    }
    if (has(a, "json") || has(a, "csv-full")) {
      // These exports would cover only the points run in THIS invocation
      // and silently pass for a full-grid export; run them on the
      // completed CSV's grid without --resume instead.
      throw std::invalid_argument("--resume cannot export --json/--csv-full "
                                  "(they would hold only the resumed subset)");
    }
    driver::ResumeState st;
    {
      std::ifstream existing(resume);
      if (existing) {
        st = driver::parse_resume_csv(existing, driver::csv_header(grid.extra_csv_paths));
      }
    }
    if (st.dropped != 0) {
      std::cerr << "resume: dropped " << st.dropped
                << " malformed row(s) (interrupted write?); those points re-run\n";
    }
    std::map<std::string, std::size_t> done;  // label -> row index
    for (std::size_t i = 0; i < st.labels.size(); ++i) done.emplace(st.labels[i], i);
    // A row only counts as done if its configuration columns match what
    // this sweep would write for that label — a row from a sweep whose
    // --config/--set landed in a config column is stale, re-run and
    // replaced. Parameters with no CSV column (--insts, cache geometry,
    // FU latencies, ...) cannot be cross-checked: warn so the caller
    // knows resume assumes the same invocation for those.
    std::vector<std::string> unchecked;
    for (const auto& p : spec.pinned) {
      static const char* const kColumnBacked[] = {
          "pipeline.variant", "core.width",    "core.ifq_size", "core.rob_size",
          "core.lsq_size",    "bp.kind",       "mem.perfect",   "mem.with_l2",
          "trace.backend",  // no column, but cannot change results
      };
      const bool covered =
          std::any_of(std::begin(kColumnBacked), std::end(kColumnBacked),
                      [&](const char* c) { return p == c; }) ||
          std::find(grid.extra_csv_paths.begin(), grid.extra_csv_paths.end(), p) !=
              grid.extra_csv_paths.end();
      if (!covered) unchecked.push_back(p);
    }
    if (!unchecked.empty()) {
      std::cerr << "resume: warning: no CSV column records";
      for (const auto& p : unchecked) std::cerr << ' ' << p;
      std::cerr << "; rows cannot be cross-checked against those overrides — "
                   "resume with the same values\n";
    }
    const std::size_t cfg_fields = driver::csv_config_fields(grid.extra_csv_paths);
    std::set<std::size_t> stale_rows;
    std::vector<driver::SimJob> pending;
    pending.reserve(grid.jobs.size());
    for (auto& job : grid.jobs) {
      const auto it = done.find(job.label);
      if (it != done.end() &&
          driver::csv_field_prefix(st.rows[it->second], cfg_fields) ==
              driver::csv_config_prefix(job, grid.extra_csv_paths, cfg_fields)) {
        ++resumed_skipped;
      } else {
        if (it != done.end()) stale_rows.insert(it->second);
        pending.push_back(std::move(job));
      }
    }
    if (!stale_rows.empty()) {
      std::cerr << "resume: " << stale_rows.size() << " row(s) in " << resume
                << " have different configuration columns than this sweep writes; "
                   "re-running those points\n";
    }
    grid.jobs = std::move(pending);
    // Rewrite header + surviving rows (drops any truncated tail or stale
    // row and guarantees the file ends in a newline before appending).
    // Written to a temp file and renamed over the original so a crash
    // mid-rewrite cannot lose the completed rows --resume exists to keep.
    const std::string tmp = resume + ".tmp";
    {
      std::ofstream f(tmp);
      if (!f) throw std::runtime_error("cannot open output file: " + tmp);
      f << driver::csv_header(grid.extra_csv_paths) << '\n';
      for (std::size_t i = 0; i < st.rows.size(); ++i) {
        if (stale_rows.count(i) == 0) f << st.rows[i] << '\n';
      }
      f.flush();
      if (!f) throw std::runtime_error("write failed: " + tmp);
    }
    std::filesystem::rename(tmp, resume);
  }

  const driver::BatchRunner runner(static_cast<unsigned>(get_u64(a, "j", 1)));
  // --decode-stats FILE: per-group decode-work accounting (chunks in the
  // trace vs decode events) as JSON. A side channel on purpose — the
  // CSV/JSON result exports stay byte-identical with sharing on or off,
  // so decode counters must never appear in them. Consumed by
  // tools/check_decode_once.py in CI.
  const bool want_decode_stats = has(a, "decode-stats");
  std::vector<driver::GroupDecodeStats> decode_stats;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<driver::JobResult> results;
  std::size_t appended = 0;
  if (!resume.empty()) {
    // Checkpointed execution: batches of jobs, each appended + flushed on
    // completion, then freed — a resumable sweep is exactly the kind too
    // big to hold every result in memory. A kill between batches loses
    // at most one batch.
    std::ofstream f(resume, std::ios::app);
    if (!f) throw std::runtime_error("cannot open output file: " + resume);
    const std::size_t batch = std::max<std::size_t>(16, runner.threads() * 4);
    for (std::size_t first = 0; first < grid.jobs.size(); first += batch) {
      const auto last = std::min(grid.jobs.size(), first + batch);
      const auto b = grid.jobs.begin();
      const std::vector<driver::SimJob> slice(
          std::make_move_iterator(b + static_cast<std::ptrdiff_t>(first)),
          std::make_move_iterator(b + static_cast<std::ptrdiff_t>(last)));
      std::vector<driver::GroupDecodeStats> batch_stats;
      const auto part =
          runner.run(slice, want_decode_stats ? &batch_stats : nullptr);
      for (const auto& r : part) f << driver::csv_row(r, grid.extra_csv_paths) << '\n';
      f.flush();
      appended += part.size();
      decode_stats.insert(decode_stats.end(), batch_stats.begin(), batch_stats.end());
    }
  } else {
    results = runner.run(grid.jobs, want_decode_stats ? &decode_stats : nullptr);
  }
  const double secs = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();

  const std::string out = get(a, "out", "");
  if (resume.empty()) {
    if (out.empty()) {
      driver::write_csv(std::cout, results, grid.extra_csv_paths);
    } else {
      std::ofstream f(out);
      if (!f) throw std::runtime_error("cannot open output file: " + out);
      driver::write_csv(f, results, grid.extra_csv_paths);
    }
  } else {
    std::cerr << "resume: " << resumed_skipped << " grid point(s) already in " << resume
              << ", " << appended << " appended\n";
  }
  if (has(a, "json")) {
    std::ofstream f(get(a, "json", ""));
    if (!f) throw std::runtime_error("cannot open output file: " + get(a, "json", ""));
    driver::write_json(f, results);
  }
  if (has(a, "csv-full")) {
    std::ofstream f(get(a, "csv-full", ""));
    if (!f) throw std::runtime_error("cannot open output file: " + get(a, "csv-full", ""));
    driver::write_config_csv(f, results);
  }
  if (want_decode_stats) {
    const std::string path = get(a, "decode-stats", "");
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot open output file: " + path);
    f << "{\n  \"threads\": " << runner.threads() << ",\n  \"jobs\": "
      << grid.jobs.size() << ",\n  \"groups\": [";
    for (std::size_t i = 0; i < decode_stats.size(); ++i) {
      const auto& g = decode_stats[i];
      f << (i == 0 ? "\n" : ",\n") << "    {\"workload\": \""
        << driver::json_escape(g.workload) << "\", \"members\": " << g.members
        << ", \"consumers\": " << g.consumers
        << ", \"chunks_in_trace\": " << g.chunks_in_trace
        << ", \"chunks_decoded\": " << g.chunks_decoded
        << ", \"cache_hits\": " << g.cache_hits
        << ", \"cache_evictions\": " << g.cache_evictions << "}";
    }
    f << (decode_stats.empty() ? "]\n" : "\n  ]\n") << "}\n";
    if (!f) throw std::runtime_error("write failed: " + path);
  }
  std::cerr << "sweep: " << grid.jobs.size() << " configs, " << runner.threads()
            << " threads, " << secs << " s ("
            << static_cast<double>(grid.jobs.size()) / secs << " jobs/s)\n";
  return 0;
}

/// List every registry parameter with its current value (after --config
/// and --set), or save the resolved configuration as a config file.
int cmd_params(const Args& a) {
  const auto& reg = config::ParamRegistry::instance();
  core::CoreConfig cfg = core::CoreConfig::paper_4wide_perfect();
  if (has(a, "config")) config::load_config_file(get(a, "config", ""), cfg);
  config::apply_sets(cfg, a.sets);
  cfg.validate();

  if (has(a, "save")) {
    config::save_config_file(get(a, "save", ""), cfg);
    std::cout << "wrote " << reg.params().size() << " parameters to "
              << get(a, "save", "") << '\n';
    return 0;
  }
  if (has(a, "markdown")) {
    std::cout << reg.markdown_table();
    return 0;
  }
  for (const auto& p : reg.params()) {
    std::ostringstream line;
    line << p.path << " = " << reg.format(p, cfg);
    std::cout << std::left << std::setw(40) << line.str() << " # [" << p.type_name()
              << "] " << p.doc;
    const std::string c = p.constraint_doc();
    if (!c.empty()) std::cout << " (" << c << ")";
    std::cout << '\n';
  }
  return 0;
}

int cmd_schedule(const Args& a) {
  const auto s = core::PipelineSchedule::make(
      config::variant_of(get(a, "variant", "optimized")),
      static_cast<unsigned>(get_u64(a, "width", 4)));
  std::cout << s.render();
  return 0;
}

int cmd_vhdl(const Args& a) {
  bpred::BPredConfig cfg = bpred::BPredConfig::paper_default();
  cfg.pht_entries = static_cast<std::uint32_t>(get_u64(a, "pht", cfg.pht_entries));
  cfg.hist_bits = static_cast<std::uint32_t>(get_u64(a, "hist", cfg.hist_bits));
  cfg.btb_entries = static_cast<std::uint32_t>(get_u64(a, "btb", cfg.btb_entries));
  cfg.ras_entries = static_cast<std::uint32_t>(get_u64(a, "ras", cfg.ras_entries));
  const std::string out = get(a, "out", "resim_vhdl");
  std::filesystem::create_directories(out);
  const auto files = codegen::generate_bpred_vhdl(cfg);
  codegen::write_vhdl_files(files, out);
  std::cout << "wrote " << files.size() << " VHDL units to " << out << '\n';
  return 0;
}

/// The daemon a SIGINT/SIGTERM should stop. request_stop is one atomic
/// store plus one non-blocking pipe write, both async-signal-safe.
std::atomic<serve::Daemon*> g_serve_daemon{nullptr};

extern "C" void serve_signal_handler(int) {
  if (auto* d = g_serve_daemon.load()) d->request_stop();
}

int cmd_serve(const Args& a) {
  if (has(a, "protocol-markdown")) {
    // docs/SERVE.md's message-type and error-code tables, generated from
    // the MsgType/ErrCode enums; CI diffs this output against the doc.
    std::cout << serve::protocol_markdown();
    return 0;
  }
  // serve.* knobs resolve through the registry like every other
  // parameter: defaults < --config < --set.
  const auto cfg = config_from(a);
  serve::ServeOptions opts;
  opts.unix_path = get(a, "socket", "");
  if (has(a, "tcp")) {
    opts.tcp = true;
    opts.tcp_port = static_cast<std::uint16_t>(get_u64(a, "tcp", 0));
  }
  opts.threads = static_cast<unsigned>(get_u64(a, "j", 1));
  opts.max_pending = cfg.serve_max_pending;
  opts.idle_timeout_s = cfg.serve_idle_timeout_s;
  opts.log = [](const std::string& line) { std::cerr << line << '\n'; };

  serve::Daemon daemon(opts);
  g_serve_daemon.store(&daemon);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  daemon.start();
  if (opts.tcp) std::cout << "serve: port " << daemon.port() << '\n';
  daemon.wait();
  g_serve_daemon.store(nullptr);
  return 0;
}

/// Whole-file read for inlining --config/--spec contents into a request.
std::string slurp_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open file: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int cmd_client(const Args& a) {
  serve::Client client = has(a, "socket")
      ? serve::Client::connect_to_unix(get(a, "socket", ""))
      : has(a, "tcp")
          ? serve::Client::connect_to_tcp(
                static_cast<std::uint16_t>(get_u64(a, "tcp", 0)))
          : throw std::invalid_argument("client: need --socket PATH or --tcp PORT");
  const std::string id = get(a, "id", "req-1");

  if (has(a, "ping")) {
    client.ping(id);
    std::cout << "pong (id " << id << ")\n";
    return 0;
  }

  // Response bodies go to --out or stdout VERBATIM (the served-vs-CLI
  // byte-identity gate pipes stdout); the frame summary goes to stderr.
  std::ofstream file;
  if (has(a, "out")) {
    file.open(get(a, "out", ""));
    if (!file) throw std::runtime_error("cannot open output file: " + get(a, "out", ""));
  }
  std::ostream& out = file.is_open() ? static_cast<std::ostream&>(file) : std::cout;

  std::string payload;
  if (has(a, "status")) {
    payload = serve::build_status_request(id);
  } else if (has(a, "shutdown")) {
    payload = serve::build_shutdown_request(id);
  } else if (has(a, "sim")) {
    serve::SimRequestSpec spec;
    spec.id = id;
    spec.priority = static_cast<int>(get_u64(a, "priority", 0));
    spec.trace_path = get(a, "trace", "trace.rsim");
    if (has(a, "config")) spec.config_text = slurp_file(get(a, "config", ""));
    spec.sets = a.sets;
    spec.skip = get_u64(a, "skip", 0);
    spec.warmup = get_u64(a, "warmup", 0);
    if (has(a, "max-records")) spec.max_records = get_u64(a, "max-records", 0);
    payload = serve::build_sim_request(spec);
  } else if (has(a, "sweep")) {
    serve::SweepRequestSpec spec;
    spec.id = id;
    spec.priority = static_cast<int>(get_u64(a, "priority", 0));
    spec.spec_text = slurp_file(get(a, "spec", ""));
    if (has(a, "config")) spec.config_text = slurp_file(get(a, "config", ""));
    spec.sets = a.sets;
    spec.trace_path = get(a, "trace", "");
    if (has(a, "insts")) spec.insts = get_u64(a, "insts", 0);
    spec.format = get(a, "format", "");
    payload = serve::build_sweep_request(spec);
  } else {
    throw std::invalid_argument(
        "client: need one of --ping, --status, --shutdown, --sim, --sweep");
  }

  const auto done = client.request(payload, out);
  std::cerr << "client: id " << id << " done, " << done.frames << " frame(s), "
            << done.bytes << " byte(s)\n";
  return 0;
}

int usage() {
  std::cerr <<
      "usage: resim_cli <command> [flags]\n"
      "  gen      --bench NAME --insts N --out FILE [--bp KIND] [--chunk N]\n"
      "           [--compress] [--prefilter]\n"
      "  sim      --trace FILE [--config FILE] [--set key=value]...\n"
      "           [--width N --rob N --lsq N --ifq N --ports N]\n"
      "           [--variant simple|efficient|optimized] [--mem perfect|l1|l2]\n"
      "           [--bp 2lev|bimodal|gshare|comb|perfect] [--device NAME]\n"
      "           [--report] [--json FILE]\n"
      "           [--backend memory|stream|mmap] [--stream]\n"
      "           [--skip N] [--warmup N] [--max-records N]\n"
      "           [--intervals FILE] [--plan FILE]\n"
      "  stats    --trace FILE [--backend memory|stream|mmap] [--stream]\n"
      "           [--config FILE] [--set key=value]...\n"
      "  sweep    [-j N] [--spec FILE | --bench NAME[,NAME..]|all [--widths 2,4,8]\n"
      "           [--robs 8,16,32] [--bps 2lev,perfect] [--variants ...]]\n"
      "           [--config FILE] [--set key=value]... [--trace FILE] [--insts N]\n"
      "           [--backend memory|stream|mmap] [--stream]\n"
      "           [--out FILE | --resume FILE] [--json FILE] [--csv-full FILE]\n"
      "           [--decode-stats FILE]\n"
      "  params   [--config FILE] [--set key=value]... [--save FILE] [--markdown]\n"
      "  serve    --socket PATH [--tcp PORT] [-j N] [--config FILE]\n"
      "           [--set key=value]... [--protocol-markdown]\n"
      "  client   (--socket PATH | --tcp PORT) [--id ID] [--out FILE]\n"
      "           (--ping | --status | --shutdown\n"
      "            | --sim --trace FILE [--config FILE] [--set key=value]...\n"
      "              [--priority N] [--skip N] [--warmup N] [--max-records N]\n"
      "            | --sweep --spec FILE [--config FILE] [--set key=value]...\n"
      "              [--priority N] [--trace FILE] [--insts N]\n"
      "              [--format csv|json|csv-full])\n"
      "  schedule --variant NAME --width N\n"
      "  vhdl     --out DIR [--pht N --hist N --btb N --ras N]\n"
      "--stream is shorthand for --backend stream; every backend produces\n"
      "bit-identical results. config and sweep-spec file grammars, and the\n"
      "full parameter table: docs/CONFIG.md (or `resim_cli params`).\n"
      "sampled execution: --set sample.windows=K [sample.window_insts=W\n"
      "sample.warmup_insts=U], or --plan FILE; interval stats: --set\n"
      "sample.interval_insts=N --intervals FILE (docs/SAMPLING.md).\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "sim") return cmd_sim(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "params") return cmd_params(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "client") return cmd_client(args);
    if (cmd == "schedule") return cmd_schedule(args);
    if (cmd == "vhdl") return cmd_vhdl(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "resim_cli " << cmd << ": " << e.what() << '\n';
    return 1;
  }
}
