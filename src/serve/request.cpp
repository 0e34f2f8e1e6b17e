#include "serve/request.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "driver/batch_runner.hpp"
#include "driver/result_export.hpp"
#include "driver/sampling.hpp"
#include "driver/sweep_grid.hpp"
#include "resim/resim.hpp"

namespace resim::serve {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw RequestError(ErrCode::kBadRequest, what);
}

/// Reject members outside `allowed` by name: a typoed "configs" must
/// fail loudly, not silently run with defaults.
void check_members(const JsonValue& v, std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : v.as_object()) {
    (void)value;
    if (std::find_if(allowed.begin(), allowed.end(),
                     [&](const char* a) { return key == a; }) == allowed.end()) {
      bad("unknown request member '" + key + "'");
    }
  }
}

std::string required_string(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) bad(std::string("missing required member '") + key + "'");
  if (m->kind() != JsonValue::Kind::kString) {
    bad(std::string("member '") + key + "' must be a string, got " +
        JsonValue::kind_name(m->kind()));
  }
  return m->as_string();
}

std::string optional_string(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) return {};
  if (m->kind() != JsonValue::Kind::kString) {
    bad(std::string("member '") + key + "' must be a string, got " +
        JsonValue::kind_name(m->kind()));
  }
  return m->as_string();
}

std::optional<std::uint64_t> optional_u64(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) return std::nullopt;
  try {
    return m->as_u64(std::string("member '") + key + "'");
  } catch (const std::exception& e) {
    bad(e.what());
  }
}

int parse_priority(const JsonValue& v) {
  const auto p = optional_u64(v, "priority");
  if (!p) return kMinPriority;
  if (*p > static_cast<std::uint64_t>(kMaxPriority)) {
    bad("member 'priority' must be in [" + std::to_string(kMinPriority) + ", " +
        std::to_string(kMaxPriority) + "], got " + std::to_string(*p));
  }
  return static_cast<int>(*p);
}

std::vector<std::string> parse_sets(const JsonValue& v) {
  const JsonValue* m = v.find("set");
  if (m == nullptr) return {};
  if (m->kind() != JsonValue::Kind::kArray) {
    bad(std::string("member 'set' must be an array of \"path=value\" strings, got ") +
        JsonValue::kind_name(m->kind()));
  }
  std::vector<std::string> sets;
  sets.reserve(m->as_array().size());
  for (const auto& e : m->as_array()) {
    if (e.kind() != JsonValue::Kind::kString) {
      bad(std::string("member 'set' entries must be strings, got ") +
          JsonValue::kind_name(e.kind()));
    }
    sets.push_back(e.as_string());
  }
  return sets;
}

/// Resolve a request's configuration the way the declarative CLI does:
/// paper defaults, then the inline "config" text, then the "set" list
/// (load_config defers validate(); run it after the last overlay).
core::CoreConfig resolve_config(const JsonValue& v, bool validate) {
  core::CoreConfig cfg = core::CoreConfig::paper_4wide_perfect();
  try {
    const std::string text = optional_string(v, "config");
    if (!text.empty()) {
      std::istringstream is(text);
      config::load_config(is, cfg, "request config");
    }
    (void)config::apply_sets(cfg, parse_sets(v));
    if (validate) cfg.validate();
  } catch (const RequestError&) {
    throw;
  } catch (const std::exception& e) {
    bad(e.what());
  }
  return cfg;
}

}  // namespace

std::string request_id_of(const JsonValue& v) {
  const JsonValue* id = v.find("id");
  return (id != nullptr && id->kind() == JsonValue::Kind::kString) ? id->as_string()
                                                                   : std::string();
}

SimRequest parse_sim_request(const JsonValue& v) {
  check_members(v, {"type", "id", "priority", "trace", "config", "set", "skip",
                    "warmup", "max_records"});
  SimRequest req;
  req.id = required_string(v, "id");
  req.priority = parse_priority(v);
  req.trace_path = required_string(v, "trace");
  if (req.trace_path.empty()) bad("member 'trace' must not be empty");
  req.config = resolve_config(v, /*validate=*/true);
  req.skip = optional_u64(v, "skip").value_or(0);
  req.warmup = optional_u64(v, "warmup").value_or(0);
  req.max_records = optional_u64(v, "max_records");
  if (req.max_records && *req.max_records < req.warmup) {
    // Same contract as the CLI: --max-records caps the TOTAL window,
    // warm-up included.
    bad("member 'max_records' caps the total window (warm-up included) and "
        "must be >= 'warmup'");
  }
  if (req.config.sample.windows > 0 &&
      (req.skip != 0 || req.warmup != 0 || req.max_records.has_value())) {
    bad(driver::kWindowedSamplingError);
  }
  return req;
}

SweepRequest parse_sweep_request(const JsonValue& v) {
  check_members(v, {"type", "id", "priority", "spec", "config", "set", "trace",
                    "insts", "format"});
  SweepRequest req;
  req.id = required_string(v, "id");
  req.priority = parse_priority(v);
  req.trace_path = optional_string(v, "trace");

  const std::string format = optional_string(v, "format");
  if (format.empty() || format == "csv") {
    req.format = SweepFormat::kCsv;
  } else if (format == "json") {
    req.format = SweepFormat::kJson;
  } else if (format == "csv-full") {
    req.format = SweepFormat::kCsvFull;
  } else {
    bad("member 'format' must be one of csv, json, csv-full; got '" + format + "'");
  }

  // Base configuration resolves exactly like `sweep --config/--set`; the
  // spec's own `set` lines then land on top inside parse_sweep_spec, and
  // the request's "set" list is re-applied afterwards so it keeps the
  // CLI's documented highest precedence. Grid points are validate()d by
  // expand_spec, not here.
  const core::CoreConfig base = resolve_config(v, /*validate=*/false);
  const std::string spec_text = required_string(v, "spec");
  try {
    std::istringstream is(spec_text);
    req.spec = config::parse_sweep_spec(is, "request spec", base);
    (void)config::apply_sets(req.spec.base, parse_sets(v));
  } catch (const std::exception& e) {
    bad(e.what());
  }
  if (const auto insts = optional_u64(v, "insts")) req.spec.insts = *insts;
  return req;
}

void run_sim(const SimRequest& req, SharedTraceCache& traces, const Sink& sink) {
  const core::CoreConfig& cfg = req.config;

  // Same backend dispatch as `resim_cli sim`, with one daemon upgrade:
  // the memory backend borrows the decoded trace from the shared cache
  // instead of re-decoding per request.
  std::shared_ptr<const trace::Trace> shared;
  std::optional<trace::VectorTraceSource> vec;
  std::unique_ptr<trace::FileTraceSource> file;
  std::string name;
  trace::TraceSource* base = nullptr;
  if (cfg.trace_backend == core::TraceBackend::kMemory) {
    shared = traces.get(req.trace_path);
    name = shared->name;
    vec.emplace(*shared);
    base = &*vec;
  } else {
    file = driver::open_trace_file(req.trace_path, cfg.trace_backend);
    name = file->trace_name();
    base = file.get();
  }

  // The same single region as `sim --skip/--warmup/--max-records`.
  std::optional<trace::SegmentedTraceSource> win;
  if (req.skip != 0 || req.warmup != 0 || req.max_records.has_value()) {
    win.emplace(*base);
    (void)win->skip_gap(req.skip);
    win->open_segment(req.max_records.value_or(trace::SegmentedTraceSource::kAll));
  }
  trace::TraceSource& src = win ? static_cast<trace::TraceSource&>(*win) : *base;

  // run_engine, like the CLI and sweeps: sample.* settings take effect.
  driver::JobResult jr;
  jr.label = name;
  jr.workload = name;
  jr.config = cfg;
  jr.result = driver::run_engine(cfg, src);
  sink(driver::result_json(jr) + '\n');
}

void run_sweep(const SweepRequest& req, unsigned threads, SharedTraceCache& traces,
               const Sink& sink) {
  // Prepared-trace mode, exactly like `sweep --trace`; the memory
  // backend borrows the decoded trace from the shared cache.
  auto grid = driver::expand_trace_sweep(
      req.spec, req.trace_path, [&] { return traces.get(req.trace_path); });

  const driver::BatchRunner runner(threads);
  const std::size_t total = grid.jobs.size();

  switch (req.format) {
    case SweepFormat::kCsv:
      sink(driver::csv_header(grid.extra_csv_paths) + '\n');
      break;
    case SweepFormat::kJson:
      sink("[\n");
      break;
    case SweepFormat::kCsvFull:
      sink(driver::config_csv_header() + '\n');
      break;
  }

  // The CLI's own checkpoint-batch granularity (sweep --resume): results
  // stream out as each batch completes instead of materializing the
  // whole grid, and within a batch the runner's job-order determinism
  // makes the concatenation byte-identical to a single run() call.
  const std::size_t batch = std::max<std::size_t>(16, runner.threads() * 4);
  std::size_t done = 0;
  for (std::size_t first = 0; first < total; first += batch) {
    const auto last = std::min(total, first + batch);
    const auto b = grid.jobs.begin();
    const std::vector<driver::SimJob> slice(
        std::make_move_iterator(b + static_cast<std::ptrdiff_t>(first)),
        std::make_move_iterator(b + static_cast<std::ptrdiff_t>(last)));
    const auto part = runner.run(slice);
    for (const auto& r : part) {
      ++done;
      switch (req.format) {
        case SweepFormat::kCsv:
          sink(driver::csv_row(r, grid.extra_csv_paths) + '\n');
          break;
        case SweepFormat::kJson:
          sink(driver::result_json(r, 2) + (done < total ? ",\n" : "\n"));
          break;
        case SweepFormat::kCsvFull:
          sink(driver::config_csv_row(r) + '\n');
          break;
      }
    }
  }
  if (req.format == SweepFormat::kJson) sink("]\n");
}

}  // namespace resim::serve
