#include "driver/sweep_grid.hpp"

#include <algorithm>
#include <stdexcept>

#include "config/param_registry.hpp"
#include "trace/file_source.hpp"
#include "workload/suite.hpp"

namespace resim::driver {

namespace {

/// Config fields the standard CSV already prints as columns.
bool in_standard_csv(const std::string& path) {
  static const char* const kStandard[] = {
      "pipeline.variant", "core.width", "core.ifq_size",
      "core.rob_size",    "core.lsq_size", "bp.kind",
  };
  return std::any_of(std::begin(kStandard), std::end(kStandard),
                     [&](const char* s) { return path == s; });
}

}  // namespace

SweepGrid expand_spec(const config::SweepSpec& spec) {
  const auto& reg = config::ParamRegistry::instance();

  // Normalize the axis list: bench present (default gzip, outermost),
  // "all" expanded to the suite.
  std::vector<config::SweepAxis> axes = spec.axes;
  const auto bench_it = std::find_if(axes.begin(), axes.end(),
                                     [](const auto& a) { return a.path == "bench"; });
  if (bench_it == axes.end()) {
    axes.insert(axes.begin(), {"bench", {"gzip"}});
  }
  for (auto& a : axes) {
    if (a.path == "bench" && a.values.size() == 1 && a.values[0] == "all") {
      a.values = workload::suite_names();
    }
  }

  SweepGrid grid;
  for (const auto& a : axes) {
    if (a.path == "bench") continue;
    (void)reg.at(a.path);  // unknown axis paths fail before expansion
    grid.axis_paths.push_back(a.path);
    if (!in_standard_csv(a.path)) grid.extra_csv_paths.push_back(a.path);
  }

  const bool derive_lsq = !spec.is_pinned("core.lsq_size");
  const bool derive_ifq = !spec.is_pinned("core.ifq_size");
  const bool derive_ports = !spec.is_pinned("core.mem_read_ports");

  // Odometer over the axis value indices; axis 0 is the outermost loop,
  // so the last axis spins fastest — the legacy loop-nest order.
  std::vector<std::size_t> idx(axes.size(), 0);
  const std::uint64_t points = spec.point_count();
  grid.jobs.reserve(points);
  while (true) {
    core::CoreConfig cfg = spec.base;
    std::string bench;
    std::string label;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string& v = axes[a].values[idx[a]];
      std::string token;
      if (axes[a].path == "bench") {
        bench = v;
        token = v;
      } else {
        const auto& p = reg.at(axes[a].path);
        reg.set(cfg, p.path, v);
        token = config::ParamRegistry::label_token(p, v);
      }
      if (!label.empty()) label += '/';
      label += token;
    }

    if (derive_lsq) cfg.lsq_size = std::max(2u, cfg.rob_size / 2);
    if (derive_ifq) cfg.ifq_size = std::max(cfg.ifq_size, cfg.width);
    if (derive_ports) cfg.mem_read_ports = std::max(1u, cfg.width - 1);

    try {
      cfg.validate();
    } catch (const std::exception& e) {
      throw std::invalid_argument("sweep point '" + label + "': " + e.what());
    }
    grid.jobs.push_back(SimJob::sweep_point(label, bench, cfg, spec.insts));

    // Advance the odometer (rightmost axis fastest).
    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes[a].values.size()) break;
      idx[a] = 0;
      if (a == 0) return grid;
    }
  }
}

SweepGrid expand_trace_sweep(
    config::SweepSpec spec, const std::string& path,
    const std::function<std::shared_ptr<const trace::Trace>()>& load_memory) {
  if (path.empty()) return expand_spec(spec);
  // Header-only open: just recover the benchmark name.
  const std::string bench_name = trace::FileTraceSource(path).trace_name();
  bool found = false;
  for (auto& axis : spec.axes) {
    if (axis.path == "bench") {
      axis.values = {bench_name};
      found = true;
    }
  }
  if (!found) spec.axes.insert(spec.axes.begin(), {"bench", {bench_name}});

  SweepGrid grid = expand_spec(spec);
  std::shared_ptr<const trace::Trace> memory_trace;
  for (auto& job : grid.jobs) {
    if (job.config.trace_backend == core::TraceBackend::kMemory) {
      if (!memory_trace) memory_trace = load_memory();
      job.trace = memory_trace;
    } else {
      job.trace_path = path;
    }
  }
  return grid;
}

}  // namespace resim::driver
