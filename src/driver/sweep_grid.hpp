// Sweep-spec expansion: cross-product of axes -> driver::SimJob grid.
//
// Replaces the CLI's hand-rolled loop nest. Axes nest in spec order
// (first axis outermost), every point's label is the '/'-joined axis
// tokens ("gzip/optimized/w4/rob16/2lev"), and the legacy width-linked
// conveniences are preserved for parameters the spec does not pin:
//
//   core.lsq_size       = max(2, core.rob_size / 2)
//   core.ifq_size       = max(core.ifq_size, core.width)
//   core.mem_read_ports = max(1, core.width - 1)
//
// so a spec equivalent to the legacy --widths/--robs/--bps flags
// reproduces the legacy sweep CSV byte for byte. Pin any of the three
// (as a `set` line or an axis) to opt out of its derivation.
#ifndef RESIM_DRIVER_SWEEP_GRID_H
#define RESIM_DRIVER_SWEEP_GRID_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "config/sweep_spec.hpp"
#include "driver/batch_runner.hpp"

namespace resim::driver {

struct SweepGrid {
  std::vector<SimJob> jobs;              ///< cross-product, axis-nesting order
  std::vector<std::string> axis_paths;   ///< param axes (bench excluded)
  /// Axis paths whose values the standard CSV does not already carry;
  /// write_csv appends one column per entry.
  std::vector<std::string> extra_csv_paths;
};

/// Expand the spec. A missing bench axis defaults to {"gzip"} as the
/// outermost axis; the value "all" expands to the whole workload suite.
/// Every point's config is validate()d here, so an invalid corner of the
/// grid fails before any simulation starts, naming the point's label.
[[nodiscard]] SweepGrid expand_spec(const config::SweepSpec& spec);

/// Expand a sweep over one prepared .rsim (`resim_cli sweep --trace`, a
/// served sweep naming a trace) instead of generating per job: the bench
/// axis collapses to the container's own benchmark name, then each
/// job's trace.backend (flag, --set, or even a sweep axis) decides how
/// it reads the file. Memory-backend jobs share the one decoded
/// read-only copy `load_memory()` returns (called at most once, and only
/// if such a job exists); stream/mmap jobs name `path` and share its
/// decode through the batch runner's cache. The codec is lossless, so
/// the CSV is byte-identical across backends. An empty `path` is plain
/// expand_spec.
[[nodiscard]] SweepGrid expand_trace_sweep(
    config::SweepSpec spec, const std::string& path,
    const std::function<std::shared_ptr<const trace::Trace>()>& load_memory);

}  // namespace resim::driver

#endif  // RESIM_DRIVER_SWEEP_GRID_H
