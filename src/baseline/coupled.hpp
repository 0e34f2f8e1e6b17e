// Execution-driven coupled simulation: functional simulator feeding the
// timing engine on the fly, with no materialized trace — the FAST-style
// mode the paper anticipates (§I: "can be used in combination with a fast
// functional software simulator to efficiently add the timing information
// on the fly"; §VI: "we also investigate ways to produce the trace on the
// fly directly from a functional simulator").
//
// This module is also the repository's measured software baseline: the
// same coupled pipeline *is* an execution-driven sim-outorder-style
// simulator when run on the host, which is what bench/table2 measures.
#ifndef RESIM_BASELINE_COUPLED_H
#define RESIM_BASELINE_COUPLED_H

#include <deque>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/perf.hpp"
#include "trace/tracegen.hpp"
#include "workload/workload.hpp"

namespace resim::baseline {

/// TraceSource that pulls records from a live TraceGenerator.
class StreamingTraceSource final : public trace::TraceSource {
 public:
  explicit StreamingTraceSource(trace::TraceGenerator& gen) : gen_(gen) {}

  [[nodiscard]] const trace::TraceRecord* peek() override {
    fill();
    return buffer_.empty() ? nullptr : &buffer_.front();
  }

  trace::TraceRecord next() override {
    if (peek() == nullptr) {
      throw std::out_of_range("StreamingTraceSource::next: past end of trace");
    }
    trace::TraceRecord r = buffer_.front();
    buffer_.pop_front();
    ++records_;
    bits_ += trace::encoded_bits(r);
    return r;
  }

  [[nodiscard]] std::uint64_t bits_consumed() const override { return bits_; }
  [[nodiscard]] std::uint64_t records_consumed() const override { return records_; }

 private:
  void fill() {
    while (buffer_.empty()) {
      staging_.clear();
      if (gen_.step(staging_) == 0) return;
      buffer_.insert(buffer_.end(), staging_.begin(), staging_.end());
    }
  }

  trace::TraceGenerator& gen_;
  std::deque<trace::TraceRecord> buffer_;
  std::vector<trace::TraceRecord> staging_;
  std::uint64_t records_ = 0;
  std::uint64_t bits_ = 0;
};

struct CoupledResult {
  core::SimResult sim;
  double host_seconds = 0;   ///< wall-clock time of the coupled run
  double host_mips = 0;      ///< committed instructions / host second / 1e6
  /// Simulated major cycles / host second / 1e6 — the same engine-core
  /// throughput metric bench/micro_engine_throughput gates in CI, so the
  /// coupled baseline and the trace-driven engine are compared on one
  /// surface.
  double host_mcycles_per_sec = 0;
};

/// Run workload -> (functional sim + predictor) -> timing engine, fused.
[[nodiscard]] CoupledResult run_coupled(const workload::Workload& wl,
                                        const core::CoreConfig& core_cfg,
                                        const trace::TraceGenConfig& gen_cfg);

}  // namespace resim::baseline

#endif  // RESIM_BASELINE_COUPLED_H
