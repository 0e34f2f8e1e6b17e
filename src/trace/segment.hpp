// SegmentedTraceSource: region-of-interest adaptor over any TraceSource
// (docs/SAMPLING.md).
//
// Long traces are rarely simulated end to end. The standard methodology
// (ChampSim-style) fast-forwards past an uninteresting prefix, warms the
// microarchitectural state, then measures a bounded region; a sampled
// run repeats that many times: gap → warmup → detailed window → gap →
// ... over a single pass of the inner source. This adaptor hands the
// consumer (one long-lived engine) a bounded allowance at a time:
//
//   skip_gap(n)       fast-forward the inner source between segments
//                     (chunk-seeking skip(); nothing is decoded or
//                     counted here)
//   open_segment(n)   grant n more records (kAll: the rest of the
//                     trace); peek()/next() flow until the
//                     allowance is used up (then EOF)
//   close_segment()   revoke the unused remainder (hard segment end)
//
// One region (`sim --skip S --warmup W --max-records M`) is
// skip_gap(S) then open_segment(M); the warm-up is over once
// records_consumed() >= W or the source is exhausted.
//
// bits_consumed()/records_consumed() count only records handed through
// segments — gap records never appear in the consumer's totals, so an
// engine run over a region reports the region's own trace statistics.
// inner_position() reports the absolute record cursor of the inner
// source (its records_consumed(), which by the TraceSource contract
// includes skipped records), which is what the sampling planner uses to
// aim skip_gap() at absolute window starts.
#ifndef RESIM_TRACE_SEGMENT_H
#define RESIM_TRACE_SEGMENT_H

#include <cstdint>
#include <stdexcept>

#include "trace/reader.hpp"

namespace resim::trace {

class SegmentedTraceSource final : public TraceSource {
 public:
  /// Does not own `inner`. Starts with an empty allowance (EOF until the
  /// first open_segment()).
  explicit SegmentedTraceSource(TraceSource& inner) : inner_(inner) {}

  [[nodiscard]] const TraceRecord* peek() override {
    if (remaining_ == 0) return nullptr;
    return inner_.peek();
  }

  TraceRecord next() override {
    if (remaining_ == 0) {
      throw std::out_of_range("SegmentedTraceSource::next: past end of segment");
    }
    const TraceRecord r = inner_.next();
    --remaining_;
    ++consumed_;
    bits_ += encoded_bits(r);
    return r;
  }

  [[nodiscard]] std::uint64_t bits_consumed() const override { return bits_; }
  [[nodiscard]] std::uint64_t records_consumed() const override { return consumed_; }
  [[nodiscard]] std::uint64_t total_records() const override { return inner_.total_records(); }

  // --- segment control (the sampled runner, driver/sampling.cpp) ----------

  /// open_segment(kAll) lifts the cap: the segment runs to the end.
  static constexpr std::uint64_t kAll = ~std::uint64_t{0};

  /// Grant `n` more records to the consumer (saturating at kAll).
  void open_segment(std::uint64_t n) { remaining_ = n > kAll - remaining_ ? kAll : remaining_ + n; }

  /// Revoke the unused allowance; returns how many records were revoked.
  std::uint64_t close_segment() {
    const std::uint64_t unused = remaining_;
    remaining_ = 0;
    return unused;
  }

  /// Fast-forward the inner source between segments. Requires a closed
  /// segment (allowance 0) — skipping through an open segment would
  /// silently desynchronize the consumer. Returns records skipped
  /// (fewer than `n` only at end of stream).
  std::uint64_t skip_gap(std::uint64_t n) {
    if (remaining_ != 0) {
      throw std::logic_error("SegmentedTraceSource::skip_gap: segment still open");
    }
    return inner_.skip(n);
  }

  /// Absolute record cursor of the inner source (includes gap records).
  [[nodiscard]] std::uint64_t inner_position() const { return inner_.records_consumed(); }

  [[nodiscard]] std::uint64_t remaining() const { return remaining_; }

 private:
  TraceSource& inner_;
  std::uint64_t remaining_ = 0;  ///< current segment allowance
  std::uint64_t consumed_ = 0;   ///< records handed through segments
  std::uint64_t bits_ = 0;
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_SEGMENT_H
