// TraceSource: the engine's pull interface to a record stream.
//
// Implementations: the in-memory vector below (bulk simulation of
// prepared traces, paper §I "traces prepared off-line"); the one .rsim
// file reader, FileTraceSource (file_source.hpp: read() or mapped bytes,
// one chunk decoded at a time); the shared-cache cursor BatchTraceSource
// (batch_cache.hpp); the region adaptor SegmentedTraceSource
// (segment.hpp); and the streaming source fed by a live trace generator
// (the on-the-fly FAST-style coupling of §I/§VI) in
// src/baseline/coupled.hpp.
#ifndef RESIM_TRACE_READER_H
#define RESIM_TRACE_READER_H

#include <cstdint>
#include <stdexcept>

#include "trace/batch.hpp"
#include "trace/format.hpp"
#include "trace/writer.hpp"

namespace resim::trace {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Next record without consuming it; nullptr at end of stream.
  [[nodiscard]] virtual const TraceRecord* peek() = 0;

  /// Consume and return the next record. Precondition: peek() != nullptr.
  virtual TraceRecord next() = 0;

  /// Consume and discard up to `n` records; returns how many were
  /// skipped (fewer only at end of stream). records_consumed() counts
  /// skipped records. The default decodes and discards one record at a
  /// time; sources over chunked containers (FileTraceSource in either
  /// byte mode, BatchTraceSource) override it to hop whole v2+ chunks
  /// unread via their stored sizes, in which case bits_consumed()
  /// accounts for a skipped chunk at frame granularity (raw_bytes * 8)
  /// rather than per record.
  virtual std::uint64_t skip(std::uint64_t n) {
    std::uint64_t done = 0;
    while (done < n && peek() != nullptr) {
      (void)next();
      ++done;
    }
    return done;
  }

  /// Columnar fast path: the run of not-yet-consumed records the source
  /// already holds decoded in SoA form (batch.hpp). The default is "no
  /// view" — callers fall back to peek()/next(); sources backed by a
  /// shared batch cache override it so the engine's fetch stage can walk
  /// a whole chunk with one virtual call. A non-empty view stays valid
  /// until the next mutating call; the caller reports the records it
  /// actually used with consume_view(n <= count) — which performs the
  /// same records/bits accounting as n calls to next() — before any
  /// other call that advances the source.
  [[nodiscard]] virtual BatchView fetch_view() { return {}; }

  /// Consume `n` records of the view fetch_view() returned.
  virtual void consume_view(std::size_t n) {
    if (n != 0) {
      throw std::logic_error("TraceSource::consume_view: no view outstanding");
    }
  }

  /// Wire bits consumed so far (trace-throughput statistic, Table 3).
  [[nodiscard]] virtual std::uint64_t bits_consumed() const = 0;

  /// Records consumed so far.
  [[nodiscard]] virtual std::uint64_t records_consumed() const = 0;

  /// Total records in the underlying stream when known up front (the
  /// container header's record_count; a whole in-memory trace). 0 means
  /// unknown (e.g. a live generator) — planners that need the length
  /// (driver/sampling.hpp uniform plans) must reject such sources.
  [[nodiscard]] virtual std::uint64_t total_records() const { return 0; }
};

/// In-memory source over a Trace (does not own it).
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(const Trace& trace) : trace_(trace) {}

  [[nodiscard]] const TraceRecord* peek() override {
    return pos_ < trace_.records.size() ? &trace_.records[pos_] : nullptr;
  }

  TraceRecord next() override {
    const TraceRecord& r = trace_.records.at(pos_++);
    bits_ += encoded_bits(r);
    return r;
  }

  /// Index-bump seek: same records/bits accounting as n next() calls
  /// (records are already decoded in memory, so nothing is re-decoded).
  std::uint64_t skip(std::uint64_t n) override {
    std::uint64_t done = 0;
    while (done < n && pos_ < trace_.records.size()) {
      bits_ += encoded_bits(trace_.records[pos_]);
      ++pos_;
      ++done;
    }
    return done;
  }

  [[nodiscard]] std::uint64_t bits_consumed() const override { return bits_; }
  [[nodiscard]] std::uint64_t records_consumed() const override { return pos_; }
  [[nodiscard]] std::uint64_t total_records() const override { return trace_.records.size(); }

  void rewind() {
    pos_ = 0;
    bits_ = 0;
  }

 private:
  const Trace& trace_;
  std::size_t pos_ = 0;
  std::uint64_t bits_ = 0;
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_READER_H
