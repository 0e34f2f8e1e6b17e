// SharedBatchCache: decode each container chunk once, fan it out to N
// concurrent consumers.
//
// A same-workload sweep runs many configurations over one .rsim file;
// with private sources every worker bit-unpacks (and for v3/v4
// LZ-expands) every chunk itself, so an N-point sweep pays N full
// decodes of identical bytes. The cache turns that into a decode-once
// pipeline: the first consumer to need a chunk becomes its producer,
// decodes it into an immutable std::vector<TraceRecord> (a batch), and
// every other consumer picks the batch up by shared_ptr.
//
// Memory stays bounded by `capacity` batches via LRU eviction with
// backpressure:
//
//  * a chunk is evictable only when every registered consumer has moved
//    past it, and — so a late-starting sweep worker is not forced to
//    re-decode the whole prefix — only once `expected_consumers` have
//    registered (the capacity-pressure valve below is the exception);
//  * at capacity with nothing evictable, consumers that are ahead wait
//    (backpressure bounds the consumer spread to the cache window); the
//    trailing consumer is exempt and may overshoot capacity by one
//    batch, so the group always advances and the protocol cannot
//    deadlock — even when workers fail and deregister, the next
//    trailing consumer inherits the exemption;
//  * if fewer than expected_consumers ever materialize (the batch
//    runner interleaved other groups' jobs), a pressure valve lifts the
//    registration gate at 2x capacity: late joiners then re-decode
//    evicted chunks (counted in chunks_decoded) instead of the cache
//    holding the whole trace resident.
//
// Decode work is observable through the handle-based stats plane
// (docs/STATS.md): the cache owns a StatsRegistry and resolves its
// counters once at construction. chunks_decoded() == chunk_count() is
// the decode-once property the CI assertion checks for a same-workload
// sweep whose point count fits the worker pool (docs/CI.md).
//
// Container v2/v3/v4 only: v1 has no chunk directory to index, so v1
// inputs keep their private sources (the constructor throws
// std::invalid_argument; the batch runner falls back).
#ifndef RESIM_TRACE_BATCH_CACHE_H
#define RESIM_TRACE_BATCH_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "trace/container.hpp"
#include "trace/file_source.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"

namespace resim::trace {

class SharedBatchCache {
 public:
  /// One decoded chunk, shared read-only by every consumer.
  using Batch = std::shared_ptr<const std::vector<TraceRecord>>;

  /// ~16 batches * <=4096 records * sizeof(TraceRecord): a
  /// low-single-digit-MB window per workload group.
  static constexpr std::size_t kDefaultCapacity = 16;

  /// Opens `path`, validates the container header, and scans the chunk
  /// directory (header-only seeks, no payload reads or decodes).
  /// `expected_consumers` is how many consumers the owner will attach
  /// concurrently — min(group size, worker threads) in the batch
  /// runner. Throws std::runtime_error on a missing/corrupt file and
  /// std::invalid_argument on a v1 container.
  explicit SharedBatchCache(std::string path, std::size_t expected_consumers = 1,
                            std::size_t capacity = kDefaultCapacity);

  SharedBatchCache(const SharedBatchCache&) = delete;
  SharedBatchCache& operator=(const SharedBatchCache&) = delete;

  /// One chunk directory entry, recorded during the constructor scan.
  struct ChunkInfo {
    std::uint64_t payload_offset = 0;  ///< file offset just past the chunk header
    std::uint64_t first_record = 0;    ///< global index of the chunk's first record
    ChunkHeader header;
  };

  // --- immutable container metadata ----------------------------------------
  [[nodiscard]] const ContainerHeader& header() const { return file_.header(); }
  [[nodiscard]] const std::string& path() const { return file_.path(); }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] const ChunkInfo& chunk(std::size_t idx) const { return chunks_[idx]; }

  // --- consumer protocol (used by BatchTraceSource) ------------------------
  /// Registers a consumer at position 0 and returns its id.
  std::size_t register_consumer();
  /// Removes the consumer from the position set (its cached batches
  /// become evictable; a waiting trailing consumer is promoted).
  void deregister_consumer(std::size_t id);
  /// Advances (or rewinds) the consumer's position without acquiring —
  /// chunk-skipping seek moves past chunks it never decodes.
  void update_position(std::size_t id, std::uint64_t chunk_idx);
  /// The decoded batch for chunk_idx: cache hit, or wait, or become the
  /// producer and decode it. Never returns null. Throws the container's
  /// std::runtime_error on a corrupt chunk.
  [[nodiscard]] Batch acquire(std::size_t chunk_idx, std::size_t id);

  // --- decode-work observers (exact once all consumers are quiescent) ------
  [[nodiscard]] std::uint64_t chunks_decoded() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t evictions() const;
  [[nodiscard]] std::size_t expected_consumers() const { return expected_; }
  /// The cache's own registry (counters cache.chunks_decoded /
  /// cache.hits / cache.evictions). Read only while no consumer is
  /// inside acquire().
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }

 private:
  struct Entry {
    Batch batch;
    std::uint64_t last_use = 0;
  };

  /// Decodes chunk `idx` into a fresh batch. Touches file_/dec_/encoded_,
  /// so the caller must hold the producer role (producing_ set by this
  /// thread) — NOT the mutex; decode runs unlocked.
  [[nodiscard]] Batch decode_chunk(std::size_t idx);

  // Locked helpers (caller holds mu_).
  [[nodiscard]] std::uint64_t min_position_locked() const;
  [[nodiscard]] bool eviction_candidate_locked(std::uint64_t* victim) const;
  bool try_evict_locked();

  // The file and its decoder: header() and the chunk directory are
  // immutable after construction; reads and decodes are producer-only
  // (guarded by producing_, not mu_: the flag's mutex-protected handoff
  // orders access between successive producers).
  ContainerFile file_;
  ChunkDecoder dec_;
  std::vector<ChunkInfo> chunks_;
  std::size_t expected_;
  std::size_t capacity_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Entry> cache_;           ///< chunk idx -> decoded batch
  std::map<std::size_t, std::uint64_t> positions_; ///< consumer id -> chunk position
  std::size_t next_id_ = 0;
  std::size_t started_ = 0;   ///< consumers ever registered (gates eviction)
  bool producing_ = false;    ///< a consumer is decoding (owns file_ and scratch)
  std::uint64_t use_clock_ = 0;

  // Producer-only scratch, like file_ and dec_.
  std::vector<std::uint8_t> encoded_;  ///< chunk payload as stored

  // Handle-based stats plane: resolved once here, bumped under mu_.
  StatsRegistry stats_;
  Counter& decoded_ctr_;
  Counter& hits_ctr_;
  Counter& evictions_ctr_;
};

/// TraceSource over a SharedBatchCache: the per-consumer cursor. Keeps
/// at most one batch alive (shared, refcounted) and mirrors
/// FileTraceSource's accounting exactly — per-record encoded bits when
/// decoding, raw_bytes * 8 frame-granular bits for chunks skip() seeks
/// past without acquiring — so swapping a private file source for a
/// shared one changes no simulation output byte.
class BatchTraceSource final : public TraceSource {
 public:
  explicit BatchTraceSource(std::shared_ptr<SharedBatchCache> cache);
  ~BatchTraceSource() override;

  BatchTraceSource(const BatchTraceSource&) = delete;
  BatchTraceSource& operator=(const BatchTraceSource&) = delete;

  // Inline fast path while the cursor is inside its batch; the refill
  // runs out of line, once per chunk.
  [[nodiscard]] const TraceRecord* peek() override {
    return in_batch() || ensure_batch() ? &(*batch_)[pos_] : nullptr;
  }
  TraceRecord next() override {
    if (!in_batch() && !ensure_batch()) {
      throw std::out_of_range("BatchTraceSource::next: past end of trace");
    }
    const TraceRecord& r = (*batch_)[pos_++];
    ++consumed_;
    bits_ += encoded_bits(r);
    return r;
  }
  std::uint64_t skip(std::uint64_t n) override;
  [[nodiscard]] std::uint64_t bits_consumed() const override { return bits_; }
  [[nodiscard]] std::uint64_t records_consumed() const override { return consumed_; }

  /// Restart from the first record, resetting the consumption counters.
  /// Chunks evicted since the first pass are re-decoded (and counted).
  void rewind();

  // --- container metadata --------------------------------------------------
  [[nodiscard]] const std::string& trace_name() const { return cache_->header().name; }
  [[nodiscard]] Addr start_pc() const { return cache_->header().start_pc; }
  [[nodiscard]] std::uint64_t total_records() const override {
    return cache_->header().record_count;
  }
  [[nodiscard]] std::uint32_t container_version() const { return cache_->header().version; }

  /// Chunks seeked past (never acquired) by skip().
  [[nodiscard]] std::uint64_t chunks_skipped() const { return chunks_skipped_; }

 private:
  [[nodiscard]] bool in_batch() const { return batch_ != nullptr && pos_ < batch_->size(); }
  /// Positions batch_/pos_ on the next unconsumed record; false at end.
  bool ensure_batch();

  std::shared_ptr<SharedBatchCache> cache_;
  std::size_t id_;

  SharedBatchCache::Batch batch_;  ///< chunk chunk_'s batch, if acquired
  std::size_t chunk_ = 0;          ///< chunk the cursor is in / will acquire
  std::size_t pos_ = 0;            ///< next record within batch_

  std::uint64_t consumed_ = 0;
  std::uint64_t bits_ = 0;
  std::uint64_t chunks_skipped_ = 0;
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_BATCH_CACHE_H
