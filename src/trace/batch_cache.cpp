#include "trace/batch_cache.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace resim::trace {

namespace {

/// Position a finished (or not-yet-registered) consumer can never hold;
/// min_position_locked() returns it for an empty position set, making
/// every cached chunk evictable.
constexpr std::uint64_t kNoPosition = std::numeric_limits<std::uint64_t>::max();

}  // namespace

SharedBatchCache::SharedBatchCache(std::string path, std::size_t expected_consumers,
                                   std::size_t capacity)
    : file_(std::move(path), ByteMode::kRead, "SharedBatchCache"),
      dec_(file_.path()),
      expected_(expected_consumers == 0 ? 1 : expected_consumers),
      capacity_(capacity == 0 ? 1 : capacity),
      decoded_ctr_(stats_.counter("cache.chunks_decoded")),
      hits_ctr_(stats_.counter("cache.hits")),
      evictions_ctr_(stats_.counter("cache.evictions")) {
  const ContainerHeader& hdr = file_.header();
  if (hdr.version == kContainerV1) {
    throw std::invalid_argument("SharedBatchCache: container v1 has no chunk index in " +
                                file_.path() + "; use a private source");
  }

  // Scan the chunk directory once: every header is validated exactly as
  // a private source would, but payloads are seeked past unread.
  chunks_.reserve(hdr.chunk_count);
  std::uint64_t off = hdr.payload_start;
  std::uint64_t first = 0;
  for (std::uint32_t i = 0; i < hdr.chunk_count; ++i) {
    const ChunkHeader ch = file_.chunk_header(off, hdr.record_count - first);
    off += chunk_header_bytes(hdr.version);
    chunks_.push_back(ChunkInfo{off, first, ch});
    first += ch.record_count;
    off += ch.payload_bytes;
  }
  if (off != file_.size()) {
    throw std::runtime_error("load_trace: trailing garbage after last chunk in " +
                             file_.path());
  }
}

std::size_t SharedBatchCache::register_consumer() {
  const std::lock_guard<std::mutex> lk(mu_);
  const std::size_t id = next_id_++;
  positions_[id] = 0;
  ++started_;
  cv_.notify_all();
  return id;
}

void SharedBatchCache::deregister_consumer(std::size_t id) {
  const std::lock_guard<std::mutex> lk(mu_);
  positions_.erase(id);
  cv_.notify_all();
}

void SharedBatchCache::update_position(std::size_t id, std::uint64_t chunk_idx) {
  const std::lock_guard<std::mutex> lk(mu_);
  positions_[id] = chunk_idx;
  cv_.notify_all();
}

std::uint64_t SharedBatchCache::min_position_locked() const {
  std::uint64_t m = kNoPosition;
  for (const auto& [id, pos] : positions_) {
    if (pos < m) m = pos;
  }
  return m;
}

bool SharedBatchCache::eviction_candidate_locked(std::uint64_t* victim) const {
  // Registration gate: before the expected consumer count has ever been
  // reached, keep everything — a late joiner starts at chunk 0. The
  // pressure valve (2x capacity) bounds memory when the expected
  // consumers never materialize.
  if (started_ < expected_ && cache_.size() < 2 * capacity_) return false;
  const std::uint64_t min_pos = min_position_locked();
  bool found = false;
  std::uint64_t lru_use = 0;
  for (const auto& [idx, entry] : cache_) {
    if (idx >= min_pos) break;  // std::map iterates in index order
    if (!found || entry.last_use < lru_use) {
      found = true;
      lru_use = entry.last_use;
      *victim = idx;
    }
  }
  return found;
}

bool SharedBatchCache::try_evict_locked() {
  std::uint64_t victim = 0;
  if (!eviction_candidate_locked(&victim)) return false;
  cache_.erase(victim);
  evictions_ctr_.add();
  return true;
}

SharedBatchCache::Batch SharedBatchCache::acquire(std::size_t chunk_idx, std::size_t id) {
  const std::uint64_t idx = chunk_idx;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (positions_[id] != idx) {
        positions_[id] = idx;
        cv_.notify_all();  // a position advance may unblock eviction
      }
      if (const auto it = cache_.find(idx); it != cache_.end()) {
        it->second.last_use = ++use_clock_;
        hits_ctr_.add();
        return it->second.batch;
      }
      if (producing_) {
        // Someone is decoding (maybe this very chunk): wait for the
        // producer slot or for the batch to appear.
        cv_.wait(lk, [&] { return cache_.count(idx) != 0 || !producing_; });
        continue;
      }
      if (cache_.size() >= capacity_ && !try_evict_locked() &&
          idx != min_position_locked()) {
        // Backpressure: the cache window is full of chunks trailing
        // consumers still need. Only the trailing consumer may push on
        // (its insert overshoots capacity by at most one batch, and its
        // progress is what makes older chunks evictable).
        cv_.wait(lk, [&] {
          if (cache_.count(idx) != 0) return true;
          if (producing_) return false;
          std::uint64_t victim = 0;
          return cache_.size() < capacity_ || idx == min_position_locked() ||
                 eviction_candidate_locked(&victim);
        });
        continue;
      }
      producing_ = true;
    }

    // Decode outside the lock: cache hits and position updates proceed
    // while this thread bit-unpacks. producing_ serializes use of the
    // stream and scratch buffers across producers.
    Batch batch;
    try {
      batch = decode_chunk(chunk_idx);
    } catch (...) {
      const std::lock_guard<std::mutex> lk(mu_);
      producing_ = false;
      cv_.notify_all();
      throw;
    }

    {
      const std::lock_guard<std::mutex> lk(mu_);
      producing_ = false;
      decoded_ctr_.add();
      while (cache_.size() >= capacity_ && try_evict_locked()) {
      }
      cache_[idx] = Entry{batch, ++use_clock_};
      cv_.notify_all();
    }
    return batch;
  }
}

SharedBatchCache::Batch SharedBatchCache::decode_chunk(std::size_t idx) {
  const ChunkInfo& info = chunks_[idx];
  dec_.open(file_.bytes(info.payload_offset, info.header.payload_bytes, encoded_),
            info.header, idx, info.first_record);
  auto recs = std::make_shared<std::vector<TraceRecord>>();
  dec_.decode(info.header.record_count, *recs);
  return recs;
}

std::uint64_t SharedBatchCache::chunks_decoded() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return decoded_ctr_.value();
}

std::uint64_t SharedBatchCache::hits() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return hits_ctr_.value();
}

std::uint64_t SharedBatchCache::evictions() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return evictions_ctr_.value();
}

// --- BatchTraceSource ------------------------------------------------------

BatchTraceSource::BatchTraceSource(std::shared_ptr<SharedBatchCache> cache)
    : cache_(std::move(cache)) {
  if (!cache_) {
    throw std::invalid_argument("BatchTraceSource: null cache");
  }
  id_ = cache_->register_consumer();
}

BatchTraceSource::~BatchTraceSource() { cache_->deregister_consumer(id_); }

bool BatchTraceSource::ensure_batch() {
  while (!in_batch()) {
    if (batch_ != nullptr) {
      batch_.reset();
      ++chunk_;
      pos_ = 0;
    }
    if (chunk_ >= cache_->chunk_count()) {
      // Exhausted: park the position past every chunk so this consumer
      // never blocks eviction for the others.
      cache_->update_position(id_, cache_->chunk_count());
      return false;
    }
    batch_ = cache_->acquire(chunk_, id_);
    pos_ = 0;
  }
  return true;
}

std::uint64_t BatchTraceSource::skip(std::uint64_t n) {
  std::uint64_t done = 0;
  // The already-acquired batch is consumed normally (it was paid for;
  // this keeps bits_ per-record exact for it).
  while (done < n && in_batch()) {
    (void)next();
    ++done;
  }
  if (batch_ != nullptr && pos_ >= batch_->size()) {
    batch_.reset();
    ++chunk_;
    pos_ = 0;
  }
  // Whole chunks inside the remaining skip region hop through the chunk
  // directory without acquiring — the same frame-granular accounting as
  // FileTraceSource::skip (consumed counts records, bits counts
  // raw_bytes * 8).
  while (chunk_ < cache_->chunk_count() &&
         n - done >= cache_->chunk(chunk_).header.record_count) {
    const ChunkHeader& ch = cache_->chunk(chunk_).header;
    done += ch.record_count;
    consumed_ += ch.record_count;
    bits_ += std::uint64_t{ch.raw_bytes} * 8;
    ++chunks_skipped_;
    ++chunk_;
  }
  cache_->update_position(id_, chunk_);
  // Remainder (a partial chunk): acquire it and discard per record.
  while (done < n && peek() != nullptr) {
    (void)next();
    ++done;
  }
  return done;
}

void BatchTraceSource::rewind() {
  batch_.reset();
  chunk_ = 0;
  pos_ = 0;
  consumed_ = 0;
  bits_ = 0;
  chunks_skipped_ = 0;
  cache_->update_position(id_, 0);
}

}  // namespace resim::trace
