// SharedTraceCache: one decode of each .rsim container per daemon, not
// per request.
//
// The one-shot CLI pays a full container decode per invocation; a
// daemon serving a burst of requests against the same prepared trace
// should not. Memory-backend requests borrow a shared_ptr<const Trace>
// from this cache — read-only, so concurrent requests share it safely —
// keyed by (path, size, mtime) so a regenerated container is re-decoded
// instead of served stale. Entries are held by weak_ptr: a trace stays
// resident exactly as long as some request is using it, and the
// daemon's memory high-water mark is set by its in-flight work, not its
// history.
//
// File-backend requests (stream/mmap) do not decode up front, so they
// bypass this cache by design: their cross-request sharing is the OS
// page cache over the mapped/streamed file, and their within-request
// sharing is the decode-once trace::SharedBatchCache that BatchRunner
// builds for every job group of two or more same-trace points.
#ifndef RESIM_SERVE_TRACE_CACHE_H
#define RESIM_SERVE_TRACE_CACHE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "trace/writer.hpp"

namespace resim::serve {

class SharedTraceCache {
 public:
  /// The decoded trace at `path`, loading it on first use (or after the
  /// file changed identity, or after every borrower released it).
  /// Throws what trace::load_trace throws on a missing/corrupt file.
  [[nodiscard]] std::shared_ptr<const trace::Trace> get(const std::string& path);

  /// Cache-effectiveness counters (status response / tests).
  [[nodiscard]] std::uint64_t loads() const;
  [[nodiscard]] std::uint64_t hits() const;

  /// Drop expired weak entries; returns how many live entries remain.
  [[nodiscard]] std::size_t prune();

 private:
  struct Key {
    std::string path;
    std::uint64_t size = 0;
    std::int64_t mtime_ns = 0;
    [[nodiscard]] bool operator<(const Key& o) const {
      if (path != o.path) return path < o.path;
      if (size != o.size) return size < o.size;
      return mtime_ns < o.mtime_ns;
    }
  };

  mutable std::mutex mu_;
  std::map<Key, std::weak_ptr<const trace::Trace>> entries_;
  std::uint64_t loads_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace resim::serve

#endif  // RESIM_SERVE_TRACE_CACHE_H
