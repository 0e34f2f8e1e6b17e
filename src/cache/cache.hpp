// Tag-only set-associative cache timing model.
//
// Paper §V (Table 4 discussion): "Since we do not store the actual data,
// we need to provide only the hit/miss indication and simulate the access
// latency" — exactly what this model does. No data array exists; an
// access returns {hit, latency} and trains the replacement state.
#ifndef RESIM_CACHE_CACHE_H
#define RESIM_CACHE_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/numeric.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace resim::cache {

enum class ReplPolicy : std::uint8_t { kLru, kFifo, kRandom };

enum class AccessKind : std::uint8_t { kRead, kWrite, kFetch };

struct CacheConfig {
  std::uint32_t size_bytes = 32 * 1024;  ///< paper: 32 KByte L1
  std::uint32_t assoc = 8;               ///< paper: associativity of 8 (FAST config)
  std::uint32_t block_bytes = 64;        ///< paper: block size 64 bytes
  std::uint32_t hit_latency = 1;         ///< cycles
  /// Miss service latency. The paper does not give one; FAST's system
  /// (whose L1 geometry Table 1 copies) backs the 32 KB L1s with an L2,
  /// so the default models an L2-hit-class 8-cycle fill (docs/ENGINE.md §3).
  std::uint32_t miss_latency = 8;
  ReplPolicy repl = ReplPolicy::kLru;
  bool write_allocate = true;

  void validate() const {
    require(is_pow2(size_bytes) && is_pow2(assoc) && is_pow2(block_bytes),
            "CacheConfig: size/assoc/block must be pow2");
    require(block_bytes >= 8, "CacheConfig: block >= 8");
    require(size_bytes >= assoc * block_bytes, "CacheConfig: too small for assoc");
    require(hit_latency >= 1, "CacheConfig: hit_latency >= 1");
    require(miss_latency >= hit_latency, "CacheConfig: miss_latency >= hit_latency");
  }

  [[nodiscard]] std::uint32_t sets() const { return size_bytes / (assoc * block_bytes); }
};

struct AccessResult {
  bool hit = false;
  std::uint32_t latency = 0;  ///< cycles until the value is available
};

class TagCache {
 public:
  TagCache(std::string name, const CacheConfig& cfg);

  AccessResult access(Addr addr, AccessKind kind);

  /// Probe without updating replacement/stat state.
  [[nodiscard]] bool contains(Addr addr) const;

  void invalidate_all();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return accesses_ - hits_; }
  [[nodiscard]] double miss_rate() const {
    return accesses_ == 0 ? 0.0 : static_cast<double>(misses()) / static_cast<double>(accesses_);
  }

  /// Tag-array storage in bits (area model input): tag + valid per block.
  [[nodiscard]] std::uint64_t tag_storage_bits() const;

  /// Publish "<name>.accesses/.hits/.misses" into a registry. Cache
  /// counters stay plain struct fields on the access path (ChampSim
  /// style); this is the one cold-path hand-off into the stats plane.
  void export_stats(StatsRegistry& reg) const;

 private:
  struct Line {
    bool valid = false;
    Addr tag = 0;
    std::uint64_t stamp = 0;  ///< LRU: last use; FIFO: fill time
  };

  [[nodiscard]] std::size_t set_of(Addr addr) const;
  [[nodiscard]] Addr tag_of(Addr addr) const;

  std::string name_;
  CacheConfig cfg_;
  std::vector<Line> lines_;  // sets x assoc row-major
  std::uint64_t tick_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t hits_ = 0;
  Rng rng_{0xCACEu};
};

}  // namespace resim::cache

#endif  // RESIM_CACHE_CACHE_H
