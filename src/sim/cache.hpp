// Set-associative cache simulator (LRU replacement, write-back +
// write-allocate), operating on simulated addresses at cache-line
// granularity.  Used for the client D-cache (Table 3) and the server
// L1/L2 hierarchy (Table 4).
//
// Each line is one 64-bit word: the tag in the high bits, then valid and
// dirty bits and a per-set LRU rank in the low byte.  The ranks of a set
// are always a permutation of 0..assoc-1 (0 = most recently used), and
// invalid ways hold the highest ranks, so the victim is simply the way
// ranked assoc-1.  Rank order is the order a per-access timestamp would
// give, so hits, misses and writebacks match a timestamp-LRU cache.
#pragma once

#include <cstdint>
#include <vector>

namespace mosaiq::sim {

struct CacheConfig {
  std::uint32_t size_bytes = 8 * 1024;
  std::uint32_t assoc = 4;
  std::uint32_t line_bytes = 32;
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

  double hit_rate() const { return accesses == 0 ? 0.0 : double(hits) / double(accesses); }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  struct AccessResult {
    bool hit = false;
    bool writeback = false;  ///< a dirty line was evicted
  };

  /// One access to the line containing `addr`.
  AccessResult access(std::uint64_t addr, bool is_write);

  /// True when the line containing `addr` is resident (no state change).
  bool probe(std::uint64_t addr) const;

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Invalidate everything (dirty lines are counted as writebacks).
  void flush();

 private:
  CacheConfig cfg_;
  std::uint32_t n_sets_;
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;
  std::vector<std::uint64_t> lines_;  // n_sets * assoc, set-major
  CacheStats stats_;
};

}  // namespace mosaiq::sim
