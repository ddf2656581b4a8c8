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
//
// An access pays only for what it changes:
//  - Repeat line.  The cache remembers the last line accessed and its
//    word.  That line is valid and holds rank 0 of its set until another
//    access or a flush(), so a repeat access is a hit that reorders
//    nothing: the inline fast path counts it and ORs in the dirty bit,
//    exactly what the full lookup would do.  flush() forgets the line.
//  - Sets on first touch.  Only the sets up to the highest one touched
//    are stored.  An access past them grows the vector to its set in
//    one allocation that at least doubles the capacity (never past every
//    set), so touching the sets in order stays linear.  A set no access
//    has touched is in its initial state (invalid, ranks 0..assoc-1),
//    so it needs no storage: each new set starts in that state, probe()
//    of an untouched set is a miss, and flush() would leave it as it
//    is.  Every simulated region starts set-aligned, so a client that
//    only touches protocol buffers stores one set, while a query kernel
//    reaches them all in its first query.
#pragma once

#include <cstddef>
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
  AccessResult access(std::uint64_t addr, bool is_write) {
    const std::uint64_t line_addr = addr >> line_shift_;
    if (line_addr != last_line_) return access_line(line_addr, is_write);
    ++stats_.accesses;
    ++stats_.hits;
    if (is_write) lines_[last_slot_] |= kDirty;
    return {true, false};
  }

  /// True when the line containing `addr` is resident (no state change).
  bool probe(std::uint64_t addr) const;

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }

  /// Invalidate everything (dirty lines are counted as writebacks).
  void flush();

 private:
  // Line word layout: tag << kTagShift | kValid | kDirty | rank.
  static constexpr std::uint64_t kRankMask = 0x3f;  // ranks 0..63: up to 64 ways
  static constexpr std::uint64_t kDirty = 0x40;
  static constexpr std::uint64_t kValid = 0x80;
  static constexpr unsigned kTagShift = 8;
  static constexpr std::uint64_t kKeyMask = ~(kDirty | kRankMask);  // tag + valid
  static constexpr std::uint64_t kNoLine = ~0ull;  // no line address is all ones

  /// The full lookup of a line that is not the last one accessed.
  AccessResult access_line(std::uint64_t line_addr, bool is_write);
  /// Stores every set up to line_addr's, then looks the line up.
  AccessResult access_new_set(std::uint64_t line_addr, bool is_write);

  CacheConfig cfg_;
  std::uint32_t n_sets_;
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;
  std::uint64_t last_line_ = kNoLine;  ///< line address of the last access
  std::size_t last_slot_ = 0;          ///< its word in lines_
  std::vector<std::uint64_t> lines_;   // sets 0..highest touched, assoc words each
  CacheStats stats_;
};

}  // namespace mosaiq::sim
