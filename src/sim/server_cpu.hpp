// Server CPU model (SimpleScalar substitute; see DESIGN.md §2).
//
// 4-issue superscalar throughput model: base cycles are instructions /
// issue_width; memory references run through a simulated L1D + unified
// L2 + TLB, and the resulting stall cycles are added after an overlap
// discount that stands in for out-of-order latency hiding (RUU 64 /
// LSQ 32 in Table 4).  Only cycles matter — the server is assumed
// resource-rich, so no energy is modeled (paper Section 5.3).
//
// The TLB is fully associative with exact LRU replacement.  A resident
// page is found in O(1) through a hashed page -> entry index; the index
// is only a hint, checked against the entry, so hits, misses and
// victims are those of a plain LRU scan.
//
// Kernels scan a node or a record a few bytes at a time, so most
// accesses repeat the line, and the page, of the access before.  Line
// and page numbers are shifts (both sizes are powers of two).  The page
// of the most recently used TLB entry is compared inline before the
// lookup: that entry already holds the newest LRU tick, so a repeat hit
// on it changes nothing.  A repeat line is likewise a hit that changes
// nothing in the L1D (see sim/cache.hpp).
//
// That per-event path (instr, the read/write line loop and both repeat
// checks) is inline, so a kernel compiled for ServerCpu
// (rtree/search.hpp) runs it without a call.  The TLB lookup, the L1D's
// full lookup, an L1D miss and the disk tier stay out of line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "rtree/exec.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"

namespace mosaiq::sim {

class ServerCpu final : public rtree::ExecHooks {
 public:
  explicit ServerCpu(const ServerConfig& cfg);

  // --- ExecHooks ------------------------------------------------------
  void instr(const rtree::InstrMix& mix) override { instructions_ += mix.total(); }
  void read(std::uint64_t addr, std::uint32_t bytes) override { access(addr, bytes, false); }
  void write(std::uint64_t addr, std::uint32_t bytes) override { access(addr, bytes, true); }

  // --- Accounting -----------------------------------------------------

  /// Total server cycles: issue-limited execution + discounted stalls,
  /// plus disk time (converted at the clock) when disk-backed.
  std::uint64_t cycles() const;

  /// Seconds spent in the disk subsystem (0 unless disk_backed).
  double disk_seconds() const { return disk_seconds_; }
  std::uint64_t buffer_cache_misses() const { return bc_misses_; }

  double seconds() const { return static_cast<double>(cycles()) / cfg_.clock_hz(); }

  std::uint64_t instructions() const { return instructions_; }
  const CacheStats& l1d_stats() const { return l1d_.stats(); }
  const CacheStats& l2_stats() const { return l2_.stats(); }
  std::uint64_t tlb_misses() const { return tlb_misses_; }
  const ServerConfig& config() const { return cfg_; }

 private:
  /// One word-sized memory instruction per 4 bytes; one memory access
  /// per line touched.
  void access(std::uint64_t addr, std::uint32_t bytes, bool is_write) {
    if (bytes == 0) return;
    const std::uint64_t first = addr >> line_shift_;
    const std::uint64_t last = (addr + bytes - 1) >> line_shift_;
    instructions_ += (bytes + 3) / 4;
    for (std::uint64_t l = first; l <= last; ++l) mem_access(l << line_shift_, is_write);
  }

  /// One line through the disk tier (if any), the TLB, the L1D and,
  /// on an L1D miss, the L2.
  void mem_access(std::uint64_t addr, bool is_write) {
    if (buffer_cache_) [[unlikely]] disk_access(addr, is_write);
    // A page is resident at most once, and the last entry used already
    // holds the newest tick, so a repeat hit on it changes no LRU order.
    const std::uint64_t page = addr >> page_shift_;
    if (page != tlb_mru_page_ && !tlb_lookup(page)) stall_cycles_ += cfg_.tlb_miss_cycles;
    if (!l1d_.access(addr, is_write).hit) l1d_miss(addr, is_write);
  }

  void disk_access(std::uint64_t addr, bool is_write);
  bool tlb_lookup(std::uint64_t page);
  void l1d_miss(std::uint64_t addr, bool is_write);

  ServerConfig cfg_;
  Cache l1d_;
  Cache l2_;
  unsigned line_shift_;  ///< log2 of the L1D line size
  unsigned page_shift_;  ///< log2 of the page size

  std::uint64_t instructions_ = 0;
  double stall_cycles_ = 0.0;
  std::uint64_t tlb_misses_ = 0;

  // Optional disk tier (ServerConfig::disk_backed).
  std::optional<Cache> buffer_cache_;
  double disk_seconds_ = 0.0;
  std::uint64_t bc_misses_ = 0;
  std::uint64_t last_page_ = ~0ull;

  // Fully-associative LRU TLB.  A page is compared with tlb_mru_page_
  // (the page of the entry used last), then looked up in the entry
  // tlb_slot_ names for the page's hash, then by a scan of every entry;
  // a miss makes a second pass for the LRU victim.  The entry found or
  // filled is recorded in the page's slot.  A slot
  // is trusted only when its entry still holds the page.  The slot is
  // hashed from the page number rather than masked from it: every
  // simaddr region (and the NIC buffer 4 MB past kNetBase) starts at a
  // page that is 0 mod 1024, so masked slots would collide on the first
  // pages of every region.
  struct TlbEntry {
    std::uint64_t page = ~0ull;
    std::uint64_t lru = 0;
  };
  std::vector<TlbEntry> tlb_;
  std::vector<std::uint16_t> tlb_slot_;  ///< page hash -> index into tlb_
  unsigned tlb_shift_ = 0;               ///< 64 - log2(tlb_slot_.size())
  std::uint64_t tlb_tick_ = 0;
  std::uint64_t tlb_mru_page_ = TlbEntry{}.page;  ///< entry 0's page at start
};

}  // namespace mosaiq::sim
