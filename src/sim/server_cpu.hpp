// Server CPU model (SimpleScalar substitute; see DESIGN.md §2).
//
// 4-issue superscalar throughput model: base cycles are instructions /
// issue_width; memory references run through a simulated L1D + unified
// L2 + TLB, and the resulting stall cycles are added after an overlap
// discount that stands in for out-of-order latency hiding (RUU 64 /
// LSQ 32 in Table 4).  Only cycles matter — the server is assumed
// resource-rich, so no energy is modeled (paper Section 5.3).
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
  void instr(const rtree::InstrMix& mix) override;
  void read(std::uint64_t addr, std::uint32_t bytes) override;
  void write(std::uint64_t addr, std::uint32_t bytes) override;

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
  void mem_access(std::uint64_t addr, bool is_write);
  bool tlb_lookup(std::uint64_t addr);

  ServerConfig cfg_;
  Cache l1d_;
  Cache l2_;

  std::uint64_t instructions_ = 0;
  std::uint64_t mem_ops_ = 0;
  double stall_cycles_ = 0.0;
  std::uint64_t tlb_misses_ = 0;

  // Optional disk tier (ServerConfig::disk_backed).
  std::optional<Cache> buffer_cache_;
  double disk_seconds_ = 0.0;
  std::uint64_t bc_misses_ = 0;
  std::uint64_t last_page_ = ~0ull;

  // Fully-associative LRU TLB; tlb_mru_ is the entry used last, tested
  // before the scan.
  struct TlbEntry {
    std::uint64_t page = ~0ull;
    std::uint64_t lru = 0;
  };
  std::vector<TlbEntry> tlb_;
  std::uint64_t tlb_tick_ = 0;
  std::size_t tlb_mru_ = 0;
};

}  // namespace mosaiq::sim
