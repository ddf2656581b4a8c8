// Mobile-client CPU model (SimplePower substitute; see DESIGN.md §2).
//
// Single-issue in-order 5-stage pipeline: each retired instruction costs
// one cycle; loads/stores additionally access the D-cache and stall the
// pipeline for mem_latency_cycles on a miss (plus a write-back).  The
// instruction-fetch stream walks a small code footprint once, from a
// line-aligned base, and then hits (query kernels are tight loops).  That
// warm-up is computed in closed form rather than simulated, counters and
// energy alike: a fetch misses exactly when its PC starts an I-cache line,
// and its I-cache energy is read from a prefix table of the per-fetch sum.
// Per-event dynamic energies from EnergyTable are integrated into an
// EnergyBreakdown.  The per-config constants (config, energy table,
// prefix table) live in one immutable ClientConstants that every client
// of a config can share, as run_fleet's clients do.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rtree/exec.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/energy.hpp"

namespace mosaiq::sim {

/// What every ClientCpu of one config shares; immutable once built.
struct ClientConstants {
  explicit ClientConstants(const ClientConfig& cfg);

  ClientConfig cfg;
  EnergyTable table;  ///< cfg's per-event energies, DVFS-scaled
  /// Walk fetch i misses exactly when i is a multiple of this.
  std::uint64_t fetches_per_line = 1;
  /// log2 of the D-cache line size: loads and stores find their lines
  /// by shifting.
  std::uint32_t dcache_line_shift = 0;
  /// walk_icache_j[i] = I-cache energy of the first i walk fetches, added
  /// one fetch at a time (so it has the bits of a per-fetch walk); one
  /// entry per walk fetch plus the empty walk.
  std::vector<double> walk_icache_j;
};

class ClientCpu final : public rtree::ExecHooks {
 public:
  /// A client with its own constants (Session and the other one-client
  /// drivers).
  explicit ClientCpu(const ClientConfig& cfg);
  /// A client sharing `constants` with other clients of the same config.
  explicit ClientCpu(std::shared_ptr<const ClientConstants> constants);

  // --- ExecHooks ------------------------------------------------------
  void instr(const rtree::InstrMix& mix) override;
  void read(std::uint64_t addr, std::uint32_t bytes) override;
  void write(std::uint64_t addr, std::uint32_t bytes) override;

  // --- Waiting --------------------------------------------------------

  /// Spends `seconds` of wall time blocked on the network, under the
  /// given wait policy (see ClientConfig / Section 5.2 of the paper).
  void wait_seconds(double seconds, WaitPolicy policy);

  // --- Accounting -----------------------------------------------------

  /// Busy cycles: instruction execution + memory stalls (excludes time
  /// modeled via wait_seconds).
  std::uint64_t busy_cycles() const { return cycles_; }

  /// Busy time in seconds at the configured clock.
  double busy_seconds() const {
    return static_cast<double>(cycles_) / constants_->cfg.clock_hz();
  }

  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t stall_cycles() const { return stall_cycles_; }

  const EnergyBreakdown& energy() const { return energy_; }
  const CacheStats& icache_stats() const { return icache_stats_; }
  const CacheStats& dcache_stats() const { return dcache_.stats(); }
  const ClientConfig& config() const { return constants_->cfg; }
  const EnergyTable& energy_table() const { return constants_->table; }

  /// Average active-power estimate (W) over busy cycles so far; feeds the
  /// analytical model of Section 4.1.
  double average_active_power_w() const;

 private:
  void fetch(std::uint64_t n);           ///< n instruction fetches through the I-cache
  void dcache_line_access(std::uint64_t addr, bool is_write);

  std::shared_ptr<const ClientConstants> constants_;
  CacheStats icache_stats_;  ///< accesses = fetches into the warm-up walk so far
  Cache dcache_;

  std::uint64_t cycles_ = 0;
  std::uint64_t stall_cycles_ = 0;
  std::uint64_t instructions_ = 0;
  EnergyBreakdown energy_;
};

}  // namespace mosaiq::sim
