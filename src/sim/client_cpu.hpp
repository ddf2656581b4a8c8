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
//
// The per-event path (instr, the read/write line loop, the D-cache's
// repeat-line check and the warm I-cache fetch) is inline, so a kernel
// compiled for ClientCpu (rtree/search.hpp) runs it without a call.  The
// slow paths stay out of line: the I-cache warm-up walk, the D-cache's
// full lookup, and the energy of a miss or a writeback.
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
  /// Fetches in the warm-up walk (code footprint / 4).
  std::uint64_t walk_fetches = 0;
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
  void instr(const rtree::InstrMix& mix) override {
    const std::uint64_t n = mix.total();
    if (n == 0) return;
    instructions_ += n;
    cycles_ += n;  // single-issue: one cycle per instruction
    fetch(n);
    const EnergyTable& t = constants_->table;
    energy_.datapath_j +=
        (mix.alu * t.alu_nj + mix.mul * t.mul_nj + mix.branch * t.branch_nj) * kNanojoule;
    energy_.clock_j += static_cast<double>(n) * t.clock_nj * kNanojoule;
  }
  void read(std::uint64_t addr, std::uint32_t bytes) override { access(addr, bytes, false); }
  void write(std::uint64_t addr, std::uint32_t bytes) override { access(addr, bytes, true); }

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

  /// Average active-power estimate (W) over busy cycles so far; feeds the
  /// analytical model of Section 4.1.
  double average_active_power_w() const;

 private:
  /// n instruction fetches through the I-cache.  Once the walk is done
  /// every fetch hits, and only I-cache energy advances.
  void fetch(std::uint64_t n) {
    const ClientConstants& c = *constants_;
    if (icache_stats_.accesses < c.walk_fetches) n = fetch_walk(n);
    if (n > 0) energy_.icache_j += static_cast<double>(n) * c.table.icache_nj * kNanojoule;
  }
  /// The share of n fetches that falls in the warm-up walk; returns the
  /// fetches left over past its end.
  std::uint64_t fetch_walk(std::uint64_t n);

  /// One word-sized load or store per 4 bytes; one D-cache array access
  /// per line touched (sequential words within a line pipeline through
  /// it).
  void access(std::uint64_t addr, std::uint32_t bytes, bool is_write) {
    if (bytes == 0) return;
    const ClientConstants& c = *constants_;
    const std::uint32_t shift = c.dcache_line_shift;
    const std::uint64_t first = addr >> shift;
    const std::uint64_t last = (addr + bytes - 1) >> shift;
    const std::uint64_t words = (bytes + 3) / 4;

    instructions_ += words;
    cycles_ += words * c.cfg.cache_hit_cycles;
    fetch(words);
    energy_.datapath_j += static_cast<double>(words) * c.table.mem_op_nj * kNanojoule;
    energy_.clock_j += static_cast<double>(words) * c.table.clock_nj * kNanojoule;
    // Every word access reads the data array; tag-check misses are
    // resolved at line granularity below.
    // mosaiq-lint: allow(unsigned-wrap) — bytes > 0, so last >= first
    const std::uint64_t lines = last - first + 1;
    if (words > lines) {
      energy_.dcache_j += static_cast<double>(words - lines) * c.table.dcache_nj * kNanojoule;
    }
    for (std::uint64_t l = first; l <= last; ++l) dcache_line_access(l << shift, is_write);
  }

  void dcache_line_access(std::uint64_t addr, bool is_write) {
    const Cache::AccessResult r = dcache_.access(addr, is_write);
    energy_.dcache_j += constants_->table.dcache_nj * kNanojoule;
    if (!r.hit) [[unlikely]] charge_miss(r.writeback);  // only a miss writes back
  }
  /// The stall and bus/DRAM energy of a D-cache miss, plus the transfer
  /// of the dirty line it evicts when `writeback`.
  void charge_miss(bool writeback);

  std::shared_ptr<const ClientConstants> constants_;
  CacheStats icache_stats_;  ///< accesses = fetches into the warm-up walk so far
  Cache dcache_;

  std::uint64_t cycles_ = 0;
  std::uint64_t stall_cycles_ = 0;
  std::uint64_t instructions_ = 0;
  EnergyBreakdown energy_;
};

}  // namespace mosaiq::sim
