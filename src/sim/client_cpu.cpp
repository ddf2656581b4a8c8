#include "sim/client_cpu.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <utility>

namespace mosaiq::sim {

namespace {

/// Simulated base address of the code region (disjoint from data).
constexpr std::uint64_t kCodeBase = 0x0010'0000ull;

}  // namespace

ClientConstants::ClientConstants(const ClientConfig& c) : cfg(c) {
  assert(cfg.code_footprint_bytes % 4 == 0);
  assert(std::has_single_bit(cfg.icache.line_bytes));
  assert(kCodeBase % cfg.icache.line_bytes == 0);
  table.icache_nj = cacti_lite_nj(cfg.icache);
  table.dcache_nj = cacti_lite_nj(cfg.dcache);
  // DVFS: dynamic energy scales with the supply voltage squared.
  table.alu_nj *= cfg.energy_scale;
  table.mul_nj *= cfg.energy_scale;
  table.branch_nj *= cfg.energy_scale;
  table.mem_op_nj *= cfg.energy_scale;
  table.clock_nj *= cfg.energy_scale;
  table.icache_nj *= cfg.energy_scale;
  table.dcache_nj *= cfg.energy_scale;
  table.bus_line_nj *= cfg.energy_scale;
  table.dram_line_nj *= cfg.energy_scale;

  // The walk fetches PCs kCodeBase + 4i from a line-aligned base, so fetch
  // i starts a line exactly when 4i is a multiple of the line size.
  fetches_per_line = std::max<std::uint64_t>(cfg.icache.line_bytes / 4, 1);
  walk_fetches = cfg.code_footprint_bytes / 4;
  assert(std::has_single_bit(cfg.dcache.line_bytes));
  dcache_line_shift = static_cast<std::uint32_t>(std::countr_zero(cfg.dcache.line_bytes));
  walk_icache_j.assign(walk_fetches + 1, 0.0);
  for (std::size_t i = 1; i < walk_icache_j.size(); ++i) {
    walk_icache_j[i] = walk_icache_j[i - 1] + table.icache_nj * kNanojoule;
  }
}

ClientCpu::ClientCpu(const ClientConfig& cfg)
    : ClientCpu(std::make_shared<const ClientConstants>(cfg)) {}

ClientCpu::ClientCpu(std::shared_ptr<const ClientConstants> constants)
    : constants_(std::move(constants)), dcache_(constants_->cfg.dcache) {}

std::uint64_t ClientCpu::fetch_walk(std::uint64_t n) {
  // The first footprint/4 fetches walk the code footprint once, in order;
  // afterwards the footprint is resident (16 KB >= 8 KB) and every fetch
  // hits, so only energy is advanced and the stats stay at their warm
  // values.  A call's share of the walk is computed in closed form with
  // the bits of a per-fetch loop: icache_j is written only here, so
  // during the walk it is always walk_icache_j[accesses]; bus_j and
  // dram_j only ever add their one constant, one copy per transfer.
  const ClientConstants& c = *constants_;
  const std::uint64_t done = icache_stats_.accesses;
  const std::uint64_t steps = std::min(n, c.walk_fetches - done);
  const std::uint64_t end = done + steps;
  const std::uint64_t per_line = c.fetches_per_line;
  // Multiples of per_line in [done, end).
  const std::uint64_t misses =
      (end + per_line - 1) / per_line - (done + per_line - 1) / per_line;
  icache_stats_.accesses = end;
  icache_stats_.misses += misses;
  icache_stats_.hits = end - icache_stats_.misses;
  stall_cycles_ += misses * c.cfg.mem_latency_cycles;
  cycles_ += misses * c.cfg.mem_latency_cycles;
  for (std::uint64_t i = 0; i < misses; ++i) {
    energy_.bus_j += c.table.bus_line_nj * kNanojoule;
    energy_.dram_j += c.table.dram_line_nj * kNanojoule;
  }
  energy_.icache_j = c.walk_icache_j[end];
  // mosaiq-lint: allow(unsigned-wrap) — steps = min(n, ...) <= n
  return n - steps;
}

void ClientCpu::charge_miss(bool writeback) {
  const ClientConfig& cfg = constants_->cfg;
  const EnergyTable& t = constants_->table;
  stall_cycles_ += cfg.mem_latency_cycles;
  cycles_ += cfg.mem_latency_cycles;
  // mosaiq-lint: allow(unit-flow) — clock_nj is the clock tree's energy per cycle
  energy_.clock_j += static_cast<double>(cfg.mem_latency_cycles) * t.clock_nj * kNanojoule;
  energy_.bus_j += t.bus_line_nj * kNanojoule;
  energy_.dram_j += t.dram_line_nj * kNanojoule;
  if (writeback) {
    energy_.bus_j += t.bus_line_nj * kNanojoule;
    energy_.dram_j += t.dram_line_nj * kNanojoule;
  }
}

void ClientCpu::wait_seconds(double seconds, WaitPolicy policy) {
  if (seconds <= 0.0) return;
  const ClientConfig& cfg = constants_->cfg;
  const EnergyTable& t = constants_->table;
  switch (policy) {
    case WaitPolicy::BusyPoll: {
      // Spin loop: load the flag, test, branch — 3 instructions + 1 load
      // per iteration, 4 cycles per iteration, all hitting the caches.
      const auto iters = static_cast<std::uint64_t>(seconds * cfg.clock_hz() / 4.0);
      for (std::uint64_t i = 0; i < iters; i += 1u << 16) {
        const std::uint64_t chunk = std::min<std::uint64_t>(1u << 16, iters - i);
        instr(rtree::InstrMix{chunk, 0, chunk});
        read(rtree::simaddr::kNetBase, static_cast<std::uint32_t>(4));
        // read() accounts one load; scale the remaining chunk-1 loads in bulk.
        if (chunk > 1) {
          instructions_ += chunk - 1;
          cycles_ += chunk - 1;
          fetch(chunk - 1);
          energy_.datapath_j += static_cast<double>(chunk - 1) * t.mem_op_nj * kNanojoule;
          energy_.clock_j += static_cast<double>(chunk - 1) * t.clock_nj * kNanojoule;
          energy_.dcache_j += static_cast<double>(chunk - 1) * t.dcache_nj * kNanojoule;
        }
      }
      break;
    }
    case WaitPolicy::Block: {
      // Pipeline stalled but fully clocked.
      energy_.idle_j += seconds * cfg.blocked_wait_w;
      break;
    }
    case WaitPolicy::BlockLowPower: {
      energy_.idle_j += seconds * cfg.lowpower_wait_w;
      break;
    }
  }
}

double ClientCpu::average_active_power_w() const {
  if (cycles_ == 0) return 0.0;
  const EnergyBreakdown& e = energy_;
  const double active_j =
      e.datapath_j + e.clock_j + e.icache_j + e.dcache_j + e.bus_j + e.dram_j;
  return active_j / (static_cast<double>(cycles_) / constants_->cfg.clock_hz());
}

}  // namespace mosaiq::sim
