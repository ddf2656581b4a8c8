#include "sim/client_cpu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mosaiq::sim {

namespace {

/// Simulated base address of the code region (disjoint from data).
constexpr std::uint64_t kCodeBase = 0x0010'0000ull;

}  // namespace

ClientCpu::ClientCpu(const ClientConfig& cfg) : cfg_(cfg), dcache_(cfg.dcache) {
  assert(cfg.code_footprint_bytes % 4 == 0);
  assert(kCodeBase % cfg.icache.line_bytes == 0);
  table_.icache_nj = cacti_lite_nj(cfg.icache);
  table_.dcache_nj = cacti_lite_nj(cfg.dcache);
  // DVFS: dynamic energy scales with the supply voltage squared.
  table_.alu_nj *= cfg.energy_scale;
  table_.mul_nj *= cfg.energy_scale;
  table_.branch_nj *= cfg.energy_scale;
  table_.mem_op_nj *= cfg.energy_scale;
  table_.clock_nj *= cfg.energy_scale;
  table_.icache_nj *= cfg.energy_scale;
  table_.dcache_nj *= cfg.energy_scale;
  table_.bus_line_nj *= cfg.energy_scale;
  table_.dram_line_nj *= cfg.energy_scale;
}

void ClientCpu::fetch(std::uint64_t n) {
  // The first footprint/4 fetches walk the code footprint once, in order,
  // from the line-aligned kCodeBase: fetch i misses exactly when its PC
  // starts an I-cache line, whatever the geometry.  Afterwards the
  // footprint is resident (16 KB >= 8 KB) and every fetch hits, so only
  // energy is advanced and the stats stay at their warm values.
  const std::uint64_t walk = cfg_.code_footprint_bytes / 4;
  const std::uint64_t line_mask = cfg_.icache.line_bytes - 1;
  while (n > 0 && icache_stats_.accesses < walk) {
    const std::uint64_t pc = kCodeBase + 4 * icache_stats_.accesses;
    ++icache_stats_.accesses;
    if ((pc & line_mask) == 0) {
      ++icache_stats_.misses;
      stall_cycles_ += cfg_.mem_latency_cycles;
      cycles_ += cfg_.mem_latency_cycles;
      energy_.bus_j += table_.bus_line_nj * kNanojoule;
      energy_.dram_j += table_.dram_line_nj * kNanojoule;
    } else {
      ++icache_stats_.hits;
    }
    energy_.icache_j += table_.icache_nj * kNanojoule;
    --n;
  }
  if (n > 0) energy_.icache_j += static_cast<double>(n) * table_.icache_nj * kNanojoule;
}

void ClientCpu::instr(const rtree::InstrMix& mix) {
  const std::uint64_t n = mix.total();
  if (n == 0) return;
  instructions_ += n;
  cycles_ += n;  // single-issue: one cycle per instruction
  fetch(n);
  energy_.datapath_j += (mix.alu * table_.alu_nj + mix.mul * table_.mul_nj +
                         mix.branch * table_.branch_nj) *
                        kNanojoule;
  energy_.clock_j += static_cast<double>(n) * table_.clock_nj * kNanojoule;
}

void ClientCpu::dcache_line_access(std::uint64_t addr, bool is_write) {
  const auto r = dcache_.access(addr, is_write);
  energy_.dcache_j += table_.dcache_nj * kNanojoule;
  if (!r.hit) {
    stall_cycles_ += cfg_.mem_latency_cycles;
    cycles_ += cfg_.mem_latency_cycles;
    energy_.clock_j +=
        static_cast<double>(cfg_.mem_latency_cycles) * table_.clock_nj * kNanojoule;
    energy_.bus_j += table_.bus_line_nj * kNanojoule;
    energy_.dram_j += table_.dram_line_nj * kNanojoule;
  }
  if (r.writeback) {
    energy_.bus_j += table_.bus_line_nj * kNanojoule;
    energy_.dram_j += table_.dram_line_nj * kNanojoule;
  }
}

void ClientCpu::read(std::uint64_t addr, std::uint32_t bytes) {
  if (bytes == 0) return;
  // One word-sized load per 4 bytes; one D-cache array access per line
  // touched (sequential words within a line pipeline through it).
  const std::uint64_t line = cfg_.dcache.line_bytes;
  const std::uint64_t first = addr / line;
  const std::uint64_t last = (addr + bytes - 1) / line;
  const std::uint64_t words = (bytes + 3) / 4;

  instructions_ += words;
  cycles_ += words * cfg_.cache_hit_cycles;
  fetch(words);
  energy_.datapath_j += static_cast<double>(words) * table_.mem_op_nj * kNanojoule;
  energy_.clock_j += static_cast<double>(words) * table_.clock_nj * kNanojoule;
  // Every word access reads the data array; tag-check misses are resolved
  // at line granularity below.
  const std::uint64_t lines = last - first + 1;
  if (words > lines) {
    energy_.dcache_j += static_cast<double>(words - lines) * table_.dcache_nj * kNanojoule;
  }
  for (std::uint64_t l = first; l <= last; ++l) dcache_line_access(l * line, false);
}

void ClientCpu::write(std::uint64_t addr, std::uint32_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t line = cfg_.dcache.line_bytes;
  const std::uint64_t first = addr / line;
  const std::uint64_t last = (addr + bytes - 1) / line;
  const std::uint64_t words = (bytes + 3) / 4;

  instructions_ += words;
  cycles_ += words * cfg_.cache_hit_cycles;
  fetch(words);
  energy_.datapath_j += static_cast<double>(words) * table_.mem_op_nj * kNanojoule;
  energy_.clock_j += static_cast<double>(words) * table_.clock_nj * kNanojoule;
  const std::uint64_t lines = last - first + 1;
  if (words > lines) {
    energy_.dcache_j += static_cast<double>(words - lines) * table_.dcache_nj * kNanojoule;
  }
  for (std::uint64_t l = first; l <= last; ++l) dcache_line_access(l * line, true);
}

void ClientCpu::wait_seconds(double seconds, WaitPolicy policy) {
  if (seconds <= 0.0) return;
  switch (policy) {
    case WaitPolicy::BusyPoll: {
      // Spin loop: load the flag, test, branch — 3 instructions + 1 load
      // per iteration, 4 cycles per iteration, all hitting the caches.
      const auto iters = static_cast<std::uint64_t>(seconds * cfg_.clock_hz() / 4.0);
      for (std::uint64_t i = 0; i < iters; i += 1u << 16) {
        const std::uint64_t chunk = std::min<std::uint64_t>(1u << 16, iters - i);
        instr(rtree::InstrMix{chunk, 0, chunk});
        read(rtree::simaddr::kNetBase, static_cast<std::uint32_t>(4));
        // read() accounts one load; scale the remaining chunk-1 loads in bulk.
        if (chunk > 1) {
          instructions_ += chunk - 1;
          cycles_ += chunk - 1;
          fetch(chunk - 1);
          energy_.datapath_j += static_cast<double>(chunk - 1) * table_.mem_op_nj * kNanojoule;
          energy_.clock_j += static_cast<double>(chunk - 1) * table_.clock_nj * kNanojoule;
          energy_.dcache_j += static_cast<double>(chunk - 1) * table_.dcache_nj * kNanojoule;
        }
      }
      break;
    }
    case WaitPolicy::Block: {
      // Pipeline stalled but fully clocked.
      energy_.idle_j += seconds * cfg_.blocked_wait_w;
      break;
    }
    case WaitPolicy::BlockLowPower: {
      energy_.idle_j += seconds * cfg_.lowpower_wait_w;
      break;
    }
  }
}

double ClientCpu::average_active_power_w() const {
  if (cycles_ == 0) return 0.0;
  const EnergyBreakdown& e = energy_;
  const double active_j =
      e.datapath_j + e.clock_j + e.icache_j + e.dcache_j + e.bus_j + e.dram_j;
  return active_j / (static_cast<double>(cycles_) / cfg_.clock_hz());
}

}  // namespace mosaiq::sim
