// Machine configurations: Table 3 (mobile client) and Table 4 (server).
#pragma once

#include <cstdint>

#include "sim/cache.hpp"

namespace mosaiq::sim {

/// How the client CPU behaves while blocked on the network.
enum class WaitPolicy {
  BusyPoll,         ///< spin on the message-queue flag (burns datapath + I-cache)
  Block,            ///< pipeline stalled, clock running
  BlockLowPower,    ///< processor dropped into its low-power mode (default)
};

/// Table 3: single-issue 5-stage pipelined integer datapath.
struct ClientConfig {
  double clock_mhz = 125.0;  ///< Mhz_S/8 by default (server at 1 GHz)

  CacheConfig icache{16 * 1024, 4, 32};
  CacheConfig dcache{8 * 1024, 4, 32};
  std::uint32_t cache_hit_cycles = 1;
  std::uint32_t mem_latency_cycles = 100;

  /// Multiplier applied to every per-event dynamic energy (DVFS: V²
  /// relative to the 3.3 V nominal — see sim/dvfs.hpp).
  double energy_scale = 1.0;

  /// Average power drawn while merely *blocked* (pipeline stalled but
  /// fully clocked: clock tree, latches, refresh) — roughly 40% of the
  /// active power at 125 MHz.
  double blocked_wait_w = 0.030;

  /// Average power drawn in the CPU low-power wait mode (datapath and
  /// clock tree gated, PLL alive) — of the order of StrongARM idle mode.
  double lowpower_wait_w = 0.005;

  /// Footprint of the query/protocol kernel used to synthesize the
  /// instruction-fetch stream (fits the 16 KB I-cache after warm-up).
  std::uint32_t code_footprint_bytes = 8 * 1024;

  double clock_hz() const { return clock_mhz * 1e6; }
};

/// Disk subsystem behind the server's buffer cache (the paper assumes
/// requests are served from memory — Section 5.3 defers I/O modeling to
/// future work; this optional model lets bench/abl_server_io test that
/// assumption).  2001-era server disk: ~8 ms average seek + ~4 ms
/// rotational latency, ~30 MB/s media rate.
struct DiskConfig {
  double seek_s = 8e-3;
  double rotational_s = 4e-3;
  double transfer_mb_s = 30.0;

  double random_page_s(std::uint32_t page_bytes) const {
    return seek_s + rotational_s + sequential_page_s(page_bytes);
  }
  double sequential_page_s(std::uint32_t page_bytes) const {
    return static_cast<double>(page_bytes) / (transfer_mb_s * 1e6);
  }
};

/// Table 4: 4-issue superscalar with a two-level cache hierarchy.
struct ServerConfig {
  double clock_mhz = 1000.0;
  std::uint32_t issue_width = 4;

  CacheConfig l1d{32 * 1024, 2, 64};
  CacheConfig l2{1024 * 1024, 2, 128};

  std::uint32_t l2_hit_cycles = 12;
  std::uint32_t mem_latency_cycles = 80;

  std::uint32_t tlb_entries = 64;
  std::uint32_t page_bytes = 4096;
  std::uint32_t tlb_miss_cycles = 30;

  /// Fraction of memory stall cycles hidden by out-of-order execution
  /// (RUU 64 / LSQ 32 gives substantial but not total overlap).
  double stall_overlap = 0.6;

  /// When true, index/data pages live on disk behind a page-granular
  /// buffer cache of `buffer_cache_bytes`; buffer-cache misses pay the
  /// DiskConfig latencies.  Default false = the paper's in-memory
  /// assumption.
  bool disk_backed = false;
  std::uint64_t buffer_cache_bytes = 16ull << 20;
  std::uint32_t io_page_bytes = 8192;
  DiskConfig disk{};

  double clock_hz() const { return clock_mhz * 1e6; }
};

/// Client clock as a ratio of the server clock (the paper's C/S knob).
inline ClientConfig client_at_ratio(double ratio, const ServerConfig& server = {}) {
  ClientConfig c;
  c.clock_mhz = server.clock_mhz * ratio;
  return c;
}

}  // namespace mosaiq::sim
