// Dynamic voltage/frequency scaling for the mobile client.
//
// The paper treats the client clock as a fixed fraction of the server's
// (Section 6.1.3) and lists "processor power saving modes" among the
// factors governing the schemes (Section 4).  This module adds the
// standard DVFS ladder: running the same cycles at a lower frequency
// permits a lower supply voltage, and dynamic energy scales with V², so
// compute-bound work done slower is cheaper — until the fixed-power
// terms (NIC sleep, platform) eat the savings.
#pragma once

#include <limits>
#include <vector>

#include "sim/config.hpp"

namespace mosaiq::sim {

struct OperatingPoint {
  double clock_mhz = 125.0;
  double supply_v = 3.3;

  /// Dynamic-energy scale relative to the Table-3 nominal point
  /// (125 MHz @ 3.3 V): E ∝ V².
  double energy_scale() const {
    const double r = supply_v / 3.3;
    return r * r;
  }
};

/// A StrongARM-flavored ladder around the Table-3 nominal point.  The
/// voltage floor tracks frequency roughly linearly down to the
/// 0.35 µm process limit.
inline std::vector<OperatingPoint> default_opp_ladder() {
  return {
      {31.25, 1.55},
      {62.5, 2.10},
      {93.75, 2.70},
      {125.0, 3.30},  // Table 3 nominal
  };
}

/// Client configuration running at the given operating point: clock,
/// per-event energy scale, and wait-mode powers (∝ f·V²) all follow.
inline ClientConfig client_at_opp(const OperatingPoint& opp,
                                  const ClientConfig& nominal = ClientConfig{}) {
  ClientConfig cfg = nominal;
  const double fscale = opp.clock_mhz / nominal.clock_mhz;
  cfg.clock_mhz = opp.clock_mhz;
  cfg.energy_scale = opp.energy_scale();
  cfg.blocked_wait_w *= fscale * opp.energy_scale();
  cfg.lowpower_wait_w *= fscale * opp.energy_scale();
  return cfg;
}

/// Lowest-energy operating point whose predicted latency for
/// `busy_cycles` of work meets the deadline; falls back to the fastest
/// point when none does.
inline OperatingPoint pick_opp_for_deadline(const std::vector<OperatingPoint>& ladder,
                                            double busy_cycles, double deadline_s) {
  OperatingPoint fastest = ladder.front();
  for (const OperatingPoint& o : ladder) {
    if (o.clock_mhz > fastest.clock_mhz) fastest = o;
  }
  OperatingPoint best = fastest;
  double best_energy_rel = std::numeric_limits<double>::infinity();
  for (const OperatingPoint& o : ladder) {
    const double t = busy_cycles / (o.clock_mhz * 1e6);
    if (t > deadline_s) continue;
    // Energy ∝ cycles · V² (cycle count is frequency-invariant); only
    // the relative ordering across operating points matters here.
    const double e = busy_cycles * o.energy_scale();
    if (e < best_energy_rel) {
      best_energy_rel = e;
      best = o;
    }
  }
  return best;
}

}  // namespace mosaiq::sim
