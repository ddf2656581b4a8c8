// Battery-aware server-side scheme scheduler — the fleet counterpart
// of core/planner.hpp.
//
// The planner answers "which scheme is cheapest for THIS query" from a
// single device's point of view.  A fleet server has a different
// problem: devices report heterogeneous battery states, and handing a
// client-heavy scheme to a client at 8% charge buys a little latency
// now at the cost of losing that client (and every query it still
// owes) minutes later.  This module biases the per-query partitioning
// decision by tracked battery state, BOINC-style (see
// /root/related/asgarciap__boinc/sched/: the scheduler keeps per-host
// exponentially smoothed averages and plans against them rather than
// against instantaneous samples):
//
//   * each client reports plugged/charge/capacity at admission and a
//     fresh charge fraction with every request;
//   * the server maintains an EMA of the client's observed discharge
//     power from (energy, duration) samples of completed work;
//   * a scalar work bias in [0,1] is derived from charge (linear ramp
//     between `low_charge` and `high_charge`) times a projected-runtime
//     factor (remaining energy over the EMA draw, against a target
//     horizon) — plugged clients pin the bias at 1;
//   * scheme choice minimizes bias-weighted normalized latency plus
//     (1-bias)-weighted normalized CLIENT energy over the planner's
//     options (Planner::options).  Bias 1 reproduces the latency
//     objective; bias 0 picks the scheme that spends the least client
//     energy regardless of how long the server takes.
//
// The scalarization makes the headline guarantee provable: over a
// fixed finite set of (latency, energy) predictions, the argmin's
// client energy is monotonically non-decreasing in the bias (ties
// broken toward lower client energy), so a LOWER charge can never be
// assigned MORE client work.  tests/test_scheduler.cpp pins this.
//
// Everything here is a pure deterministic function of reported state:
// no clocks, no RNG, so fleet runs replay bit-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "core/planner.hpp"

namespace mosaiq::core {

struct SchedulerConfig {
  /// Master switch: disabled fleets keep the per-client Planner path.
  bool enabled = false;
  /// Charge fraction at/below which the bias ramp reaches 0 (fully
  /// battery-protective: minimize client energy).
  double low_charge = 0.2;
  /// Charge fraction at/above which the ramp reaches 1 (performance
  /// only, as if plugged in).
  double high_charge = 0.8;
  /// Smoothing factor for the observed-discharge EMA (weight of the
  /// newest sample; BOINC uses the same one-pole form).
  double ema_alpha = 0.25;
  /// Target client lifetime.  When the EMA projects a client dying
  /// before this horizon, its bias shrinks proportionally even at
  /// moderate charge.
  double horizon_s = 600.0;
};

/// Per-client battery state as tracked by the server (reported values
/// plus the server's own discharge estimate — the server never sees
/// the sim::Battery object itself).
struct ClientBatteryReport {
  bool plugged = false;
  /// Last reported state of charge, fraction of a full battery.
  double charge_fraction = 1.0;
  /// Reported full-battery energy (drawn at the nominal rate).
  double capacity_j = 0.0;
  /// EMA of observed discharge power; 0 until the first sample.
  double discharge_w = 0.0;
  /// Number of (energy, duration) samples folded into the EMA.
  std::uint64_t samples = 0;
};

/// Server-side battery-aware scheme picker for a fleet of `clients`.
class BatteryScheduler {
 public:
  BatteryScheduler(const workload::Dataset& dataset, const SessionConfig& session,
                   const SchedulerConfig& cfg, std::uint32_t clients);

  /// Registers client `k`'s battery at admission time.
  void admit(std::uint32_t k, bool plugged, double charge_fraction, double capacity_j);

  /// Updates client `k`'s reported state of charge (piggybacked on each
  /// query request).
  void report_charge(std::uint32_t k, double charge_fraction);

  /// Folds one completed-work sample (`joules` spent over `seconds` of
  /// activity) into client `k`'s discharge EMA.  Non-positive durations
  /// and negative energies are ignored.
  void observe_draw(std::uint32_t k, double joules, double seconds);

  const ClientBatteryReport& report(std::uint32_t k) const { return reports_[k]; }

  /// The work bias in [0,1] for client `k`: 1 = performance only,
  /// 0 = spend as little of the client's battery as possible.
  /// Monotonically non-decreasing in the reported charge.
  double client_work_bias(std::uint32_t k) const;

  /// Picks the scheme for client `k`'s query, charging the estimation
  /// work (one planner probe + model evaluations) to the SERVER's cpu
  /// — this is the point of the exercise: planning moves off-device.
  Scheme choose(std::uint32_t k, const rtree::Query& q, rtree::ExecHooks& server_cpu) const;

  const Planner& planner() const { return planner_; }
  const SchedulerConfig& config() const { return cfg_; }

 private:
  SchedulerConfig cfg_;
  Planner planner_;
  std::vector<ClientBatteryReport> reports_;
};

}  // namespace mosaiq::core
