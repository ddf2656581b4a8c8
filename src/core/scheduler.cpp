#include "core/scheduler.hpp"

#include <algorithm>
#include <limits>

namespace mosaiq::core {

BatteryScheduler::BatteryScheduler(const workload::Dataset& dataset,
                                   const SessionConfig& session, const SchedulerConfig& cfg,
                                   std::uint32_t clients)
    : cfg_(cfg), planner_(dataset, session), reports_(clients) {}

void BatteryScheduler::admit(std::uint32_t k, bool plugged, double charge_fraction,
                             double capacity_j) {
  ClientBatteryReport& r = reports_[k];
  r.plugged = plugged;
  r.charge_fraction = std::clamp(charge_fraction, 0.0, 1.0);
  r.capacity_j = std::max(capacity_j, 0.0);
  r.discharge_w = 0.0;
  r.samples = 0;
}

void BatteryScheduler::report_charge(std::uint32_t k, double charge_fraction) {
  reports_[k].charge_fraction = std::clamp(charge_fraction, 0.0, 1.0);
}

void BatteryScheduler::observe_draw(std::uint32_t k, double joules, double seconds) {
  if (seconds <= 0.0 || joules < 0.0) return;
  ClientBatteryReport& r = reports_[k];
  const double draw_w = joules / seconds;
  // One-pole EMA seeded by the first sample (BOINC's sched averages do
  // the same so a fresh host is not anchored at zero).
  r.discharge_w = r.samples == 0
                      ? draw_w
                      : cfg_.ema_alpha * draw_w + (1.0 - cfg_.ema_alpha) * r.discharge_w;
  ++r.samples;
}

double BatteryScheduler::client_work_bias(std::uint32_t k) const {
  const ClientBatteryReport& r = reports_[k];
  if (r.plugged) return 1.0;
  // Linear ramp: 0 at/below low_charge, 1 at/above high_charge.  Both
  // factors below are non-decreasing in charge_fraction, so the
  // product — and hence the chosen scheme's client energy — is
  // monotone in charge (tests/test_scheduler.cpp).
  const double span = std::max(cfg_.high_charge - cfg_.low_charge, 1e-9);
  double bias = std::clamp((r.charge_fraction - cfg_.low_charge) / span, 0.0, 1.0);
  if (r.discharge_w > 0.0 && r.capacity_j > 0.0 && cfg_.horizon_s > 0.0) {
    // Projected runtime at the observed draw: a client predicted to
    // die before the horizon sheds client work proportionally even at
    // moderate charge.
    const double energy_left_j = r.charge_fraction * r.capacity_j;
    const double projected_runtime_s = energy_left_j / r.discharge_w;
    bias *= std::clamp(projected_runtime_s / cfg_.horizon_s, 0.0, 1.0);
  }
  return bias;
}

Scheme BatteryScheduler::choose(std::uint32_t k, const rtree::Query& q,
                                rtree::ExecHooks& server_cpu) const {
  // The planner's options, with their estimation work billed to the
  // server.  The scalarization needs the per-axis maxima for
  // normalization before any scheme can be scored.
  const std::vector<SchemePrediction> preds = planner_.options(q, server_cpu);
  const double bias = client_work_bias(k);
  double max_latency_s = 0.0;
  double max_energy_j = 0.0;
  for (const SchemePrediction& p : preds) {
    max_latency_s = std::max(max_latency_s, p.latency_s);
    max_energy_j = std::max(max_energy_j, p.energy_j);
  }

  const double latency_norm = std::max(max_latency_s, 1e-300);
  const double energy_norm = std::max(max_energy_j, 1e-300);
  Scheme best = Scheme::FullyAtClient;
  double best_cost = std::numeric_limits<double>::infinity();
  double best_energy_j = std::numeric_limits<double>::infinity();
  for (const SchemePrediction& p : preds) {
    const double cost =
        bias * (p.latency_s / latency_norm) + (1.0 - bias) * (p.energy_j / energy_norm);
    // Ties break toward lower client energy: this is what upgrades the
    // exchange argument from "related" to "monotone" at bias values
    // where two schemes score exactly equal.
    if (cost < best_cost || (cost == best_cost && p.energy_j < best_energy_j)) {
      best_cost = cost;
      best = p.scheme;
      best_energy_j = p.energy_j;
    }
  }
  return best;
}

}  // namespace mosaiq::core
