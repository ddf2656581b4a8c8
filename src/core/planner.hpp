// Per-query scheme selection — the paper's Section 4.1 trade-off model
// operationalized as an online planner (the paper's summary reads as a
// decision procedure for application developers; this module makes the
// decision programmatic and per-query).
//
// The planner runs on the CLIENT: it estimates the query's candidate
// and answer cardinalities from a coarse density histogram (a 32x32
// grid of record counts, ~4 KB, built once from the local index), turns
// them into predicted message sizes and compute cycles per scheme using
// the calibrated per-candidate costs of rtree/costs.hpp, evaluates the
// Section 4.1 energy and latency expressions, and picks the argmin for
// the configured objective.  The estimation work itself is charged to
// the client CPU.
#pragma once

#include <array>
#include <cstdint>

#include "core/scheme.hpp"
#include "rtree/query.hpp"
#include "workload/dataset.hpp"

namespace mosaiq::core {

enum class Objective : std::uint8_t { Energy, Latency };

inline const char* name_of(Objective o) {
  return o == Objective::Energy ? "energy" : "latency";
}

/// The slice of the session configuration the planner's cost model
/// needs (kept separate from SessionConfig to avoid an include cycle).
struct PlannerEnv {
  bool data_at_client = true;
  double bandwidth_mbps = 2.0;
  double distance_m = 1000.0;
  double client_mhz = 125.0;
  double server_mhz = 1000.0;
  /// Client processor+memory active power at this operating point (the
  /// Table-3 nominal draws ~70 mW; DVFS scales it by (f/f0)·(V/V0)²).
  double client_active_w = 0.07;
};

struct SessionConfig;

/// The planner's slice of `cfg`: placement, channel and clocks.
PlannerEnv planner_env(const SessionConfig& cfg);

/// Coarse record-count histogram over the extent, used for selectivity
/// estimation on the client.
class DensityGrid {
 public:
  static constexpr std::uint32_t kGrid = 32;

  explicit DensityGrid(const workload::Dataset& dataset);

  /// Expected number of records whose midpoint falls in `window`.
  double estimate_records(const geom::Rect& window) const;

  std::uint64_t total() const { return total_; }

  /// Simulated footprint (one u32 per cell).
  static constexpr std::uint32_t bytes() { return kGrid * kGrid * 4; }

 private:
  geom::Rect extent_;
  std::array<std::uint32_t, kGrid * kGrid> counts_{};
  std::uint64_t total_ = 0;
};

/// What the planner predicts for one scheme on one query.
struct SchemePrediction {
  Scheme scheme = Scheme::FullyAtClient;
  double energy_j = 0;
  double latency_s = 0;
  double est_candidates = 0;
  double est_answers = 0;
};

class Planner {
 public:
  Planner(const workload::Dataset& dataset, const PlannerEnv& env);

  /// Predicts cost for one scheme (data placement taken from env).
  SchemePrediction predict(Scheme scheme, const rtree::Query& q) const;

  /// Picks the best applicable scheme for the objective, charging the
  /// estimation work (histogram probe + model evaluation) to `cpu`.
  Scheme choose(const rtree::Query& q, Objective objective, rtree::ExecHooks& cpu) const;

  const DensityGrid& grid() const { return grid_; }

 private:
  const workload::Dataset& data_;
  PlannerEnv env_;
  DensityGrid grid_;
};

}  // namespace mosaiq::core
