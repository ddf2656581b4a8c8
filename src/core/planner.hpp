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
// Section 4.1 energy and latency expressions for the SessionConfig it
// plans for (its placement, channel, radio, protocol and clocks), and
// picks the argmin for the configured objective.  The estimation work
// itself is charged to the client CPU.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/session.hpp"
#include "rtree/query.hpp"
#include "workload/dataset.hpp"

namespace mosaiq::core {

enum class Objective : std::uint8_t { Energy, Latency };

inline const char* name_of(Objective o) {
  return o == Objective::Energy ? "energy" : "latency";
}

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
  Planner(const workload::Dataset& dataset, const SessionConfig& cfg);

  /// Predicts cost for one scheme under the config's data placement.
  SchemePrediction predict(Scheme scheme, const rtree::Query& q) const;

  /// The schemes able to run `q`, in Table-1 order, with their
  /// predictions; charges the estimation work (histogram probe + one
  /// model evaluation per scheme) to `cpu`.  They are the schemes
  /// scheme_runs() allows for the config's placement, less
  /// filter@server/refine@client without the data at the client.
  std::vector<SchemePrediction> options(const rtree::Query& q, rtree::ExecHooks& cpu) const;

  /// The first of `options` with the least cost for the objective.
  Scheme choose(const rtree::Query& q, Objective objective, rtree::ExecHooks& cpu) const;

  const DensityGrid& grid() const { return grid_; }

 private:
  SessionConfig cfg_;
  DensityGrid grid_;
};

}  // namespace mosaiq::core
