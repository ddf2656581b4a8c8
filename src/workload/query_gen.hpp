// Query workload generation (paper Section 5.4).
//
//   - Point queries: a randomly chosen endpoint of a dataset segment.
//   - Nearest-neighbor queries: a uniformly random point in the extent.
//   - Range queries: window area uniform in [0.01%, 1%] of the extent,
//     aspect ratio in [0.25, 4], centered on a density-weighted location
//     (a random segment midpoint — denser regions draw more windows).
//
// The standard experiment batch is 100 runs per query type, each run
// with fresh parameters; generators are deterministic given a seed.  The
// engine returns std::mt19937_64's sequence for the seed, but seeds and
// twists lazily: the fleet builds one generator per client for a query
// or two, and pays for the few state words those draws read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rng/lazy_mt19937_64.hpp"
#include "rtree/query.hpp"
#include "workload/dataset.hpp"

namespace mosaiq::workload {

class QueryGen {
 public:
  QueryGen(const Dataset& dataset, std::uint64_t seed)
      : dataset_(&dataset), rng_(seed) {}

  rtree::PointQuery point_query();
  rtree::NNQuery nn_query();
  rtree::RangeQuery range_query();

  /// k-nearest-neighbor query at a uniform point (extension query type).
  rtree::KnnQuery knn_query(std::uint32_t k);

  /// Driving-route query: a random walk of waypoints starting at a
  /// density-weighted street, each leg ~`leg_len` long with a drifting
  /// heading (extension query type).
  rtree::RouteQuery route_query(std::uint32_t n_waypoints = 8, double leg_len = 0.04);

  /// Range query centered near `center` (used by the proximity workloads
  /// of Section 6.2); `area_lo`/`area_hi` bound the window area as a
  /// fraction of the extent (log-uniform).
  rtree::RangeQuery range_query_near(const geom::Point& center, double jitter_radius,
                                     double area_lo = 1e-4, double area_hi = 1e-2);

  /// The next query of `kind` (kNN with k = 8); batch(kind, n) is n of
  /// these.
  rtree::Query query(rtree::QueryKind kind);

  std::vector<rtree::Query> batch(rtree::QueryKind kind, std::size_t n);

  /// Batch of kNN queries with a fixed k.
  std::vector<rtree::Query> knn_batch(std::size_t n, std::uint32_t k);

 private:
  /// A uniformly drawn segment index; throws std::invalid_argument when
  /// the dataset has no segments.
  std::uint32_t pick_segment();

  const Dataset* dataset_;
  rng::LazyMt19937_64 rng_;
};

/// The Section 6.2 workload: bursts of spatially proximate range
/// queries.  Each burst starts with an anchor query at a random
/// (density-weighted) location followed by `proximity` follow-up queries
/// whose centers lie within `jitter_radius` of the anchor.
struct ProximityBurst {
  std::vector<rtree::RangeQuery> queries;  ///< 1 anchor + proximity follow-ups
};

std::vector<ProximityBurst> make_proximity_workload(const Dataset& dataset,
                                                    std::uint32_t n_bursts,
                                                    std::uint32_t proximity,
                                                    double jitter_radius, std::uint64_t seed,
                                                    double follow_area_lo = 1e-5,
                                                    double follow_area_hi = 1e-3);

}  // namespace mosaiq::workload
