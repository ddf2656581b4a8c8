#include "workload/query_gen.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace mosaiq::workload {

namespace {

/// Builds the paper's range window: area fraction in [1e-4, 1e-2] of the
/// extent, aspect ratio in [0.25, 4], clipped to the extent.
geom::Rect make_window(const geom::Rect& extent, const geom::Point& center, double area_frac,
                       double aspect) {
  const double area = extent.area() * area_frac;
  const double h = std::sqrt(area / aspect);
  const double w = area / h;
  geom::Rect r{{center.x - w * 0.5, center.y - h * 0.5}, {center.x + w * 0.5, center.y + h * 0.5}};
  return geom::intersection(r, extent);
}

}  // namespace

std::uint32_t QueryGen::pick_segment() {
  if (dataset_->store.size() == 0) {
    throw std::invalid_argument("QueryGen: the dataset has no segments to draw a query from");
  }
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(dataset_->store.size() - 1));
  return pick(rng_);
}

rtree::PointQuery QueryGen::point_query() {
  const geom::Segment& s = dataset_->store.segment(pick_segment());
  std::bernoulli_distribution which_end(0.5);
  return {which_end(rng_) ? s.a : s.b};
}

rtree::NNQuery QueryGen::nn_query() {
  std::uniform_real_distribution<double> ux(dataset_->extent.lo.x, dataset_->extent.hi.x);
  std::uniform_real_distribution<double> uy(dataset_->extent.lo.y, dataset_->extent.hi.y);
  return {{ux(rng_), uy(rng_)}};
}

rtree::KnnQuery QueryGen::knn_query(std::uint32_t k) {
  return {nn_query().p, k};
}

rtree::RouteQuery QueryGen::route_query(std::uint32_t n_waypoints, double leg_len) {
  std::uniform_real_distribution<double> heading0(0.0, 2 * 3.14159265358979);
  std::normal_distribution<double> drift(0.0, 0.5);

  rtree::RouteQuery q;
  geom::Point p = dataset_->store.segment(pick_segment()).midpoint();
  double heading = heading0(rng_);
  q.waypoints.push_back(p);
  for (std::uint32_t i = 1; i < std::max(2u, n_waypoints); ++i) {
    heading += drift(rng_);
    geom::Point next{p.x + leg_len * std::cos(heading), p.y + leg_len * std::sin(heading)};
    // Bounce off the extent instead of walking out of the map.
    if (!dataset_->extent.contains(next)) {
      heading += 3.14159265358979 / 2;
      next = {std::clamp(next.x, dataset_->extent.lo.x, dataset_->extent.hi.x),
              std::clamp(next.y, dataset_->extent.lo.y, dataset_->extent.hi.y)};
    }
    q.waypoints.push_back(next);
    p = next;
  }
  return q;
}

rtree::RangeQuery QueryGen::range_query() {
  // Log-uniform between the paper's bounds: magnification windows span
  // two orders of magnitude, so small windows are as likely as large.
  std::uniform_real_distribution<double> log_area(std::log(1e-4), std::log(1e-2));
  std::uniform_real_distribution<double> log_aspect(std::log(0.25), std::log(4.0));
  const geom::Point center = dataset_->store.segment(pick_segment()).midpoint();
  return {make_window(dataset_->extent, center, std::exp(log_area(rng_)),
                      std::exp(log_aspect(rng_)))};
}

rtree::RangeQuery QueryGen::range_query_near(const geom::Point& center, double jitter_radius,
                                             double area_lo, double area_hi) {
  std::uniform_real_distribution<double> jitter(-jitter_radius, jitter_radius);
  std::uniform_real_distribution<double> log_area(std::log(area_lo), std::log(area_hi));
  std::uniform_real_distribution<double> log_aspect(std::log(0.25), std::log(4.0));
  const geom::Point c{center.x + jitter(rng_), center.y + jitter(rng_)};
  return {make_window(dataset_->extent, c, std::exp(log_area(rng_)),
                      std::exp(log_aspect(rng_)))};
}

std::vector<rtree::Query> QueryGen::batch(rtree::QueryKind kind, std::size_t n) {
  std::vector<rtree::Query> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case rtree::QueryKind::Point: out.emplace_back(point_query()); break;
      case rtree::QueryKind::Range: out.emplace_back(range_query()); break;
      case rtree::QueryKind::NN: out.emplace_back(nn_query()); break;
      case rtree::QueryKind::Knn: out.emplace_back(knn_query(8)); break;
      case rtree::QueryKind::Route: out.emplace_back(route_query()); break;
    }
  }
  return out;
}

std::vector<rtree::Query> QueryGen::knn_batch(std::size_t n, std::uint32_t k) {
  std::vector<rtree::Query> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.emplace_back(knn_query(k));
  return out;
}

std::vector<ProximityBurst> make_proximity_workload(const Dataset& dataset,
                                                    std::uint32_t n_bursts,
                                                    std::uint32_t proximity,
                                                    double jitter_radius, std::uint64_t seed,
                                                    double follow_area_lo,
                                                    double follow_area_hi) {
  QueryGen gen(dataset, seed);
  std::vector<ProximityBurst> bursts;
  bursts.reserve(n_bursts);
  for (std::uint32_t b = 0; b < n_bursts; ++b) {
    ProximityBurst burst;
    const rtree::RangeQuery anchor = gen.range_query();
    burst.queries.push_back(anchor);
    const geom::Point c = anchor.window.center();
    for (std::uint32_t i = 0; i < proximity; ++i) {
      burst.queries.push_back(
          gen.range_query_near(c, jitter_radius, follow_area_lo, follow_area_hi));
    }
    bursts.push_back(std::move(burst));
  }
  return bursts;
}

}  // namespace mosaiq::workload
