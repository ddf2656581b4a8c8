// The three spatial query types of the paper (Section 3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "geom/segment.hpp"

namespace mosaiq::rtree {

/// All line segments intersecting a given point (street under the pen).
struct PointQuery {
  geom::Point p;
};

/// All line segments intersecting a rectangular window (map magnify).
struct RangeQuery {
  geom::Rect window;
};

/// The nearest line segment to a given point (closest street).
struct NNQuery {
  geom::Point p;
};

/// The k nearest line segments to a given point, ordered by distance
/// (extension beyond the paper: "consideration of other spatial
/// queries", Section 7).
struct KnnQuery {
  geom::Point p;
  std::uint32_t k = 1;
};

/// All line segments crossed by a driving route (a waypoint polyline):
/// the "driving directions" workload from the paper's introduction.
/// Like point/range queries this has a filtering step (index traversal
/// against the route legs) and a refinement step (exact segment/segment
/// tests), so every Table-1 partitioning scheme applies.
struct RouteQuery {
  std::vector<geom::Point> waypoints;  ///< >= 2 points; legs join neighbors

  std::size_t legs() const { return waypoints.size() < 2 ? 0 : waypoints.size() - 1; }
  geom::Segment leg(std::size_t i) const { return {waypoints[i], waypoints[i + 1]}; }
};

using Query = std::variant<PointQuery, RangeQuery, NNQuery, KnnQuery, RouteQuery>;

/// One answer of a (k-)nearest-neighbor search.
struct NNResult {
  std::uint32_t record = 0;  ///< record index in the store
  std::uint32_t id = 0;      ///< external object id
  double dist = 0.0;
};

/// The nearest result of a k-NN answer, if it has one.
inline std::optional<NNResult> nearest_of(const std::vector<NNResult>& knn) {
  if (knn.empty()) return std::nullopt;
  return knn.front();
}

enum class QueryKind : std::uint8_t { Point, Range, NN, Knn, Route };

inline QueryKind kind_of(const Query& q) {
  return static_cast<QueryKind>(q.index());
}

inline const char* name_of(QueryKind k) {
  switch (k) {
    case QueryKind::Point: return "point";
    case QueryKind::Range: return "range";
    case QueryKind::NN: return "nn";
    case QueryKind::Knn: return "knn";
    case QueryKind::Route: return "route";
  }
  return "?";
}

}  // namespace mosaiq::rtree
