// Hilbert-packed R-tree (Kamel & Faloutsos, CIKM'93; Roussopoulos &
// Leifker, SIGMOD'85) — the index structure of the paper.
//
// The tree is bulk-loaded bottom-up over data items sorted by the
// Hilbert value of their midpoint: consecutive runs of kNodeCapacity
// items form the leaves, and the process repeats level by level until a
// single root remains.  Nodes live in an array-backed pool with
// simulated addresses so that traversal produces a genuine memory
// reference stream for the cache simulator.
//
// Queries follow the paper's implementation: depth-first filtering for
// point and range queries (producing candidate ids for a separate
// refinement step) and a pruned best-first search for nearest-neighbor
// (Roussopoulos et al., SIGMOD'95), which has no separate
// filtering/refinement phases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "rtree/exec.hpp"
#include "rtree/node.hpp"
#include "rtree/segment_store.hpp"

namespace mosaiq::rtree {

/// How build() orders the items before packing.
enum class SortOrder {
  PreSorted,  ///< pack in store order (caller already Hilbert-sorted the store)
  Hilbert,    ///< sort by Hilbert key of the midpoint
  Morton,     ///< sort by Z-order key (ablation baseline)
  None,       ///< pack in arrival order (worst-case ablation baseline)
};

/// Sorts segments (and their parallel id array) by the Hilbert key of
/// their midpoints; the canonical preprocessing step before building a
/// store + packed tree with SortOrder::PreSorted.
void hilbert_sort(std::vector<geom::Segment>& segs, std::vector<std::uint32_t>& ids);

/// Number of nodes a packed tree over `n_items` occupies (all levels).
std::uint64_t packed_node_count(std::uint64_t n_items);

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

class PackedRTree {
 public:
  PackedRTree() = default;

  static PackedRTree build(const SegmentStore& store, SortOrder order = SortOrder::PreSorted,
                           std::uint64_t base_addr = simaddr::kIndexBase);

  bool empty() const { return nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  std::uint32_t height() const { return height_; }
  std::uint32_t root() const { return root_; }
  const Node& node(std::uint32_t i) const { return nodes_[i]; }

  /// Simulated address of node i.
  std::uint64_t node_addr(std::uint32_t i) const {
    return base_addr_ + static_cast<std::uint64_t>(i) * kNodeBytes;
  }

  /// Simulated memory footprint (bytes); also the wire size of the whole
  /// index when shipped.
  std::uint64_t bytes() const { return nodes_.size() * std::uint64_t{kNodeBytes}; }

  geom::Rect extent() const;

  // --- Filtering step -----------------------------------------------------
  // Appends candidate *record indices* to `out` (MBR-level matches; exact
  // answers require the refinement step below).

  void filter_point(const geom::Point& p, ExecHooks& hooks, std::vector<std::uint32_t>& out) const;
  void filter_range(const geom::Rect& window, ExecHooks& hooks,
                    std::vector<std::uint32_t>& out) const;

  /// Candidates whose MBR meets any of the route legs (deduplicated —
  /// a record crossed by several legs appears once).
  void filter_route(std::span<const geom::Segment> legs, ExecHooks& hooks,
                    std::vector<std::uint32_t>& out) const;

  /// Uninstrumented candidate count for a window (planning/tests only).
  std::uint64_t count_range(const geom::Rect& window) const;

  /// Leaves (node indices, in packed order) whose MBR intersects window.
  /// Traversal cost is charged to `hooks` (pass null_hooks() to plan).
  void leaves_intersecting(const geom::Rect& window, ExecHooks& hooks,
                           std::vector<std::uint32_t>& out) const;

  /// All leaf node indices in packed (Hilbert) order.
  std::vector<std::uint32_t> leaf_sequence() const;

  // --- Nearest neighbor (single combined phase) ---------------------------

  std::optional<NNResult> nearest(const geom::Point& p, const SegmentStore& store,
                                  ExecHooks& hooks) const;

  /// The k nearest segments, ascending by distance (fewer when the
  /// store holds fewer than k records).  Same pruned best-first search:
  /// data items pop from the priority queue in exact-distance order.
  std::vector<NNResult> nearest_k(const geom::Point& p, std::uint32_t k,
                                  const SegmentStore& store, ExecHooks& hooks) const;

  /// Structural invariants: every parent MBR covers its children, leaf
  /// entries reference valid records, every record is referenced exactly
  /// once.  Used by tests.
  bool validate(const SegmentStore& store) const;

 private:
  std::vector<Node> nodes_;
  std::uint32_t root_ = 0;
  std::uint32_t height_ = 0;  ///< number of levels (1 = root is a leaf)
  std::uint64_t base_addr_ = simaddr::kIndexBase;
};

// --- Refinement step --------------------------------------------------------
// Exact geometric tests over filtering candidates.  Outputs *external
// object ids* (what a query answer transmits on the wire).

void refine_point(const SegmentStore& store, const geom::Point& p,
                  std::span<const std::uint32_t> candidates, ExecHooks& hooks,
                  std::vector<std::uint32_t>& out_ids);

void refine_range(const SegmentStore& store, const geom::Rect& window,
                  std::span<const std::uint32_t> candidates, ExecHooks& hooks,
                  std::vector<std::uint32_t>& out_ids);

void refine_route(const SegmentStore& store, std::span<const geom::Segment> legs,
                  std::span<const std::uint32_t> candidates, ExecHooks& hooks,
                  std::vector<std::uint32_t>& out_ids);

}  // namespace mosaiq::rtree
