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
//
// The query kernels (the filters, the nearest-neighbor search and the
// refinement steps) are templates over the hooks type, as the shared
// traversals in rtree/search.hpp are: compiled once per machine model,
// and once more for ExecHooks&.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "geom/predicates.hpp"
#include "geom/rect.hpp"
#include "rtree/costs.hpp"
#include "rtree/exec.hpp"
#include "rtree/node.hpp"
#include "rtree/query.hpp"
#include "rtree/search.hpp"
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

  template <typename Hooks>
  void filter_point(const geom::Point& p, Hooks& hooks, std::vector<std::uint32_t>& out) const {
    point_dfs(nodes_, root_, base_addr_, p, hooks, out);
  }

  template <typename Hooks>
  void filter_range(const geom::Rect& window, Hooks& hooks,
                    std::vector<std::uint32_t>& out) const {
    range_dfs(nodes_, root_, base_addr_, window, hooks, out);
  }

  /// Candidates whose MBR meets any of the route legs (deduplicated —
  /// a record crossed by several legs appears once).
  template <typename Hooks>
  void filter_route(std::span<const geom::Segment> legs, Hooks& hooks,
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

  template <typename Hooks>
  std::optional<NNResult> nearest(const geom::Point& p, const SegmentStore& store,
                                  Hooks& hooks) const {
    return nearest_of(nearest_k(p, 1, store, hooks));
  }

  /// The k nearest segments, ascending by distance (fewer when the
  /// store holds fewer than k records).  Same pruned best-first search:
  /// data items pop from the priority queue in exact-distance order.
  template <typename Hooks>
  std::vector<NNResult> nearest_k(const geom::Point& p, std::uint32_t k,
                                  const SegmentStore& store, Hooks& hooks) const;

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

template <typename Hooks>
void PackedRTree::filter_route(std::span<const geom::Segment> legs, Hooks& hooks,
                               std::vector<std::uint32_t>& out) const {
  if (legs.empty()) return;
  // Cheap per-leg prefilter: the leg's own MBR vs the entry MBR, with
  // the exact (soft-float-priced) segment/rect test only on overlap.
  std::vector<geom::Rect> leg_mbrs;
  leg_mbrs.reserve(legs.size());
  for (const geom::Segment& l : legs) leg_mbrs.push_back(l.mbr());

  const std::size_t first_out = out.size();
  filter_dfs(nodes_, root_, base_addr_, hooks, InstrMix{}, [&](const Mbr32& m) {
    const geom::Rect r = m.rect();
    for (std::size_t i = 0; i < legs.size(); ++i) {
      hooks.instr(costs::kRectOverlap);
      if (!r.intersects(leg_mbrs[i])) continue;
      hooks.instr(costs::kSegRectIntersect);
      if (geom::segment_intersects_rect(legs[i], r)) return true;
    }
    return false;
  }, out);

  // A record can be reached through one leaf only, but its MBR may meet
  // several legs; the predicate short-circuits, so entries are already
  // unique.  Keep the contract explicit for future tree variants.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first_out), out.end());
  out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(first_out), out.end()),
            out.end());
}

template <typename Hooks>
std::vector<NNResult> PackedRTree::nearest_k(const geom::Point& p, std::uint32_t k,
                                             const SegmentStore& store, Hooks& hooks) const {
  std::vector<NNResult> out;
  if (nodes_.empty() || k == 0) return out;

  // Best-first search over a min-heap of (distance, kind, index) where
  // kind distinguishes node entries from data entries.  Heap elements are
  // 16 simulated bytes in scratch space.
  struct Item {
    double d;
    bool is_data;
    std::uint32_t idx;
    bool operator>(const Item& o) const { return d > o.d; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const std::uint64_t heap_base = simaddr::kScratchBase + (1u << 20);
  std::uint64_t heap_hint = heap_base;

  auto heap_push = [&](const Item& it) {
    hooks.instr(costs::kHeapOp);
    hooks.write(heap_hint, 16);
    heap_hint = heap_base + (heap.size() % 4096) * 16;
    heap.push(it);
  };
  auto heap_pop = [&]() {
    hooks.instr(costs::kHeapOp);
    hooks.read(heap_base, 16);
    Item it = heap.top();
    heap.pop();
    return it;
  };

  heap_push({0.0, false, root_});
  while (!heap.empty()) {
    const Item it = heap_pop();
    if (it.is_data) {
      out.push_back(NNResult{it.idx, store.id(it.idx), std::sqrt(it.d)});
      if (out.size() == k) return out;
      continue;
    }
    const Node& n = nodes_[it.idx];
    const std::uint64_t na = node_addr(it.idx);
    hooks.instr(costs::kNodeVisit);
    hooks.read(na, kNodeHeaderBytes);
    for (std::uint32_t e = 0; e < n.count; ++e) {
      hooks.instr(costs::kEntryLoop);
      hooks.read(na + kNodeHeaderBytes + e * kEntryBytes, kEntryBytes);
      if (n.is_leaf()) {
        // Exact distance to the data item (fetch + point-segment test).
        const geom::Segment& s = store.fetch(n.entries[e].child, hooks);
        hooks.instr(costs::kPointSegDist2);
        heap_push({geom::point_segment_dist2(p, s), true, n.entries[e].child});
      } else {
        hooks.instr(costs::kRectDist2);
        heap_push({n.entries[e].mbr.dist2(p), false, n.entries[e].child});
      }
    }
  }
  return out;  // fewer than k records in the store
}

// --- Refinement step --------------------------------------------------------
// Exact geometric tests over filtering candidates.  Outputs *external
// object ids* (what a query answer transmits on the wire).

/// The refinement loop shared by the three query kinds: fetch each
/// candidate's coordinates, test it with `hit`, and push the id of
/// every record that passes.
template <typename Hooks, typename Hit>
void refine_candidates(const SegmentStore& store, std::span<const std::uint32_t> candidates,
                       Hooks& hooks, Hit&& hit, std::vector<std::uint32_t>& out_ids) {
  std::uint64_t result_addr = simaddr::kScratchBase + (2u << 20);
  for (const std::uint32_t rec : candidates) {
    hooks.instr(costs::kCandidateFetch);
    if (!hit(store.fetch(rec, hooks))) continue;
    hooks.instr(costs::kResultPush);
    hooks.write(result_addr, 4);
    result_addr += 4;
    out_ids.push_back(store.id(rec));
  }
}

template <typename Hooks>
void refine_point(const SegmentStore& store, const geom::Point& p,
                  std::span<const std::uint32_t> candidates, Hooks& hooks,
                  std::vector<std::uint32_t>& out_ids) {
  refine_candidates(store, candidates, hooks, [&](const geom::Segment& s) {
    hooks.instr(costs::kPointOnSegment);
    return geom::point_on_segment(p, s);
  }, out_ids);
}

template <typename Hooks>
void refine_range(const SegmentStore& store, const geom::Rect& window,
                  std::span<const std::uint32_t> candidates, Hooks& hooks,
                  std::vector<std::uint32_t>& out_ids) {
  refine_candidates(store, candidates, hooks, [&](const geom::Segment& s) {
    hooks.instr(costs::kSegRectIntersect);
    return geom::segment_intersects_rect(s, window);
  }, out_ids);
}

template <typename Hooks>
void refine_route(const SegmentStore& store, std::span<const geom::Segment> legs,
                  std::span<const std::uint32_t> candidates, Hooks& hooks,
                  std::vector<std::uint32_t>& out_ids) {
  refine_candidates(store, candidates, hooks, [&](const geom::Segment& s) {
    for (const geom::Segment& l : legs) {
      hooks.instr(costs::kSegSegIntersect);
      if (geom::segments_intersect(s, l)) return true;
    }
    return false;
  }, out_ids);
}

}  // namespace mosaiq::rtree
