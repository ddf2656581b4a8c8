// PMR quadtree for line segments (Nelson & Samet '87; Hoel & Samet '91).
//
// One of the three memory-resident spatial access methods compared by
// the paper's predecessor study (reference [2], "Analyzing Energy
// Behavior of Spatial Access Methods"); the work-partitioning paper
// standardizes on the packed R-tree, and this structure is kept as the
// cross-index baseline for bench/ext_index_structures.
//
// Structure: a region quadtree over the (squared) extent.  Each segment
// is stored in every leaf cell it intersects (so duplication is
// inherent and query answers must deduplicate).  A leaf whose occupancy
// exceeds the splitting threshold after an insertion splits exactly
// once (the PMR rule — children may transiently exceed the threshold),
// up to a maximum depth.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "geom/rect.hpp"
#include "rtree/exec.hpp"
#include "rtree/query.hpp"  // NNResult
#include "rtree/segment_store.hpp"

namespace mosaiq::rtree {

/// Simulated size of one quadtree node: header + 4 child indices for
/// internal nodes, header + bucket of record ids for leaves.  A single
/// fixed size keeps the address arithmetic simple (the bucket spills
/// into overflow nodes, modeled by chaining additional node-sized
/// blocks).
inline constexpr std::uint32_t kQuadNodeBytes = 80;

/// Record slots in one leaf block before it chains an overflow block.
inline constexpr std::uint32_t kQuadLeafSlots = 16;

struct PmrConfig {
  std::uint32_t split_threshold = 8;
  std::uint32_t max_depth = 16;
};

class PmrQuadtree {
 public:
  explicit PmrQuadtree(const geom::Rect& extent, PmrConfig cfg = {},
                       std::uint64_t base_addr = simaddr::kIndexBase + (128ull << 20));

  /// Builds over a whole store (insertion order = store order).
  static PmrQuadtree build(const SegmentStore& store, PmrConfig cfg = {});

  /// Inserts record `rec` with the given geometry.
  void insert(std::uint32_t rec, const geom::Segment& seg);

  std::size_t size() const { return size_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::uint32_t depth() const { return depth_; }

  /// Simulated footprint, counting overflow chaining.
  std::uint64_t bytes() const;

  // Filtering: candidate record indices, deduplicated.
  void filter_point(const geom::Point& p, ExecHooks& hooks, std::vector<std::uint32_t>& out) const;
  void filter_range(const geom::Rect& window, ExecHooks& hooks,
                    std::vector<std::uint32_t>& out) const;

  std::optional<NNResult> nearest(const geom::Point& p, const SegmentStore& store,
                                  ExecHooks& hooks) const;
  std::vector<NNResult> nearest_k(const geom::Point& p, std::uint32_t k,
                                  const SegmentStore& store, ExecHooks& hooks) const;

  /// Structural invariants: cell decomposition is exact, every record
  /// lives in exactly the leaves its geometry intersects.  O(n * leaves),
  /// test use only.
  bool validate(const SegmentStore& store) const;

 private:
  struct QNode {
    bool leaf = true;
    std::uint8_t depth = 0;
    geom::Rect cell;
    std::array<std::uint32_t, 4> children{};  ///< valid when !leaf
    std::vector<std::uint32_t> records;       ///< valid when leaf
  };

  void split(std::uint32_t ni);
  std::uint64_t node_addr(std::uint32_t i) const {
    return base_addr_ + static_cast<std::uint64_t>(i) * kQuadNodeBytes;
  }
  /// Charged read of a leaf's record list (header + chained blocks).
  void charge_leaf_scan(const QNode& n, std::uint64_t addr, ExecHooks& hooks) const;
  /// Filtering descent shared by point and range queries: appends every
  /// record of each leaf whose cell satisfies `pred` (a record appears
  /// once per such leaf).  Each cell test is charged `pred_cost`.
  template <typename Pred>
  void descend(const InstrMix& pred_cost, Pred&& pred, ExecHooks& hooks,
               std::vector<std::uint32_t>& out) const;

  PmrConfig cfg_;
  std::vector<QNode> nodes_;
  std::vector<geom::Segment> geom_by_rec_;  ///< geometry for split redistribution
  std::size_t size_ = 0;
  std::uint32_t depth_ = 1;
  std::uint64_t base_addr_;
};

}  // namespace mosaiq::rtree
