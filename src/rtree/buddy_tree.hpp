// Buddy tree (after Seeger & Kriegel, VLDB'90) — the third spatial
// access method of the paper's reference-[2] comparison, alongside the
// packed R-tree and the PMR quadtree.
//
// Distinguishing properties kept faithfully:
//   - directory regions are BUDDY rectangles: recursive binary halvings
//     of the universe (radix splits on alternating axes), so sibling
//     regions never overlap and splits never need entry re-comparison
//     gymnastics;
//   - each directory entry stores the MINIMAL bounding rectangle of the
//     data inside its buddy, so queries prune on tight rects rather
//     than the full buddy cells.
// Records are assigned by segment midpoint (one leaf per record — no
// duplication, unlike the PMR quadtree); the stored MBR keeps queries
// exact for segments that poke out of their buddy.  Simplifications
// vs the full design, documented for honesty: no deletion (the paper's
// datasets are static), and the split axis alternates rather than being
// chosen adaptively.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "geom/rect.hpp"
#include "rtree/exec.hpp"
#include "rtree/node.hpp"
#include "rtree/query.hpp"  // NNResult
#include "rtree/segment_store.hpp"

namespace mosaiq::rtree {

class BuddyTree {
 public:
  explicit BuddyTree(const geom::Rect& universe,
                     std::uint64_t base_addr = simaddr::kIndexBase + (320ull << 20));

  static BuddyTree build(const SegmentStore& store);

  void insert(std::uint32_t rec, const geom::Segment& seg);

  std::size_t size() const { return size_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::uint32_t depth() const { return depth_; }
  std::uint64_t bytes() const { return nodes_.size() * std::uint64_t{kNodeBytes}; }

  void filter_point(const geom::Point& p, ExecHooks& hooks, std::vector<std::uint32_t>& out) const;
  void filter_range(const geom::Rect& window, ExecHooks& hooks,
                     std::vector<std::uint32_t>& out) const;
  std::optional<NNResult> nearest(const geom::Point& p, const SegmentStore& store,
                                  ExecHooks& hooks) const;
  std::vector<NNResult> nearest_k(const geom::Point& p, std::uint32_t k,
                                  const SegmentStore& store, ExecHooks& hooks) const;

  /// Invariants: buddy cells tile exactly, minimal rects are tight over
  /// the entries, record count matches; siblings' MINIMAL rects may
  /// overlap (segments poke out of their buddy) but buddy cells do not.
  bool validate(const SegmentStore& store) const;

 private:
  struct BEntry {
    geom::Rect mbr;        ///< minimal bounding rect of the subtree's data
    std::uint32_t record;  ///< record index (leaf entries)
  };
  struct BNode {
    bool leaf = true;
    geom::Rect cell;          ///< the buddy rectangle
    std::uint8_t split_axis = 0;
    geom::Rect mbr = geom::Rect::empty();  ///< minimal rect over the subtree
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    std::vector<BEntry> entries;  ///< leaf payload
  };

  void split(std::uint32_t ni, std::uint32_t level);
  /// Filtering descent shared by point and range queries: appends the
  /// records whose MBR satisfies `pred`, pruning subtrees whose minimal
  /// rect fails it.  Each test is charged `pred_cost`.
  template <typename Pred>
  void descend(const InstrMix& pred_cost, Pred&& pred, ExecHooks& hooks,
               std::vector<std::uint32_t>& out) const;
  std::uint64_t node_addr(std::uint32_t i) const {
    return base_addr_ + static_cast<std::uint64_t>(i) * kNodeBytes;
  }
  static geom::Point midpoint_of(const geom::Segment& s) { return s.midpoint(); }

  std::vector<BNode> nodes_{BNode{}};
  std::vector<geom::Point> mid_by_rec_;  ///< midpoints for split redistribution
  std::size_t size_ = 0;
  std::uint32_t depth_ = 1;
  std::uint32_t max_depth_ = 48;
  std::uint64_t base_addr_;
};

}  // namespace mosaiq::rtree
