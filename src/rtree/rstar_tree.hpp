// R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD'90), the
// paper's reference [4]: the strongest *dynamic* R-tree variant, with
// min-overlap subtree choice, margin-driven axis split, and forced
// reinsertion.  Kept as an index baseline alongside the Guttman R-tree
// and the PMR quadtree (bench/ext_index_structures): the paper's point
// is that for *static* data the bulk-loaded packed R-tree beats all
// dynamic variants, and the R*-tree is the fairest dynamic contender.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.hpp"
#include "rtree/dynamic_rtree.hpp"  // DynNode, NodeTree
#include "rtree/exec.hpp"
#include "rtree/node.hpp"
#include "rtree/segment_store.hpp"

namespace mosaiq::rtree {

struct RStarConfig {
  /// Fraction of entries evicted on the first overflow per level per
  /// insertion (the paper's p = 30%).
  double reinsert_fraction = 0.3;
  /// Minimum fill fraction for split distributions (the paper's 40%).
  double min_fill = 0.4;
};

class RStarTree : public NodeTree<DynNode> {
 public:
  explicit RStarTree(RStarConfig cfg = {},
                     std::uint64_t base_addr = simaddr::kIndexBase + (192ull << 20))
      : NodeTree(base_addr), cfg_(cfg) {}

  static RStarTree build(const SegmentStore& store, RStarConfig cfg = {});

  void insert(std::uint32_t rec, const geom::Rect& mbr);

  /// Sum of pairwise overlap areas between sibling MBRs, a structural
  /// quality metric (lower is better; R* should beat Guttman).
  double total_sibling_overlap() const;

  bool validate() const { return valid_dyn_tree(nodes_, root_, size_); }

 private:
  struct Entry {
    std::uint32_t child;
    geom::Rect rect;
  };

  std::uint32_t choose_subtree(const geom::Rect& mbr, std::uint32_t target_level) const;
  void insert_at_level(Entry e, std::uint32_t target_level, bool is_record,
                       std::uint32_t depth_budget);
  void overflow(std::uint32_t ni, std::uint32_t level, std::uint32_t depth_budget);
  void split(std::uint32_t ni);
  void recompute_mbr(std::uint32_t ni);
  void adjust_upward(std::uint32_t ni);
  std::uint32_t level_of(std::uint32_t ni) const;  ///< 0 = leaf

  RStarConfig cfg_;
  /// Levels that already reinserted during the current insertion.
  std::vector<bool> reinserted_;
};

}  // namespace mosaiq::rtree
