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
#include <optional>
#include <vector>

#include "geom/rect.hpp"
#include "rtree/dynamic_rtree.hpp"  // DynNode
#include "rtree/exec.hpp"
#include "rtree/node.hpp"
#include "rtree/query.hpp"  // NNResult
#include "rtree/segment_store.hpp"

namespace mosaiq::rtree {

struct RStarConfig {
  /// Fraction of entries evicted on the first overflow per level per
  /// insertion (the paper's p = 30%).
  double reinsert_fraction = 0.3;
  /// Minimum fill fraction for split distributions (the paper's 40%).
  double min_fill = 0.4;
};

class RStarTree {
 public:
  explicit RStarTree(RStarConfig cfg = {},
                     std::uint64_t base_addr = simaddr::kIndexBase + (192ull << 20));

  static RStarTree build(const SegmentStore& store, RStarConfig cfg = {});

  void insert(std::uint32_t rec, const geom::Rect& mbr);

  std::size_t size() const { return size_; }
  std::size_t node_count() const;
  std::uint32_t height() const { return height_; }
  std::uint64_t bytes() const { return node_count() * std::uint64_t{kNodeBytes}; }

  void filter_point(const geom::Point& p, ExecHooks& hooks, std::vector<std::uint32_t>& out) const;
  void filter_range(const geom::Rect& window, ExecHooks& hooks,
                    std::vector<std::uint32_t>& out) const;
  std::optional<NNResult> nearest(const geom::Point& p, const SegmentStore& store,
                                  ExecHooks& hooks) const;
  std::vector<NNResult> nearest_k(const geom::Point& p, std::uint32_t k,
                                  const SegmentStore& store, ExecHooks& hooks) const;

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
  std::vector<DynNode> nodes_{DynNode{}};
  std::uint32_t root_ = 0;
  std::uint32_t height_ = 1;
  std::size_t size_ = 0;
  std::uint64_t base_addr_;
  /// Levels that already reinserted during the current insertion.
  std::vector<bool> reinserted_;
};

}  // namespace mosaiq::rtree
