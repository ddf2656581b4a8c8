// Dynamic R-tree (Guttman, SIGMOD'84) with quadratic split.
//
// The paper uses a *packed* R-tree because its datasets are static; this
// dynamic variant is kept as the ablation baseline (bench/abl_packing)
// and as an independent oracle for query-correctness tests: both trees
// must return identical answer sets for every query.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "geom/rect.hpp"
#include "geom/segment.hpp"
#include "rtree/exec.hpp"
#include "rtree/node.hpp"
#include "rtree/packed_rtree.hpp"
#include "rtree/segment_store.hpp"

namespace mosaiq::rtree {

/// Node of the Guttman and R*-trees: child ids and their rects in
/// parallel arrays, plus a parent link for upward adjustment.
struct DynNode {
  bool leaf = true;
  geom::Rect mbr = geom::Rect::empty();
  std::vector<std::uint32_t> children;  ///< node indices or record indices
  std::vector<geom::Rect> rects;        ///< child MBRs (parallel array)
  std::uint32_t parent = kNoNode;

  // Node accessors of the shared traversals (rtree/search.hpp).
  friend bool is_leaf(const DynNode& n) { return n.leaf; }
  friend std::size_t entry_count(const DynNode& n) { return n.children.size(); }
  friend const geom::Rect& entry_rect(const DynNode& n, std::size_t e) { return n.rects[e]; }
  friend std::uint32_t entry_child(const DynNode& n, std::size_t e) { return n.children[e]; }
};

/// Structural invariants of a DynNode tree holding `records` records:
/// no node overflows, every node's MBR covers its entries, every
/// internal entry's rect covers its child and the child links back, and
/// the leaves hold `records` entries in all.
bool valid_dyn_tree(const std::vector<DynNode>& nodes, std::uint32_t root, std::size_t records);

class DynamicRTree {
 public:
  explicit DynamicRTree(std::uint64_t base_addr = simaddr::kIndexBase + (64ull << 20))
      : base_addr_(base_addr) {}

  /// Inserts record `rec` (an index into the backing store) with MBR `mbr`.
  void insert(std::uint32_t rec, const geom::Rect& mbr);

  /// Convenience: inserts every record of a store.
  static DynamicRTree build(const SegmentStore& store);

  std::size_t size() const { return size_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::uint32_t height() const { return height_; }
  std::uint64_t bytes() const { return nodes_.size() * std::uint64_t{kNodeBytes}; }

  void filter_point(const geom::Point& p, ExecHooks& hooks, std::vector<std::uint32_t>& out) const;
  void filter_range(const geom::Rect& window, ExecHooks& hooks,
                    std::vector<std::uint32_t>& out) const;

  std::optional<NNResult> nearest(const geom::Point& p, const SegmentStore& store,
                                  ExecHooks& hooks) const;

  /// The k nearest segments, ascending by distance.
  std::vector<NNResult> nearest_k(const geom::Point& p, std::uint32_t k,
                                  const SegmentStore& store, ExecHooks& hooks) const;

  /// Structural invariants (parent MBRs cover children, record multiset
  /// matches insertions); used by tests.
  bool validate() const { return valid_dyn_tree(nodes_, root_, size_); }

 private:
  std::uint32_t choose_leaf(const geom::Rect& mbr) const;
  void split(std::uint32_t ni);
  void adjust_upward(std::uint32_t ni);

  std::vector<DynNode> nodes_{DynNode{}};  // node 0 is the root
  std::uint32_t root_ = 0;
  std::uint32_t height_ = 1;
  std::size_t size_ = 0;
  std::uint64_t base_addr_;
};

}  // namespace mosaiq::rtree
