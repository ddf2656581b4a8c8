// Dynamic R-tree (Guttman, SIGMOD'84) with quadratic split.
//
// The paper uses a *packed* R-tree because its datasets are static; this
// dynamic variant is kept as the ablation baseline (bench/abl_packing)
// and as an independent oracle for query-correctness tests: both trees
// must return identical answer sets for every query.  Its node pool
// and queries are NodeTree's (rtree/search.hpp); the R*-tree shares its
// split installation and its subtree choice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.hpp"
#include "geom/segment.hpp"
#include "rtree/exec.hpp"
#include "rtree/node.hpp"
#include "rtree/packed_rtree.hpp"
#include "rtree/search.hpp"
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

  /// Appends an entry and grows the node's MBR over it.
  void add(std::uint32_t child, const geom::Rect& r) {
    children.push_back(child);
    rects.push_back(r);
    mbr.expand(r);
  }

  // Node accessors of the shared traversals (rtree/search.hpp).
  friend bool is_leaf(const DynNode& n) { return n.leaf; }
  friend std::size_t entry_count(const DynNode& n) { return n.children.size(); }
  friend const geom::Rect& entry_rect(const DynNode& n, std::size_t e) { return n.rects[e]; }
  friend std::uint32_t entry_child(const DynNode& n, std::size_t e) { return n.children[e]; }
};

/// Structural invariants of a DynNode tree holding `records` records:
/// no node overflows, every node's MBR covers its entries, every
/// internal entry's rect covers its child and the child links back, the
/// leaves hold `records` entries in all, and every pooled node is
/// reachable from the root.
bool valid_dyn_tree(const std::vector<DynNode>& nodes, std::uint32_t root, std::size_t records);

/// Area growth of `mbr` when it is extended to cover `add`.
inline double enlargement(const geom::Rect& mbr, const geom::Rect& add) {
  return geom::unite(mbr, add).area() - mbr.area();
}

/// Guttman's subtree choice: the child of `n` whose rect grows least to
/// cover `mbr` (ties: the smaller rect, then the first).
std::uint32_t least_enlargement(const DynNode& n, const geom::Rect& mbr);

/// Installs the split of node `ni` into halves `a` and `b`: `a` takes
/// ni's slot, `b` is appended and its children are re-parented.  A
/// split root grows a new root above both halves (and `height`) and
/// returns kNoNode; otherwise `b` enters ni's parent, which is returned
/// for the caller to adjust or split.
std::uint32_t install_split(std::vector<DynNode>& nodes, std::uint32_t ni, DynNode a, DynNode b,
                            std::uint32_t& root, std::uint32_t& height);

class DynamicRTree : public NodeTree<DynNode> {
 public:
  explicit DynamicRTree(std::uint64_t base_addr = simaddr::kIndexBase + (64ull << 20))
      : NodeTree(base_addr) {}

  /// Inserts record `rec` (an index into the backing store) with MBR `mbr`.
  void insert(std::uint32_t rec, const geom::Rect& mbr);

  /// Convenience: inserts every record of a store.
  static DynamicRTree build(const SegmentStore& store);

  /// Structural invariants (parent MBRs cover children, record multiset
  /// matches insertions); used by tests.
  bool validate() const { return valid_dyn_tree(nodes_, root_, size_); }

 private:
  void split(std::uint32_t ni);
  void adjust_upward(std::uint32_t ni);
};

}  // namespace mosaiq::rtree
