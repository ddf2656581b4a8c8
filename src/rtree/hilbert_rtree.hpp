// Dynamic Hilbert R-tree (Kamel & Faloutsos, VLDB'94) — the dynamic
// sibling of the paper's bulk-loaded packed R-tree [17].
//
// Every entry carries the Largest Hilbert Value (LHV) of its subtree
// and node entries stay sorted by it, so insertion descends by Hilbert
// key like a B+-tree and overflow is handled by *deferred splitting*:
// the overflowing node first redistributes with a cooperating sibling,
// and only when the sibling set is full does a 2-to-3 split create a
// node.  The payoff is node utilization well above Guttman's quadratic
// split, approaching the packed tree's — which is why it is the natural
// dynamic baseline for the static-vs-dynamic argument in
// bench/ext_index_structures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.hpp"
#include "hilbert/hilbert.hpp"
#include "rtree/exec.hpp"
#include "rtree/node.hpp"
#include "rtree/search.hpp"  // NodeTree
#include "rtree/segment_store.hpp"

namespace mosaiq::rtree {

/// Entry of a Hilbert R-tree node: its box, the Largest Hilbert Value
/// below it, and its child.
struct HEntry {
  geom::Rect rect;
  std::uint64_t lhv = 0;
  std::uint32_t child = 0;  ///< node index (internal) or record (leaf)
};

struct HNode {
  bool leaf = true;
  std::uint32_t parent = kNoNode;
  std::vector<HEntry> entries;  ///< ascending by lhv

  // Node accessors of the shared traversals (rtree/search.hpp).
  friend bool is_leaf(const HNode& n) { return n.leaf; }
  friend std::size_t entry_count(const HNode& n) { return n.entries.size(); }
  friend const geom::Rect& entry_rect(const HNode& n, std::size_t e) { return n.entries[e].rect; }
  friend std::uint32_t entry_child(const HNode& n, std::size_t e) { return n.entries[e].child; }
};

class HilbertRTree : public NodeTree<HNode> {
 public:
  /// The Hilbert mapper needs the data extent up front (as the paper's
  /// static setting provides); inserts outside it clamp to the boundary.
  explicit HilbertRTree(const geom::Rect& extent,
                        std::uint64_t base_addr = simaddr::kIndexBase + (256ull << 20))
      : NodeTree(base_addr), mapper_(extent) {}

  static HilbertRTree build(const SegmentStore& store);

  void insert(std::uint32_t rec, const geom::Segment& seg);

  /// Average node fill (entries / capacity) over all nodes — the
  /// deferred-split utilization claim, testable.
  double average_utilization() const;

  /// Invariants: per-node LHV ordering, parent rect/LHV consistency,
  /// record count, every pooled node reachable; test use.
  bool validate() const;

 private:
  std::uint32_t choose_leaf(std::uint64_t h) const;
  void insert_sorted(HNode& n, HEntry e);
  /// Handles an overflowing node by sibling redistribution or 2-to-3
  /// split, then the parent it may have overfilled.
  void handle_overflow(std::uint32_t ni);
  void refresh_ancestors(std::uint32_t ni);
  /// Recomputes this node's (rect, lhv) summary.
  HEntry summary_of(std::uint32_t ni) const;

  hilbert::Mapper mapper_;
};

}  // namespace mosaiq::rtree
