// Query traversals shared by the spatial indexes.
//
// best_first is the one nearest-neighbor search of all six indexes:
// each supplies how it expands a node (what it charges and pushes) and
// how its heap is charged.  The packed R-tree and the insertion-built
// R-trees (Guttman's, the R*-tree and the dynamic Hilbert R-tree) also
// share the filters and the node expander: they differ in how they
// build and store nodes, not in how a query walks them.  Each simulates
// a node as one kNodeBytes block at base_addr + i * kNodeBytes (a
// header, then kEntryBytes per entry), so one traversal charges the
// same events for all of them.  A node type takes part by providing,
// for argument-dependent lookup:
//   is_leaf(n)         true for a leaf
//   entry_count(n)     number of entries
//   entry_rect(n, e)   entry e's box (any type with contains(Point),
//                      intersects(Rect) and dist2(Point), as geom::Rect
//                      and Mbr32 have)
//   entry_child(n, e)  entry e's child node (internal) or record (leaf)
// A tree whose root holds no entries is empty: a query charges nothing.
// The insertion-built trees also share one node pool and its queries
// (NodeTree).
//
// Every traversal is a template over its hooks type.  A caller holding
// a machine model (sim::ClientCpu or sim::ServerCpu, both final) gets a
// copy whose events are direct calls the compiler can inline; a caller
// holding ExecHooks& gets the type-erased copy.  Both come from the one
// source below, so they charge the same events in the same order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "geom/point.hpp"
#include "geom/predicates.hpp"
#include "geom/rect.hpp"
#include "rtree/costs.hpp"
#include "rtree/exec.hpp"
#include "rtree/node.hpp"
#include "rtree/query.hpp"  // NNResult
#include "rtree/segment_store.hpp"

namespace mosaiq::rtree {

/// Depth-first filtering: appends the leaf entries whose box satisfies
/// `pred` to `out`, descending into every internal entry that does.
/// Each entry test is charged `pred_cost`.
template <typename Node, typename Hooks, typename Pred>
void filter_dfs(const std::vector<Node>& nodes, std::uint32_t root, std::uint64_t base_addr,
                Hooks& hooks, const InstrMix& pred_cost, Pred&& pred,
                std::vector<std::uint32_t>& out) {
  if (nodes.empty() || entry_count(nodes[root]) == 0) return;
  std::uint64_t result_addr = simaddr::kScratchBase;
  std::vector<std::uint32_t> stack{root};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const Node& n = nodes[ni];
    const std::uint64_t na = base_addr + std::uint64_t{ni} * kNodeBytes;
    hooks.instr(costs::kNodeVisit);
    hooks.read(na, kNodeHeaderBytes);
    for (std::size_t e = 0; e < entry_count(n); ++e) {
      hooks.instr(costs::kEntryLoop);
      hooks.instr(pred_cost);
      hooks.read(na + kNodeHeaderBytes + e * kEntryBytes, kEntryBytes);
      if (!pred(entry_rect(n, e))) continue;
      if (is_leaf(n)) {
        hooks.instr(costs::kResultPush);
        hooks.write(result_addr, 4);
        result_addr += 4;
        out.push_back(entry_child(n, e));
      } else {
        stack.push_back(entry_child(n, e));
      }
    }
  }
}

/// Point-query filtering: candidates whose box contains `p`.
template <typename Node, typename Hooks>
void point_dfs(const std::vector<Node>& nodes, std::uint32_t root, std::uint64_t base_addr,
               const geom::Point& p, Hooks& hooks, std::vector<std::uint32_t>& out) {
  filter_dfs(nodes, root, base_addr, hooks, costs::kRectContainsPoint,
             [&](const auto& box) { return box.contains(p); }, out);
}

/// Range-query filtering: candidates whose box meets `window`.
template <typename Node, typename Hooks>
void range_dfs(const std::vector<Node>& nodes, std::uint32_t root, std::uint64_t base_addr,
               const geom::Rect& window, Hooks& hooks, std::vector<std::uint32_t>& out) {
  filter_dfs(nodes, root, base_addr, hooks, costs::kRectOverlap,
             [&](const auto& box) { return box.intersects(window); }, out);
}

/// Heap charges of the insertion-built R-trees and the space
/// partitioning indexes: one kHeapOp per push and per pop, and the
/// root's push is free.
struct HeapOps {
  template <typename Hooks>
  void root(Hooks& /*hooks*/) {}
  template <typename Hooks>
  void push(Hooks& hooks, std::size_t /*size*/) {
    hooks.instr(costs::kHeapOp);
  }
  template <typename Hooks>
  void pop(Hooks& hooks) {
    hooks.instr(costs::kHeapOp);
  }
};

/// The packed tree's heap, 16-byte items in scratch memory: each push,
/// the root's included, charges a kHeapOp and writes an item near the
/// heap's end, and each pop charges a kHeapOp and reads the top.
struct ScratchHeap {
  static constexpr std::uint64_t kBase = simaddr::kScratchBase + (1u << 20);
  std::uint64_t hint = kBase;

  template <typename Hooks>
  void root(Hooks& hooks) {
    push(hooks, 0);
  }
  template <typename Hooks>
  void push(Hooks& hooks, std::size_t size) {
    hooks.instr(costs::kHeapOp);
    hooks.write(hint, 16);
    hint = kBase + (size % 4096) * 16;
  }
  template <typename Hooks>
  void pop(Hooks& hooks) {
    hooks.instr(costs::kHeapOp);
    hooks.read(kBase, 16);
  }
};

/// Best-first k-NN (Roussopoulos et al., SIGMOD'95), the one search
/// every index runs.  Node `root` pops first; each node that pops goes
/// to `expand(idx, push)`, which charges the node's own events and
/// calls push(d, is_record, idx) for what it holds: a child node at its
/// box's squared distance, a record at its exact one.  Records thus pop
/// in ascending distance, and `heap_cost` charges every push and pop.
/// A record reached through several leaves is reported once.  Returns
/// the k nearest, or fewer when the index holds fewer.
template <typename Hooks, typename HeapCost, typename Expand>
std::vector<NNResult> best_first(std::uint32_t root, std::uint32_t k, const SegmentStore& store,
                                 Hooks& hooks, HeapCost heap_cost, Expand&& expand) {
  std::vector<NNResult> out;
  if (k == 0) return out;
  struct Item {
    double d;
    bool is_record;
    std::uint32_t idx;
    bool operator>(const Item& o) const { return d > o.d; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const auto push = [&](double d, bool is_record, std::uint32_t idx) {
    heap_cost.push(hooks, heap.size());
    heap.push({d, is_record, idx});
  };
  heap_cost.root(hooks);
  heap.push({0.0, false, root});
  while (!heap.empty()) {
    heap_cost.pop(hooks);
    const Item it = heap.top();
    heap.pop();
    if (!it.is_record) {
      expand(it.idx, push);
      continue;
    }
    // At most k records are reported, so a linear scan finds a repeat
    // (and keeps unordered containers off the hot path).
    if (std::any_of(out.begin(), out.end(),
                    [&](const NNResult& r) { return r.record == it.idx; })) {
      continue;
    }
    out.push_back(NNResult{it.idx, store.id(it.idx), std::sqrt(it.d)});
    if (out.size() == k) break;
  }
  return out;
}

/// The best-first expander of the R-tree nodes, packed and
/// insertion-built: a node charges its visit and header, then each entry
/// its read and the distance it enters the heap at, a record's exact
/// distance after fetching it or a child's box distance.
template <typename Node, typename Hooks, typename HeapCost>
std::vector<NNResult> best_first_knn(const std::vector<Node>& nodes, std::uint32_t root,
                                     std::uint64_t base_addr, const geom::Point& p,
                                     std::uint32_t k, const SegmentStore& store, Hooks& hooks,
                                     HeapCost heap_cost) {
  if (nodes.empty() || entry_count(nodes[root]) == 0) return {};
  return best_first(root, k, store, hooks, heap_cost, [&](std::uint32_t ni, const auto& push) {
    const Node& n = nodes[ni];
    const std::uint64_t na = base_addr + std::uint64_t{ni} * kNodeBytes;
    hooks.instr(costs::kNodeVisit);
    hooks.read(na, kNodeHeaderBytes);
    for (std::size_t e = 0; e < entry_count(n); ++e) {
      const std::uint32_t child = entry_child(n, e);
      hooks.instr(costs::kEntryLoop);
      hooks.read(na + kNodeHeaderBytes + e * kEntryBytes, kEntryBytes);
      if (is_leaf(n)) {
        const geom::Segment& s = store.fetch(child, hooks);
        hooks.instr(costs::kPointSegDist2);
        push(geom::point_segment_dist2(p, s), true, child);
      } else {
        hooks.instr(costs::kRectDist2);
        push(entry_rect(n, e).dist2(p), false, child);
      }
    }
  });
}

/// The node pool of the insertion-built R-trees (Guttman's, the R*-tree
/// and the dynamic Hilbert R-tree) and the queries they share.  Node 0
/// is the first root.  A split keeps one half in the split node's slot
/// and appends the other, and a new root is appended too, so every
/// pooled node is reachable and the pool's size is the node count.
template <typename Node>
class NodeTree {
 public:
  std::size_t size() const { return size_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::uint32_t height() const { return height_; }
  std::uint64_t bytes() const { return nodes_.size() * std::uint64_t{kNodeBytes}; }

  void filter_point(const geom::Point& p, ExecHooks& hooks,
                    std::vector<std::uint32_t>& out) const {
    point_dfs(nodes_, root_, base_addr_, p, hooks, out);
  }
  void filter_range(const geom::Rect& window, ExecHooks& hooks,
                    std::vector<std::uint32_t>& out) const {
    range_dfs(nodes_, root_, base_addr_, window, hooks, out);
  }
  std::optional<NNResult> nearest(const geom::Point& p, const SegmentStore& store,
                                  ExecHooks& hooks) const {
    return nearest_of(nearest_k(p, 1, store, hooks));
  }
  /// The k nearest segments, ascending by distance.
  std::vector<NNResult> nearest_k(const geom::Point& p, std::uint32_t k,
                                  const SegmentStore& store, ExecHooks& hooks) const {
    return best_first_knn(nodes_, root_, base_addr_, p, k, store, hooks, HeapOps{});
  }

 protected:
  explicit NodeTree(std::uint64_t base_addr) : base_addr_(base_addr) {}

  std::vector<Node> nodes_{Node{}};
  std::uint32_t root_ = 0;
  std::uint32_t height_ = 1;  ///< number of levels (1 = root is a leaf)
  std::size_t size_ = 0;      ///< records inserted
  std::uint64_t base_addr_;
};

}  // namespace mosaiq::rtree
