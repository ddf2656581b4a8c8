// Query traversals shared by the R-tree family.
//
// The packed R-tree and the insertion-built R-trees (Guttman's, the
// R*-tree and the dynamic Hilbert R-tree) differ in how they build and
// store nodes, not in how a query walks them.  Each simulates a node as
// one kNodeBytes block at base_addr + i * kNodeBytes (a header, then
// kEntryBytes per entry), so one traversal charges the same events for
// all of them.  A node type takes part by providing, for
// argument-dependent lookup:
//   is_leaf(n)         true for a leaf
//   entry_count(n)     number of entries
//   entry_rect(n, e)   entry e's box (any type with contains(Point),
//                      intersects(Rect) and dist2(Point), as geom::Rect
//                      and Mbr32 have)
//   entry_child(n, e)  entry e's child node (internal) or record (leaf)
// A tree whose root holds no entries is empty: a query charges nothing.
//
// Every traversal is a template over its hooks type.  A caller holding
// a machine model (sim::ClientCpu or sim::ServerCpu, both final) gets a
// copy whose events are direct calls the compiler can inline; a caller
// holding ExecHooks& gets the type-erased copy.  Both come from the one
// source below, so they charge the same events in the same order.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
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

/// Best-first k-NN (Roussopoulos et al., SIGMOD'95) for the
/// insertion-built R-trees: node entries enter the heap at their box's
/// distance and records at their exact distance, so records pop in
/// ascending distance.  Returns fewer than k when the tree holds fewer.
/// The packed tree keeps its own search, which also charges the heap's
/// simulated memory traffic.
template <typename Node, typename Hooks>
std::vector<NNResult> best_first_knn(const std::vector<Node>& nodes, std::uint32_t root,
                                     std::uint64_t base_addr, const geom::Point& p,
                                     std::uint32_t k, const SegmentStore& store, Hooks& hooks) {
  std::vector<NNResult> out;
  if (k == 0 || entry_count(nodes[root]) == 0) return out;
  struct Item {
    double d;
    bool is_data;
    std::uint32_t idx;
    bool operator>(const Item& o) const { return d > o.d; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.push({0.0, false, root});
  while (!heap.empty()) {
    hooks.instr(costs::kHeapOp);
    const Item it = heap.top();
    heap.pop();
    if (it.is_data) {
      out.push_back(NNResult{it.idx, store.id(it.idx), std::sqrt(it.d)});
      if (out.size() == k) return out;
      continue;
    }
    const Node& n = nodes[it.idx];
    const std::uint64_t na = base_addr + std::uint64_t{it.idx} * kNodeBytes;
    hooks.instr(costs::kNodeVisit);
    hooks.read(na, kNodeHeaderBytes);
    for (std::size_t e = 0; e < entry_count(n); ++e) {
      const std::uint32_t child = entry_child(n, e);
      hooks.instr(costs::kEntryLoop);
      hooks.read(na + kNodeHeaderBytes + e * kEntryBytes, kEntryBytes);
      if (is_leaf(n)) {
        const geom::Segment& s = store.fetch(child, hooks);
        hooks.instr(costs::kPointSegDist2);
        heap.push({geom::point_segment_dist2(p, s), true, child});
      } else {
        hooks.instr(costs::kRectDist2);
        heap.push({entry_rect(n, e).dist2(p), false, child});
      }
      hooks.instr(costs::kHeapOp);
    }
  }
  return out;
}

}  // namespace mosaiq::rtree
