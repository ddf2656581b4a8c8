#include "rtree/packed_rtree.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>

#include "geom/predicates.hpp"
#include "hilbert/hilbert.hpp"
#include "rtree/costs.hpp"
#include "rtree/search.hpp"

namespace mosaiq::rtree {

namespace {

geom::Rect extent_of(std::span<const geom::Segment> segs) {
  geom::Rect r = geom::Rect::empty();
  for (const auto& s : segs) r.expand(s.mbr());
  return r;
}

/// Permutation sorting record indices by a curve key of their midpoints.
std::vector<std::uint32_t> curve_order(const SegmentStore& store, SortOrder order) {
  std::vector<std::uint32_t> perm(store.size());
  std::iota(perm.begin(), perm.end(), 0u);
  if (order == SortOrder::PreSorted || order == SortOrder::None || store.empty()) return perm;

  const hilbert::Mapper mapper(extent_of(store.segments()));
  std::vector<std::uint64_t> keys(store.size());
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    const geom::Point mid = store.segment(i).midpoint();
    keys[i] = order == SortOrder::Hilbert ? mapper.hilbert_key(mid) : mapper.morton(mid);
  }
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  return perm;
}

}  // namespace

void hilbert_sort(std::vector<geom::Segment>& segs, std::vector<std::uint32_t>& ids) {
  assert(ids.empty() || ids.size() == segs.size());
  if (segs.empty()) return;
  const hilbert::Mapper mapper(extent_of(segs));
  std::vector<std::uint32_t> perm(segs.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<std::uint64_t> keys(segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) keys[i] = mapper.hilbert_key(segs[i].midpoint());
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });

  std::vector<geom::Segment> segs2(segs.size());
  for (std::size_t i = 0; i < perm.size(); ++i) segs2[i] = segs[perm[i]];
  segs = std::move(segs2);
  if (!ids.empty()) {
    std::vector<std::uint32_t> ids2(ids.size());
    for (std::size_t i = 0; i < perm.size(); ++i) ids2[i] = ids[perm[i]];
    ids = std::move(ids2);
  }
}

std::uint64_t packed_node_count(std::uint64_t n_items) {
  if (n_items == 0) return 0;
  std::uint64_t total = 0;
  std::uint64_t level = n_items;
  do {
    level = (level + kNodeCapacity - 1) / kNodeCapacity;
    total += level;
  } while (level > 1);
  return total;
}

PackedRTree PackedRTree::build(const SegmentStore& store, SortOrder order,
                               std::uint64_t base_addr) {
  PackedRTree t;
  t.base_addr_ = base_addr;
  if (store.empty()) return t;

  const std::vector<std::uint32_t> perm = curve_order(store, order);

  // Level 0: leaves over consecutive runs of the ordered records.
  std::vector<std::uint32_t> level_nodes;  // node indices of the level being built
  for (std::size_t i = 0; i < perm.size(); i += kNodeCapacity) {
    Node n;
    n.level = 0;
    const std::size_t end = std::min(perm.size(), i + kNodeCapacity);
    for (std::size_t j = i; j < end; ++j) {
      n.entries[n.count++] = {Mbr32::from(store.segment(perm[j]).mbr()), perm[j]};
    }
    level_nodes.push_back(static_cast<std::uint32_t>(t.nodes_.size()));
    t.nodes_.push_back(n);
  }
  t.height_ = 1;

  // Upper levels until a single root remains.
  while (level_nodes.size() > 1) {
    std::vector<std::uint32_t> next;
    for (std::size_t i = 0; i < level_nodes.size(); i += kNodeCapacity) {
      Node n;
      n.level = t.height_;
      const std::size_t end = std::min(level_nodes.size(), i + kNodeCapacity);
      for (std::size_t j = i; j < end; ++j) {
        const Node& child = t.nodes_[level_nodes[j]];
        geom::Rect mbr = geom::Rect::empty();
        for (std::uint32_t e = 0; e < child.count; ++e) mbr.expand(child.entries[e].mbr.rect());
        n.entries[n.count++] = {Mbr32::from(mbr), level_nodes[j]};
      }
      next.push_back(static_cast<std::uint32_t>(t.nodes_.size()));
      t.nodes_.push_back(n);
    }
    level_nodes = std::move(next);
    ++t.height_;
  }
  t.root_ = level_nodes.front();
  return t;
}

geom::Rect PackedRTree::extent() const {
  geom::Rect r = geom::Rect::empty();
  if (nodes_.empty()) return r;
  const Node& n = nodes_[root_];
  for (std::uint32_t e = 0; e < n.count; ++e) r.expand(n.entries[e].mbr.rect());
  return r;
}

void PackedRTree::filter_point(const geom::Point& p, ExecHooks& hooks,
                               std::vector<std::uint32_t>& out) const {
  point_dfs(nodes_, root_, base_addr_, p, hooks, out);
}

void PackedRTree::filter_range(const geom::Rect& window, ExecHooks& hooks,
                               std::vector<std::uint32_t>& out) const {
  range_dfs(nodes_, root_, base_addr_, window, hooks, out);
}

void PackedRTree::filter_route(std::span<const geom::Segment> legs, ExecHooks& hooks,
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

std::uint64_t PackedRTree::count_range(const geom::Rect& window) const {
  std::vector<std::uint32_t> out;
  filter_range(window, null_hooks(), out);
  return out.size();
}

void PackedRTree::leaves_intersecting(const geom::Rect& window, ExecHooks& hooks,
                                      std::vector<std::uint32_t>& out) const {
  if (nodes_.empty()) return;
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const Node& n = nodes_[ni];
    const std::uint64_t na = node_addr(ni);
    hooks.instr(costs::kNodeVisit);
    hooks.read(na, kNodeHeaderBytes);
    if (n.is_leaf()) {
      out.push_back(ni);
      continue;
    }
    for (std::uint32_t e = 0; e < n.count; ++e) {
      hooks.instr(costs::kEntryLoop);
      hooks.instr(costs::kRectOverlap);
      hooks.read(na + kNodeHeaderBytes + e * kEntryBytes, kEntryBytes);
      if (n.entries[e].mbr.intersects(window)) {
        if (n.level == 1) {
          out.push_back(n.entries[e].child);
        } else {
          stack.push_back(n.entries[e].child);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::vector<std::uint32_t> PackedRTree::leaf_sequence() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_leaf()) out.push_back(i);
  }
  // Leaves are created first and in packed order, so indices are already
  // the Hilbert sequence.
  return out;
}

std::optional<NNResult> PackedRTree::nearest(const geom::Point& p, const SegmentStore& store,
                                             ExecHooks& hooks) const {
  return nearest_of(nearest_k(p, 1, store, hooks));
}

std::vector<NNResult> PackedRTree::nearest_k(const geom::Point& p, std::uint32_t k,
                                             const SegmentStore& store,
                                             ExecHooks& hooks) const {
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

bool PackedRTree::validate(const SegmentStore& store) const {
  if (nodes_.empty()) return store.empty();
  std::vector<bool> seen(store.size(), false);
  std::vector<std::uint32_t> stack{root_};
  std::size_t visited = 0;
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    if (ni >= nodes_.size()) return false;
    const Node& n = nodes_[ni];
    ++visited;
    if (n.count == 0 || n.count > kNodeCapacity) return false;
    for (std::uint32_t e = 0; e < n.count; ++e) {
      const geom::Rect mbr = n.entries[e].mbr.rect();
      if (n.is_leaf()) {
        const std::uint32_t rec = n.entries[e].child;
        if (rec >= store.size() || seen[rec]) return false;
        seen[rec] = true;
        const geom::Rect smbr = store.segment(rec).mbr();
        if (!mbr.contains(smbr)) return false;
      } else {
        const Node& child = nodes_[n.entries[e].child];
        if (child.level + 1 != n.level) return false;
        geom::Rect cover = geom::Rect::empty();
        for (std::uint32_t ce = 0; ce < child.count; ++ce) {
          cover.expand(child.entries[ce].mbr.rect());
        }
        if (!mbr.contains(cover)) return false;
        stack.push_back(n.entries[e].child);
      }
    }
  }
  if (visited != nodes_.size()) return false;
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

void refine_point(const SegmentStore& store, const geom::Point& p,
                  std::span<const std::uint32_t> candidates, ExecHooks& hooks,
                  std::vector<std::uint32_t>& out_ids) {
  std::uint64_t result_addr = simaddr::kScratchBase + (2u << 20);
  for (const std::uint32_t rec : candidates) {
    hooks.instr(costs::kCandidateFetch);
    const geom::Segment& s = store.fetch(rec, hooks);
    hooks.instr(costs::kPointOnSegment);
    if (geom::point_on_segment(p, s)) {
      hooks.instr(costs::kResultPush);
      hooks.write(result_addr, 4);
      result_addr += 4;
      out_ids.push_back(store.id(rec));
    }
  }
}

void refine_route(const SegmentStore& store, std::span<const geom::Segment> legs,
                  std::span<const std::uint32_t> candidates, ExecHooks& hooks,
                  std::vector<std::uint32_t>& out_ids) {
  std::uint64_t result_addr = simaddr::kScratchBase + (2u << 20);
  for (const std::uint32_t rec : candidates) {
    hooks.instr(costs::kCandidateFetch);
    const geom::Segment& s = store.fetch(rec, hooks);
    bool hit = false;
    for (const geom::Segment& l : legs) {
      hooks.instr(costs::kSegSegIntersect);
      if (geom::segments_intersect(s, l)) {
        hit = true;
        break;
      }
    }
    if (hit) {
      hooks.instr(costs::kResultPush);
      hooks.write(result_addr, 4);
      result_addr += 4;
      out_ids.push_back(store.id(rec));
    }
  }
}

void refine_range(const SegmentStore& store, const geom::Rect& window,
                  std::span<const std::uint32_t> candidates, ExecHooks& hooks,
                  std::vector<std::uint32_t>& out_ids) {
  std::uint64_t result_addr = simaddr::kScratchBase + (2u << 20);
  for (const std::uint32_t rec : candidates) {
    hooks.instr(costs::kCandidateFetch);
    const geom::Segment& s = store.fetch(rec, hooks);
    hooks.instr(costs::kSegRectIntersect);
    if (geom::segment_intersects_rect(s, window)) {
      hooks.instr(costs::kResultPush);
      hooks.write(result_addr, 4);
      result_addr += 4;
      out_ids.push_back(store.id(rec));
    }
  }
}

ExecHooks& null_hooks() {
  static NullHooks hooks;
  return hooks;
}

}  // namespace mosaiq::rtree
