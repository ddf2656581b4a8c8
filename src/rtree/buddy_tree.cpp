#include "rtree/buddy_tree.hpp"

#include <algorithm>
#include <cmath>

#include "geom/predicates.hpp"
#include "rtree/costs.hpp"
#include "rtree/search.hpp"

namespace mosaiq::rtree {

namespace {

/// Halves `cell` along `axis` (0 = x, 1 = y); `low` picks the side.
geom::Rect half_of(const geom::Rect& cell, int axis, bool low) {
  geom::Rect h = cell;
  if (axis == 0) {
    const double mid = 0.5 * (cell.lo.x + cell.hi.x);
    (low ? h.hi.x : h.lo.x) = mid;
  } else {
    const double mid = 0.5 * (cell.lo.y + cell.hi.y);
    (low ? h.hi.y : h.lo.y) = mid;
  }
  return h;
}

bool in_low_half(const geom::Rect& cell, int axis, const geom::Point& p) {
  if (axis == 0) return p.x < 0.5 * (cell.lo.x + cell.hi.x);
  return p.y < 0.5 * (cell.lo.y + cell.hi.y);
}

}  // namespace

BuddyTree::BuddyTree(const geom::Rect& universe, std::uint64_t base_addr)
    : base_addr_(base_addr) {
  nodes_[0].cell = universe;
}

BuddyTree BuddyTree::build(const SegmentStore& store) {
  BuddyTree t(store.empty() ? geom::Rect{{0, 0}, {1, 1}} : store.extent());
  for (std::uint32_t i = 0; i < store.size(); ++i) t.insert(i, store.segment(i));
  return t;
}

void BuddyTree::insert(std::uint32_t rec, const geom::Segment& seg) {
  if (rec >= mid_by_rec_.size()) mid_by_rec_.resize(rec + 1);
  const geom::Point mid = midpoint_of(seg);
  mid_by_rec_[rec] = mid;
  const geom::Rect mbr = seg.mbr();
  ++size_;

  // Descend to the leaf whose buddy cell holds the midpoint, growing
  // the minimal rects on the way down.
  std::uint32_t cur = 0;
  std::uint32_t level = 0;
  while (!nodes_[cur].leaf) {
    nodes_[cur].mbr.expand(mbr);
    cur = in_low_half(nodes_[cur].cell, nodes_[cur].split_axis, mid) ? nodes_[cur].left
                                                                     : nodes_[cur].right;
    ++level;
  }
  BNode& leaf = nodes_[cur];
  leaf.mbr.expand(mbr);
  leaf.entries.push_back({mbr, rec});
  if (leaf.entries.size() > kNodeCapacity && level < max_depth_) {
    split(cur, level);
  }
}

void BuddyTree::split(std::uint32_t ni, std::uint32_t level) {
  depth_ = std::max(depth_, level + 2);
  // Copy out first: nodes_ may reallocate.
  std::vector<BEntry> entries = std::move(nodes_[ni].entries);
  const geom::Rect cell = nodes_[ni].cell;
  // Alternate split axes by cell aspect: halve the longer side (buddy
  // lines are still radix halvings, just axis-chosen).
  const int axis = cell.width() >= cell.height() ? 0 : 1;

  BNode low;
  BNode high;
  low.cell = half_of(cell, axis, true);
  high.cell = half_of(cell, axis, false);
  for (const BEntry& e : entries) {
    BNode& side = in_low_half(cell, axis, mid_by_rec_[e.record]) ? low : high;
    side.entries.push_back(e);
    side.mbr.expand(e.mbr);
  }

  const std::uint32_t li = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::move(low));
  const std::uint32_t hi = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::move(high));

  BNode& n = nodes_[ni];
  n.leaf = false;
  n.split_axis = static_cast<std::uint8_t>(axis);
  n.left = li;
  n.right = hi;
  n.entries.clear();
  n.entries.shrink_to_fit();

  // A degenerate distribution (all midpoints in one half) leaves one
  // child overfull; recurse while the depth bound allows (stacked
  // identical midpoints simply stay in an overfull leaf beyond it).
  if (level + 1 < max_depth_) {
    if (nodes_[li].entries.size() > kNodeCapacity) split(li, level + 1);
    if (nodes_[hi].entries.size() > kNodeCapacity) split(hi, level + 1);
  }
}

template <typename Pred>
void BuddyTree::descend(const InstrMix& pred_cost, Pred&& pred, ExecHooks& hooks,
                        std::vector<std::uint32_t>& out) const {
  if (size_ == 0) return;
  std::uint64_t result_addr = simaddr::kScratchBase + (5u << 20);
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const BNode& n = nodes_[ni];
    hooks.instr(costs::kNodeVisit);
    hooks.instr(pred_cost);
    hooks.read(node_addr(ni), kNodeHeaderBytes);
    if (!pred(n.mbr)) continue;
    if (!n.leaf) {
      hooks.read(node_addr(ni) + kNodeHeaderBytes, 8);  // child pointers
      stack.push_back(n.left);
      stack.push_back(n.right);
      continue;
    }
    for (std::size_t e = 0; e < n.entries.size(); ++e) {
      hooks.instr(costs::kEntryLoop);
      hooks.instr(pred_cost);
      hooks.read(node_addr(ni) + kNodeHeaderBytes + e * kEntryBytes, kEntryBytes);
      if (pred(n.entries[e].mbr)) {
        hooks.instr(costs::kResultPush);
        hooks.write(result_addr, 4);
        result_addr += 4;
        out.push_back(n.entries[e].record);
      }
    }
  }
}

void BuddyTree::filter_point(const geom::Point& p, ExecHooks& hooks,
                             std::vector<std::uint32_t>& out) const {
  descend(costs::kRectContainsPoint, [&](const geom::Rect& r) { return r.contains(p); }, hooks,
          out);
}

void BuddyTree::filter_range(const geom::Rect& window, ExecHooks& hooks,
                             std::vector<std::uint32_t>& out) const {
  // A subtree that never received data keeps an empty minimal rect.
  descend(costs::kRectOverlap,
          [&](const geom::Rect& r) { return !r.is_empty() && r.intersects(window); }, hooks, out);
}

std::vector<NNResult> BuddyTree::nearest_k(const geom::Point& p, std::uint32_t k,
                                           const SegmentStore& store,
                                           ExecHooks& hooks) const {
  if (size_ == 0) return {};
  // A directory node enters its children at their minimal rects' box
  // distance, skipping subtrees that never received data; a leaf enters
  // its records at their exact distance.
  return best_first(0, k, store, hooks, HeapOps{}, [&](std::uint32_t ni, const auto& push) {
    const BNode& n = nodes_[ni];
    hooks.instr(costs::kNodeVisit);
    hooks.read(node_addr(ni), kNodeHeaderBytes);
    if (!n.leaf) {
      for (const std::uint32_t c : {n.left, n.right}) {
        if (nodes_[c].mbr.is_empty()) continue;
        hooks.instr(costs::kRectDist2);
        push(nodes_[c].mbr.dist2(p), false, c);
      }
      return;
    }
    for (std::size_t e = 0; e < n.entries.size(); ++e) {
      hooks.instr(costs::kEntryLoop);
      hooks.read(node_addr(ni) + kNodeHeaderBytes + e * kEntryBytes, kEntryBytes);
      const geom::Segment& s = store.fetch(n.entries[e].record, hooks);
      hooks.instr(costs::kPointSegDist2);
      push(geom::point_segment_dist2(p, s), true, n.entries[e].record);
    }
  });
}

std::optional<NNResult> BuddyTree::nearest(const geom::Point& p, const SegmentStore& store,
                                           ExecHooks& hooks) const {
  return nearest_of(nearest_k(p, 1, store, hooks));
}

bool BuddyTree::validate(const SegmentStore& store) const {
  std::size_t records = 0;
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const BNode& n = nodes_[ni];
    if (!n.leaf) {
      // Children's buddy cells tile the parent's exactly.
      const BNode& l = nodes_[n.left];
      const BNode& r = nodes_[n.right];
      if (!n.cell.contains(l.cell) || !n.cell.contains(r.cell)) return false;
      if (std::abs(l.cell.area() + r.cell.area() - n.cell.area()) >
          1e-9 * std::max(n.cell.area(), 1e-12)) {
        return false;
      }
      // Parent's minimal rect covers both children's.
      if (!l.mbr.is_empty() && !n.mbr.contains(l.mbr)) return false;
      if (!r.mbr.is_empty() && !n.mbr.contains(r.mbr)) return false;
      stack.push_back(n.left);
      stack.push_back(n.right);
      continue;
    }
    geom::Rect tight = geom::Rect::empty();
    for (const BEntry& e : n.entries) {
      ++records;
      if (e.record >= store.size()) return false;
      if (e.mbr != store.segment(e.record).mbr()) return false;
      // The record's MIDPOINT belongs to this buddy cell.
      if (!n.cell.contains(mid_by_rec_[e.record]) &&
          n.cell.dist2(mid_by_rec_[e.record]) > 1e-18) {
        return false;
      }
      tight.expand(e.mbr);
    }
    if (!n.entries.empty() && !(n.mbr == tight)) return false;
  }
  return records == size_;
}

}  // namespace mosaiq::rtree
