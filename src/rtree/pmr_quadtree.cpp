#include "rtree/pmr_quadtree.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "geom/predicates.hpp"
#include "rtree/costs.hpp"

namespace mosaiq::rtree {

namespace {

/// Square cell covering an arbitrary extent (quadtree cells stay square).
geom::Rect squared(const geom::Rect& extent) {
  const double side = std::max(extent.width(), extent.height());
  return {extent.lo, {extent.lo.x + side, extent.lo.y + side}};
}

/// Quadrant `q` (0..3: SW, SE, NW, NE) of a square cell.
geom::Rect quadrant(const geom::Rect& cell, int q) {
  const geom::Point c = cell.center();
  switch (q) {
    case 0: return {cell.lo, c};
    case 1: return {{c.x, cell.lo.y}, {cell.hi.x, c.y}};
    case 2: return {{cell.lo.x, c.y}, {c.x, cell.hi.y}};
    default: return {c, cell.hi};
  }
}

}  // namespace

PmrQuadtree::PmrQuadtree(const geom::Rect& extent, PmrConfig cfg, std::uint64_t base_addr)
    : cfg_(cfg), base_addr_(base_addr) {
  QNode root;
  root.leaf = true;
  root.depth = 0;
  root.cell = squared(extent);
  nodes_.push_back(std::move(root));
}

PmrQuadtree PmrQuadtree::build(const SegmentStore& store, PmrConfig cfg) {
  PmrQuadtree t(store.extent(), cfg);
  for (std::uint32_t i = 0; i < store.size(); ++i) t.insert(i, store.segment(i));
  return t;
}

std::uint64_t PmrQuadtree::bytes() const {
  std::uint64_t blocks = 0;
  for (const QNode& n : nodes_) {
    if (n.leaf) {
      blocks += 1 + n.records.size() / (kQuadLeafSlots + 1);  // chained overflow
    } else {
      blocks += 1;
    }
  }
  return blocks * kQuadNodeBytes;
}

void PmrQuadtree::insert(std::uint32_t rec, const geom::Segment& seg) {
  if (rec >= geom_by_rec_.size()) geom_by_rec_.resize(rec + 1);
  geom_by_rec_[rec] = seg;
  ++size_;

  // Collect every leaf the segment intersects, then apply the PMR rule:
  // each overfull leaf splits exactly once per insertion.
  std::vector<std::uint32_t> leaves;
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const QNode& n = nodes_[ni];
    if (!geom::segment_intersects_rect(seg, n.cell)) continue;
    if (n.leaf) {
      leaves.push_back(ni);
    } else {
      for (const std::uint32_t c : n.children) stack.push_back(c);
    }
  }
  for (const std::uint32_t li : leaves) {
    nodes_[li].records.push_back(rec);
    if (nodes_[li].records.size() > cfg_.split_threshold &&
        nodes_[li].depth < cfg_.max_depth) {
      split(li);
    }
  }
}

void PmrQuadtree::split(std::uint32_t ni) {
  // Copy out: nodes_ reallocation invalidates references.
  const geom::Rect cell = nodes_[ni].cell;
  const std::uint8_t depth = nodes_[ni].depth;
  std::vector<std::uint32_t> records = std::move(nodes_[ni].records);

  std::array<std::uint32_t, 4> children{};
  for (int q = 0; q < 4; ++q) {
    QNode child;
    child.leaf = true;
    child.depth = static_cast<std::uint8_t>(depth + 1);
    child.cell = quadrant(cell, q);
    for (const std::uint32_t rec : records) {
      if (geom::segment_intersects_rect(geom_by_rec_[rec], child.cell)) {
        child.records.push_back(rec);
      }
    }
    children[q] = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(std::move(child));
  }
  nodes_[ni].leaf = false;
  nodes_[ni].records.clear();
  nodes_[ni].records.shrink_to_fit();
  nodes_[ni].children = children;
  depth_ = std::max(depth_, static_cast<std::uint32_t>(depth + 2));
}

void PmrQuadtree::charge_leaf_scan(const QNode& n, std::uint64_t addr, ExecHooks& hooks) const {
  // Header block plus one chained block per kQuadLeafSlots overflow; the
  // id list is read 4 B per record.
  hooks.read(addr, 8);
  const std::uint64_t blocks = 1 + n.records.size() / (kQuadLeafSlots + 1);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const std::uint32_t in_block = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kQuadLeafSlots, n.records.size() - b * kQuadLeafSlots));
    hooks.read(addr + b * kQuadNodeBytes + 8, in_block * 4);
  }
}

template <typename Pred>
void PmrQuadtree::descend(const InstrMix& pred_cost, Pred&& pred, ExecHooks& hooks,
                          std::vector<std::uint32_t>& out) const {
  std::uint64_t result_addr = simaddr::kScratchBase + (3u << 20);
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const QNode& n = nodes_[ni];
    hooks.instr(costs::kNodeVisit);
    hooks.instr(pred_cost);
    hooks.read(node_addr(ni), 8);
    if (!pred(n.cell)) continue;
    if (!n.leaf) {
      hooks.read(node_addr(ni) + 8, 16);  // child pointers
      for (const std::uint32_t c : n.children) stack.push_back(c);
      continue;
    }
    charge_leaf_scan(n, node_addr(ni), hooks);
    for (const std::uint32_t rec : n.records) {
      hooks.instr(costs::kEntryLoop);
      hooks.instr(costs::kResultPush);
      hooks.write(result_addr, 4);
      result_addr += 4;
      out.push_back(rec);
    }
  }
}

void PmrQuadtree::filter_point(const geom::Point& p, ExecHooks& hooks,
                               std::vector<std::uint32_t>& out) const {
  // Single-path descent: exactly one cell contains the point (ties on
  // cell boundaries resolved by scanning all containing quadrants).
  descend(costs::kRectContainsPoint, [&](const geom::Rect& cell) { return cell.contains(p); },
          hooks, out);
  // Boundary points can reach several leaves: deduplicate.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void PmrQuadtree::filter_range(const geom::Rect& window, ExecHooks& hooks,
                               std::vector<std::uint32_t>& out) const {
  std::size_t collected0 = out.size();
  descend(costs::kRectOverlap, [&](const geom::Rect& cell) { return cell.intersects(window); },
          hooks, out);
  // Deduplicate (segments straddle cells); the sort cost is charged as
  // n log n comparison steps over the duplicated candidate list.
  const std::size_t m = out.size() - collected0;  // mosaiq-lint: allow(unsigned-wrap) — out only grew since the collected0 snapshot
  if (m > 1) {
    std::uint64_t steps = 1;
    while ((1ull << steps) < m) ++steps;
    hooks.instr(costs::kSortStep * (m * steps));
  }
  std::sort(out.begin() + collected0, out.end());
  out.erase(std::unique(out.begin() + collected0, out.end()), out.end());
}

std::vector<NNResult> PmrQuadtree::nearest_k(const geom::Point& p, std::uint32_t k,
                                             const SegmentStore& store,
                                             ExecHooks& hooks) const {
  std::vector<NNResult> out;
  if (size_ == 0 || k == 0) return out;

  struct Item {
    double d;
    bool is_data;
    std::uint32_t idx;
    bool operator>(const Item& o) const { return d > o.d; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  // Duplicates across cells: `out` never exceeds k entries, so a linear
  // scan of what was already reported beats a hashed set (and keeps the
  // hot path free of unordered containers).
  auto already_reported = [&](std::uint32_t rec) {
    return std::any_of(out.begin(), out.end(),
                       [&](const NNResult& r) { return r.record == rec; });
  };
  heap.push({0.0, false, 0});
  while (!heap.empty()) {
    hooks.instr(costs::kHeapOp);
    const Item it = heap.top();
    heap.pop();
    if (it.is_data) {
      if (!already_reported(it.idx)) {
        out.push_back(NNResult{it.idx, store.id(it.idx), std::sqrt(it.d)});
        if (out.size() == k) return out;
      }
      continue;
    }
    const QNode& n = nodes_[it.idx];
    hooks.instr(costs::kNodeVisit);
    hooks.read(node_addr(it.idx), 8);
    if (!n.leaf) {
      hooks.read(node_addr(it.idx) + 8, 16);
      for (const std::uint32_t c : n.children) {
        hooks.instr(costs::kRectDist2);
        heap.push({nodes_[c].cell.dist2(p), false, c});
        hooks.instr(costs::kHeapOp);
      }
      continue;
    }
    charge_leaf_scan(n, node_addr(it.idx), hooks);
    for (const std::uint32_t rec : n.records) {
      hooks.instr(costs::kEntryLoop);
      const geom::Segment& s = store.fetch(rec, hooks);
      hooks.instr(costs::kPointSegDist2);
      heap.push({geom::point_segment_dist2(p, s), true, rec});
      hooks.instr(costs::kHeapOp);
    }
  }
  return out;
}

std::optional<NNResult> PmrQuadtree::nearest(const geom::Point& p, const SegmentStore& store,
                                             ExecHooks& hooks) const {
  return nearest_of(nearest_k(p, 1, store, hooks));
}

bool PmrQuadtree::validate(const SegmentStore& store) const {
  // Decomposition: children tile their parent exactly.
  for (const QNode& n : nodes_) {
    if (n.leaf) continue;
    double area = 0;
    for (const std::uint32_t c : n.children) {
      const QNode& ch = nodes_[c];
      if (!n.cell.contains(ch.cell)) return false;
      if (ch.depth != n.depth + 1) return false;
      area += ch.cell.area();
    }
    if (std::abs(area - n.cell.area()) > 1e-9 * n.cell.area()) return false;
  }
  // Membership: every record sits in exactly the leaves it intersects.
  for (std::uint32_t rec = 0; rec < store.size(); ++rec) {
    const geom::Segment& s = store.segment(rec);
    for (std::uint32_t ni = 0; ni < nodes_.size(); ++ni) {
      const QNode& n = nodes_[ni];
      if (!n.leaf) continue;
      const bool present =
          std::find(n.records.begin(), n.records.end(), rec) != n.records.end();
      const bool should = geom::segment_intersects_rect(s, n.cell);
      if (present != should) return false;
    }
  }
  return true;
}

}  // namespace mosaiq::rtree
