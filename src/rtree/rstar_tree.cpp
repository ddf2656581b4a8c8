#include "rtree/rstar_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "rtree/search.hpp"

namespace mosaiq::rtree {

namespace {

double area_enlargement(const geom::Rect& mbr, const geom::Rect& add) {
  return geom::unite(mbr, add).area() - mbr.area();
}

double overlap_area(const geom::Rect& a, const geom::Rect& b) {
  const geom::Rect i = geom::intersection(a, b);
  return i.is_empty() ? 0.0 : i.area();
}

}  // namespace

RStarTree::RStarTree(RStarConfig cfg, std::uint64_t base_addr)
    : cfg_(cfg), base_addr_(base_addr) {}

RStarTree RStarTree::build(const SegmentStore& store, RStarConfig cfg) {
  RStarTree t(cfg);
  for (std::uint32_t i = 0; i < store.size(); ++i) t.insert(i, store.segment(i).mbr());
  return t;
}

std::size_t RStarTree::node_count() const {
  // Nodes detached by splits never occur: nodes_ only grows with live
  // nodes; count reachable ones to stay precise after root changes.
  std::size_t n = 0;
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    ++n;
    const DynNode& node = nodes_[ni];
    if (!node.leaf) {
      for (const std::uint32_t c : node.children) stack.push_back(c);
    }
  }
  return n;
}

std::uint32_t RStarTree::level_of(std::uint32_t ni) const {
  std::uint32_t depth = 0;
  std::uint32_t cur = ni;
  while (nodes_[cur].parent != kNoNode) {
    cur = nodes_[cur].parent;
    ++depth;
  }
  return height_ - 1 - depth;
}

std::uint32_t RStarTree::choose_subtree(const geom::Rect& mbr,
                                        std::uint32_t target_level) const {
  std::uint32_t cur = root_;
  std::uint32_t cur_level = height_ - 1;
  while (cur_level > target_level) {
    const DynNode& n = nodes_[cur];
    std::uint32_t best = n.children.front();
    if (cur_level == 1) {
      // Children are leaves: minimize overlap enlargement
      // (ties: area enlargement, then area).
      double best_ov = std::numeric_limits<double>::infinity();
      double best_enl = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n.children.size(); ++i) {
        const geom::Rect grown = geom::unite(n.rects[i], mbr);
        double ov = 0;
        for (std::size_t j = 0; j < n.children.size(); ++j) {
          if (j == i) continue;
          ov += overlap_area(grown, n.rects[j]) - overlap_area(n.rects[i], n.rects[j]);
        }
        const double enl = area_enlargement(n.rects[i], mbr);
        const double area = n.rects[i].area();
        if (ov < best_ov || (ov == best_ov && enl < best_enl) ||
            (ov == best_ov && enl == best_enl && area < best_area)) {
          best_ov = ov;
          best_enl = enl;
          best_area = area;
          best = n.children[i];
        }
      }
    } else {
      // Minimize area enlargement (ties: area).
      double best_enl = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n.children.size(); ++i) {
        const double enl = area_enlargement(n.rects[i], mbr);
        const double area = n.rects[i].area();
        if (enl < best_enl || (enl == best_enl && area < best_area)) {
          best_enl = enl;
          best_area = area;
          best = n.children[i];
        }
      }
    }
    cur = best;
    --cur_level;
  }
  return cur;
}

void RStarTree::recompute_mbr(std::uint32_t ni) {
  DynNode& n = nodes_[ni];
  n.mbr = geom::Rect::empty();
  for (const geom::Rect& r : n.rects) n.mbr.expand(r);
}

void RStarTree::adjust_upward(std::uint32_t ni) {
  std::uint32_t cur = ni;
  while (nodes_[cur].parent != kNoNode) {
    const std::uint32_t p = nodes_[cur].parent;
    DynNode& pn = nodes_[p];
    for (std::size_t e = 0; e < pn.children.size(); ++e) {
      if (pn.children[e] == cur) {
        pn.rects[e] = nodes_[cur].mbr;
        break;
      }
    }
    recompute_mbr(p);
    cur = p;
  }
}

void RStarTree::insert(std::uint32_t rec, const geom::Rect& mbr) {
  reinserted_.assign(height_, false);
  insert_at_level({rec, mbr}, 0, true, height_ + 4);
  ++size_;
}

void RStarTree::insert_at_level(Entry e, std::uint32_t target_level, bool is_record,
                                std::uint32_t depth_budget) {
  const std::uint32_t ni = choose_subtree(e.rect, target_level);
  DynNode& n = nodes_[ni];
  n.children.push_back(e.child);
  n.rects.push_back(e.rect);
  n.mbr.expand(e.rect);
  if (!is_record) nodes_[e.child].parent = ni;
  adjust_upward(ni);
  if (n.children.size() > kNodeCapacity) overflow(ni, target_level, depth_budget);
}

void RStarTree::overflow(std::uint32_t ni, std::uint32_t level, std::uint32_t depth_budget) {
  const bool may_reinsert = ni != root_ && level < reinserted_.size() &&
                            !reinserted_[level] && depth_budget > 0;
  if (!may_reinsert) {
    split(ni);
    return;
  }
  reinserted_[level] = true;

  // Evict the p% entries whose centers lie farthest from the node
  // center, then reinsert them at the same level (far-reinsert order).
  DynNode& n = nodes_[ni];
  const geom::Point c = n.mbr.center();
  std::vector<std::size_t> order(n.children.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return geom::dist2(n.rects[a].center(), c) > geom::dist2(n.rects[b].center(), c);
  });
  const std::size_t evict = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(cfg_.reinsert_fraction * n.children.size())));

  std::vector<Entry> evicted;
  std::vector<bool> is_evicted(n.children.size(), false);
  for (std::size_t i = 0; i < evict; ++i) is_evicted[order[i]] = true;
  std::vector<std::uint32_t> kept_children;
  std::vector<geom::Rect> kept_rects;
  for (std::size_t i = 0; i < n.children.size(); ++i) {
    if (is_evicted[i]) {
      evicted.push_back({n.children[i], n.rects[i]});
    } else {
      kept_children.push_back(n.children[i]);
      kept_rects.push_back(n.rects[i]);
    }
  }
  n.children = std::move(kept_children);
  n.rects = std::move(kept_rects);
  recompute_mbr(ni);
  adjust_upward(ni);

  const bool is_record = nodes_[ni].leaf;
  for (Entry& e : evicted) {
    insert_at_level(e, level, is_record, depth_budget - 1);
  }
}

void RStarTree::split(std::uint32_t ni) {
  // R* split: choose the axis with minimum total margin over all legal
  // distributions, then the distribution with minimum group overlap
  // (ties: minimum total area).
  std::vector<Entry> entries;
  {
    DynNode& n = nodes_[ni];
    entries.reserve(n.children.size());
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      entries.push_back({n.children[i], n.rects[i]});
    }
  }
  const std::size_t total = entries.size();
  const std::size_t m = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(cfg_.min_fill * static_cast<double>(total))));

  auto margins_for = [&](std::vector<Entry>& es) {
    double margin = 0;
    for (std::size_t k = m; k + m <= total; ++k) {
      geom::Rect a = geom::Rect::empty();
      geom::Rect b = geom::Rect::empty();
      for (std::size_t i = 0; i < k; ++i) a.expand(es[i].rect);
      for (std::size_t i = k; i < total; ++i) b.expand(es[i].rect);
      margin += a.half_perimeter() + b.half_perimeter();
    }
    return margin;
  };

  auto by_x = entries;
  std::sort(by_x.begin(), by_x.end(), [](const Entry& a, const Entry& b) {
    return a.rect.lo.x < b.rect.lo.x || (a.rect.lo.x == b.rect.lo.x && a.rect.hi.x < b.rect.hi.x);
  });
  auto by_y = entries;
  std::sort(by_y.begin(), by_y.end(), [](const Entry& a, const Entry& b) {
    return a.rect.lo.y < b.rect.lo.y || (a.rect.lo.y == b.rect.lo.y && a.rect.hi.y < b.rect.hi.y);
  });

  std::vector<Entry>& axis = margins_for(by_x) <= margins_for(by_y) ? by_x : by_y;

  std::size_t best_k = m;
  double best_ov = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (std::size_t k = m; k + m <= total; ++k) {
    geom::Rect a = geom::Rect::empty();
    geom::Rect b = geom::Rect::empty();
    for (std::size_t i = 0; i < k; ++i) a.expand(axis[i].rect);
    for (std::size_t i = k; i < total; ++i) b.expand(axis[i].rect);
    const double ov = overlap_area(a, b);
    const double area = a.area() + b.area();
    if (ov < best_ov || (ov == best_ov && area < best_area)) {
      best_ov = ov;
      best_area = area;
      best_k = k;
    }
  }

  const bool leaf = nodes_[ni].leaf;
  const std::uint32_t parent = nodes_[ni].parent;

  DynNode a;
  DynNode b;
  a.leaf = b.leaf = leaf;
  a.parent = b.parent = parent;
  for (std::size_t i = 0; i < best_k; ++i) {
    a.children.push_back(axis[i].child);
    a.rects.push_back(axis[i].rect);
    a.mbr.expand(axis[i].rect);
  }
  for (std::size_t i = best_k; i < total; ++i) {
    b.children.push_back(axis[i].child);
    b.rects.push_back(axis[i].rect);
    b.mbr.expand(axis[i].rect);
  }

  const std::uint32_t bi = static_cast<std::uint32_t>(nodes_.size());
  nodes_[ni] = std::move(a);
  nodes_.push_back(std::move(b));
  if (!nodes_[ni].leaf) {
    for (const std::uint32_t c : nodes_[ni].children) nodes_[c].parent = ni;
    for (const std::uint32_t c : nodes_[bi].children) nodes_[c].parent = bi;
  }

  if (parent == kNoNode) {
    const std::uint32_t new_root = static_cast<std::uint32_t>(nodes_.size());
    DynNode r;
    r.leaf = false;
    r.children = {ni, bi};
    r.rects = {nodes_[ni].mbr, nodes_[bi].mbr};
    r.mbr = geom::unite(nodes_[ni].mbr, nodes_[bi].mbr);
    nodes_.push_back(std::move(r));
    nodes_[ni].parent = new_root;
    nodes_[bi].parent = new_root;
    root_ = new_root;
    ++height_;
    return;
  }

  DynNode& p = nodes_[parent];
  for (std::size_t e = 0; e < p.children.size(); ++e) {
    if (p.children[e] == ni) {
      p.rects[e] = nodes_[ni].mbr;
      break;
    }
  }
  p.children.push_back(bi);
  p.rects.push_back(nodes_[bi].mbr);
  p.mbr.expand(nodes_[bi].mbr);
  adjust_upward(parent);
  if (p.children.size() > kNodeCapacity) {
    overflow(parent, level_of(parent), 0);  // budget 0: splits only upward
  }
}

void RStarTree::filter_point(const geom::Point& p, ExecHooks& hooks,
                             std::vector<std::uint32_t>& out) const {
  point_dfs(nodes_, root_, base_addr_, p, hooks, out);
}

void RStarTree::filter_range(const geom::Rect& window, ExecHooks& hooks,
                             std::vector<std::uint32_t>& out) const {
  range_dfs(nodes_, root_, base_addr_, window, hooks, out);
}

std::vector<NNResult> RStarTree::nearest_k(const geom::Point& p, std::uint32_t k,
                                           const SegmentStore& store,
                                           ExecHooks& hooks) const {
  return best_first_knn(nodes_, root_, base_addr_, p, k, store, hooks);
}

std::optional<NNResult> RStarTree::nearest(const geom::Point& p, const SegmentStore& store,
                                           ExecHooks& hooks) const {
  return nearest_of(nearest_k(p, 1, store, hooks));
}

double RStarTree::total_sibling_overlap() const {
  double total = 0;
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const DynNode& n = nodes_[ni];
    for (std::size_t i = 0; i < n.rects.size(); ++i) {
      for (std::size_t j = i + 1; j < n.rects.size(); ++j) {
        total += overlap_area(n.rects[i], n.rects[j]);
      }
    }
    if (!n.leaf) {
      for (const std::uint32_t c : n.children) stack.push_back(c);
    }
  }
  return total;
}

}  // namespace mosaiq::rtree
