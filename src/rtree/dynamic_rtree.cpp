#include "rtree/dynamic_rtree.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "rtree/search.hpp"

namespace mosaiq::rtree {

namespace {

double enlargement(const geom::Rect& mbr, const geom::Rect& add) {
  return geom::unite(mbr, add).area() - mbr.area();
}

}  // namespace

DynamicRTree DynamicRTree::build(const SegmentStore& store) {
  DynamicRTree t;
  for (std::uint32_t i = 0; i < store.size(); ++i) t.insert(i, store.segment(i).mbr());
  return t;
}

std::uint32_t DynamicRTree::choose_leaf(const geom::Rect& mbr) const {
  std::uint32_t ni = root_;
  while (!nodes_[ni].leaf) {
    const DynNode& n = nodes_[ni];
    double best_enl = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    std::uint32_t best = n.children.front();
    for (std::size_t e = 0; e < n.children.size(); ++e) {
      const double enl = enlargement(n.rects[e], mbr);
      const double area = n.rects[e].area();
      if (enl < best_enl || (enl == best_enl && area < best_area)) {
        best_enl = enl;
        best_area = area;
        best = n.children[e];
      }
    }
    ni = best;
  }
  return ni;
}

void DynamicRTree::insert(std::uint32_t rec, const geom::Rect& mbr) {
  const std::uint32_t leaf = choose_leaf(mbr);
  DynNode& n = nodes_[leaf];
  n.children.push_back(rec);
  n.rects.push_back(mbr);
  n.mbr.expand(mbr);
  ++size_;
  if (n.children.size() > kNodeCapacity) {
    split(leaf);
  } else {
    adjust_upward(leaf);
  }
}

void DynamicRTree::split(std::uint32_t ni) {
  // Guttman's quadratic split: pick the pair of entries whose combined
  // MBR wastes the most area as seeds, then assign the rest greedily by
  // enlargement preference.
  DynNode& n = nodes_[ni];
  const std::size_t m = n.children.size();
  assert(m > 1);

  std::size_t seed_a = 0;
  std::size_t seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double waste =
          geom::unite(n.rects[i], n.rects[j]).area() - n.rects[i].area() - n.rects[j].area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  DynNode a;
  DynNode b;
  a.leaf = b.leaf = n.leaf;
  a.parent = b.parent = n.parent;
  auto push = [](DynNode& d, std::uint32_t child, const geom::Rect& r) {
    d.children.push_back(child);
    d.rects.push_back(r);
    d.mbr.expand(r);
  };
  push(a, n.children[seed_a], n.rects[seed_a]);
  push(b, n.children[seed_b], n.rects[seed_b]);

  const std::size_t min_fill = kNodeCapacity / 2;
  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < m; ++i) {
    if (i != seed_a && i != seed_b) rest.push_back(i);
  }
  for (std::size_t k = 0; k < rest.size(); ++k) {
    const std::size_t i = rest[k];
    const std::size_t remaining = rest.size() - k;
    if (a.children.size() + remaining <= min_fill) {
      push(a, n.children[i], n.rects[i]);
      continue;
    }
    if (b.children.size() + remaining <= min_fill) {
      push(b, n.children[i], n.rects[i]);
      continue;
    }
    const double ea = enlargement(a.mbr, n.rects[i]);
    const double eb = enlargement(b.mbr, n.rects[i]);
    if (ea < eb || (ea == eb && a.children.size() <= b.children.size())) {
      push(a, n.children[i], n.rects[i]);
    } else {
      push(b, n.children[i], n.rects[i]);
    }
  }

  const std::uint32_t bi = static_cast<std::uint32_t>(nodes_.size());
  const std::uint32_t parent = n.parent;
  nodes_[ni] = std::move(a);
  nodes_.push_back(std::move(b));

  // Re-parent the children of the new node when internal.
  if (!nodes_[bi].leaf) {
    for (const std::uint32_t c : nodes_[bi].children) nodes_[c].parent = bi;
  }

  if (parent == kNoNode) {
    // Root split: create a new root above both halves.
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
  if (p.children.size() > kNodeCapacity) {
    split(parent);
  } else {
    adjust_upward(parent);
  }
}

void DynamicRTree::adjust_upward(std::uint32_t ni) {
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
    pn.mbr.expand(nodes_[cur].mbr);
    cur = p;
  }
}

void DynamicRTree::filter_point(const geom::Point& p, ExecHooks& hooks,
                                std::vector<std::uint32_t>& out) const {
  point_dfs(nodes_, root_, base_addr_, p, hooks, out);
}

void DynamicRTree::filter_range(const geom::Rect& window, ExecHooks& hooks,
                                std::vector<std::uint32_t>& out) const {
  range_dfs(nodes_, root_, base_addr_, window, hooks, out);
}

std::optional<NNResult> DynamicRTree::nearest(const geom::Point& p, const SegmentStore& store,
                                              ExecHooks& hooks) const {
  return nearest_of(nearest_k(p, 1, store, hooks));
}

std::vector<NNResult> DynamicRTree::nearest_k(const geom::Point& p, std::uint32_t k,
                                              const SegmentStore& store,
                                              ExecHooks& hooks) const {
  return best_first_knn(nodes_, root_, base_addr_, p, k, store, hooks);
}

bool valid_dyn_tree(const std::vector<DynNode>& nodes, std::uint32_t root, std::size_t records) {
  if (records == 0) return true;
  std::size_t seen = 0;
  std::vector<std::uint32_t> stack{root};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const DynNode& n = nodes[ni];
    if (n.children.size() != n.rects.size()) return false;
    if (n.children.size() > kNodeCapacity) return false;
    geom::Rect cover = geom::Rect::empty();
    for (std::size_t e = 0; e < n.children.size(); ++e) {
      cover.expand(n.rects[e]);
      if (!n.leaf) {
        const DynNode& c = nodes[n.children[e]];
        if (c.parent != ni) return false;
        if (!n.rects[e].contains(c.mbr)) return false;
        stack.push_back(n.children[e]);
      } else {
        ++seen;
      }
    }
    if (!n.mbr.contains(cover)) return false;
  }
  return seen == records;
}

}  // namespace mosaiq::rtree
