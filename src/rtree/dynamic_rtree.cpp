#include "rtree/dynamic_rtree.hpp"

#include <cassert>
#include <limits>

namespace mosaiq::rtree {

DynamicRTree DynamicRTree::build(const SegmentStore& store) {
  DynamicRTree t;
  for (std::uint32_t i = 0; i < store.size(); ++i) t.insert(i, store.segment(i).mbr());
  return t;
}

std::uint32_t least_enlargement(const DynNode& n, const geom::Rect& mbr) {
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
  return best;
}

std::uint32_t install_split(std::vector<DynNode>& nodes, std::uint32_t ni, DynNode a, DynNode b,
                            std::uint32_t& root, std::uint32_t& height) {
  const std::uint32_t parent = nodes[ni].parent;
  a.leaf = b.leaf = nodes[ni].leaf;
  a.parent = b.parent = parent;
  const auto bi = static_cast<std::uint32_t>(nodes.size());
  nodes[ni] = std::move(a);
  nodes.push_back(std::move(b));
  if (!nodes[bi].leaf) {
    for (const std::uint32_t c : nodes[bi].children) nodes[c].parent = bi;
  }

  if (parent == kNoNode) {
    // Root split: a new root above both halves.
    const auto new_root = static_cast<std::uint32_t>(nodes.size());
    DynNode r;
    r.leaf = false;
    r.children = {ni, bi};
    r.rects = {nodes[ni].mbr, nodes[bi].mbr};
    r.mbr = geom::unite(nodes[ni].mbr, nodes[bi].mbr);
    nodes.push_back(std::move(r));
    nodes[ni].parent = new_root;
    nodes[bi].parent = new_root;
    root = new_root;
    ++height;
    return kNoNode;
  }

  DynNode& p = nodes[parent];
  for (std::size_t e = 0; e < p.children.size(); ++e) {
    if (p.children[e] == ni) {
      p.rects[e] = nodes[ni].mbr;
      break;
    }
  }
  p.add(bi, nodes[bi].mbr);
  return parent;
}

void DynamicRTree::insert(std::uint32_t rec, const geom::Rect& mbr) {
  std::uint32_t leaf = root_;
  while (!nodes_[leaf].leaf) leaf = least_enlargement(nodes_[leaf], mbr);
  DynNode& n = nodes_[leaf];
  n.add(rec, mbr);
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
  const DynNode& n = nodes_[ni];
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
  a.add(n.children[seed_a], n.rects[seed_a]);
  b.add(n.children[seed_b], n.rects[seed_b]);

  const std::size_t min_fill = kNodeCapacity / 2;
  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < m; ++i) {
    if (i != seed_a && i != seed_b) rest.push_back(i);
  }
  for (std::size_t k = 0; k < rest.size(); ++k) {
    const std::size_t i = rest[k];
    const std::size_t remaining = rest.size() - k;
    if (a.children.size() + remaining <= min_fill) {
      a.add(n.children[i], n.rects[i]);
      continue;
    }
    if (b.children.size() + remaining <= min_fill) {
      b.add(n.children[i], n.rects[i]);
      continue;
    }
    const double ea = enlargement(a.mbr, n.rects[i]);
    const double eb = enlargement(b.mbr, n.rects[i]);
    if (ea < eb || (ea == eb && a.children.size() <= b.children.size())) {
      a.add(n.children[i], n.rects[i]);
    } else {
      b.add(n.children[i], n.rects[i]);
    }
  }

  const std::uint32_t parent =
      install_split(nodes_, ni, std::move(a), std::move(b), root_, height_);
  if (parent == kNoNode) return;
  if (nodes_[parent].children.size() > kNodeCapacity) {
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

bool valid_dyn_tree(const std::vector<DynNode>& nodes, std::uint32_t root, std::size_t records) {
  if (records == 0) return true;
  std::size_t seen = 0;
  std::size_t visited = 0;
  std::vector<std::uint32_t> stack{root};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    ++visited;
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
  return seen == records && visited == nodes.size();
}

}  // namespace mosaiq::rtree
