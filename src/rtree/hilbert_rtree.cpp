#include "rtree/hilbert_rtree.hpp"

#include <algorithm>
#include <cassert>

#include "rtree/search.hpp"

namespace mosaiq::rtree {

HilbertRTree::HilbertRTree(const geom::Rect& extent, std::uint64_t base_addr)
    : mapper_(extent), base_addr_(base_addr) {}

HilbertRTree HilbertRTree::build(const SegmentStore& store) {
  HilbertRTree t(store.empty() ? geom::Rect{{0, 0}, {1, 1}} : store.extent());
  for (std::uint32_t i = 0; i < store.size(); ++i) t.insert(i, store.segment(i));
  return t;
}

std::size_t HilbertRTree::node_count() const {
  std::size_t n = 0;
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    ++n;
    const HNode& node = nodes_[ni];
    if (!node.leaf) {
      for (const HEntry& e : node.entries) stack.push_back(e.child);
    }
  }
  return n;
}

double HilbertRTree::average_utilization() const {
  std::size_t n = 0;
  std::size_t entries = 0;
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const HNode& node = nodes_[ni];
    // The root is legitimately underfull; exclude it like the paper does.
    if (ni != root_ || nodes_.size() == 1) {
      ++n;
      entries += node.entries.size();
    }
    if (!node.leaf) {
      for (const HEntry& e : node.entries) stack.push_back(e.child);
    }
  }
  if (n == 0) return 0.0;
  return static_cast<double>(entries) / (static_cast<double>(n) * kNodeCapacity);
}

std::uint32_t HilbertRTree::choose_leaf(std::uint64_t h) const {
  std::uint32_t cur = root_;
  while (!nodes_[cur].leaf) {
    const HNode& n = nodes_[cur];
    // First child whose LHV >= h, else the rightmost child.
    std::uint32_t next = n.entries.back().child;
    for (const HEntry& e : n.entries) {
      if (e.lhv >= h) {
        next = e.child;
        break;
      }
    }
    cur = next;
  }
  return cur;
}

void HilbertRTree::insert_sorted(HNode& n, HEntry e) {
  const auto pos = std::lower_bound(
      n.entries.begin(), n.entries.end(), e.lhv,
      [](const HEntry& a, std::uint64_t v) { return a.lhv < v; });
  n.entries.insert(pos, std::move(e));
}

HilbertRTree::HEntry HilbertRTree::summary_of(std::uint32_t ni) const {
  const HNode& n = nodes_[ni];
  HEntry s;
  s.child = ni;
  s.rect = geom::Rect::empty();
  s.lhv = 0;
  for (const HEntry& e : n.entries) {
    s.rect.expand(e.rect);
    s.lhv = std::max(s.lhv, e.lhv);
  }
  return s;
}

void HilbertRTree::refresh_ancestors(std::uint32_t ni) {
  std::uint32_t cur = ni;
  while (nodes_[cur].parent != kNoNode) {
    const std::uint32_t p = nodes_[cur].parent;
    HNode& pn = nodes_[p];
    const HEntry s = summary_of(cur);
    for (HEntry& e : pn.entries) {
      if (e.child == cur) {
        e.rect = s.rect;
        e.lhv = s.lhv;
        break;
      }
    }
    // LHV updates can break the parent's ordering; restore it.
    std::sort(pn.entries.begin(), pn.entries.end(),
              [](const HEntry& a, const HEntry& b) { return a.lhv < b.lhv; });
    cur = p;
  }
}

void HilbertRTree::handle_overflow(std::uint32_t ni) {
  if (nodes_[ni].entries.size() <= kNodeCapacity) return;

  const std::uint32_t parent = nodes_[ni].parent;
  if (parent == kNoNode) {
    // Root overflow: split the root into two and grow a level.
    const std::uint32_t left = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(HNode{});
    const std::uint32_t right = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(HNode{});
    HNode& root = nodes_[root_];
    HNode& l = nodes_[left];
    HNode& r = nodes_[right];
    l.leaf = r.leaf = root.leaf;
    l.parent = r.parent = root_;
    const std::size_t half = root.entries.size() / 2;
    l.entries.assign(root.entries.begin(), root.entries.begin() + half);
    r.entries.assign(root.entries.begin() + half, root.entries.end());
    if (!l.leaf) {
      for (const HEntry& e : l.entries) nodes_[e.child].parent = left;
      for (const HEntry& e : r.entries) nodes_[e.child].parent = right;
    }
    root.leaf = false;
    root.entries.clear();
    HEntry ls = summary_of(left);
    HEntry rs = summary_of(right);
    nodes_[root_].entries = ls.lhv <= rs.lhv ? std::vector<HEntry>{ls, rs}
                                             : std::vector<HEntry>{rs, ls};
    ++height_;
    return;
  }

  // Cooperating sibling: the neighbor in the parent's ordered entry
  // list (right neighbor preferred).
  HNode& pn = nodes_[parent];
  std::size_t my_pos = 0;
  for (; my_pos < pn.entries.size(); ++my_pos) {
    if (pn.entries[my_pos].child == ni) break;
  }
  assert(my_pos < pn.entries.size());
  const bool has_right = my_pos + 1 < pn.entries.size();
  const std::uint32_t sib =
      has_right ? pn.entries[my_pos + 1].child : pn.entries[my_pos - 1].child;

  // Pool the entries of the cooperating set, keeping Hilbert order.
  const std::uint32_t first = has_right ? ni : sib;
  const std::uint32_t second = has_right ? sib : ni;
  std::vector<HEntry> pool;
  pool.reserve(nodes_[first].entries.size() + nodes_[second].entries.size());
  pool.insert(pool.end(), nodes_[first].entries.begin(), nodes_[first].entries.end());
  pool.insert(pool.end(), nodes_[second].entries.begin(), nodes_[second].entries.end());
  std::sort(pool.begin(), pool.end(),
            [](const HEntry& a, const HEntry& b) { return a.lhv < b.lhv; });

  std::vector<std::uint32_t> targets{first, second};
  if (pool.size() > 2 * kNodeCapacity) {
    // 2-to-3 split: materialize a third node after `second`.
    const std::uint32_t fresh = static_cast<std::uint32_t>(nodes_.size());
    HNode nn;
    nn.leaf = nodes_[first].leaf;
    nn.parent = parent;
    nodes_.push_back(std::move(nn));
    targets.push_back(fresh);
    // Parent gains an entry for the new node; placed by LHV after the
    // redistribution below.
    nodes_[parent].entries.push_back({geom::Rect::empty(), 0, fresh});
  }

  // Even redistribution in Hilbert order across the target nodes.
  const std::size_t per = pool.size() / targets.size();
  std::size_t extra = pool.size() % targets.size();
  std::size_t idx = 0;
  for (const std::uint32_t t : targets) {
    const std::size_t take = per + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    HNode& tn = nodes_[t];
    tn.entries.assign(pool.begin() + idx, pool.begin() + idx + take);
    idx += take;
    if (!tn.leaf) {
      for (const HEntry& e : tn.entries) nodes_[e.child].parent = t;
    }
  }

  // Refresh the parent's summaries for every target and restore order.
  HNode& pn2 = nodes_[parent];
  for (HEntry& e : pn2.entries) {
    for (const std::uint32_t t : targets) {
      if (e.child == t) {
        const HEntry s = summary_of(t);
        e.rect = s.rect;
        e.lhv = s.lhv;
      }
    }
  }
  std::sort(pn2.entries.begin(), pn2.entries.end(),
            [](const HEntry& a, const HEntry& b) { return a.lhv < b.lhv; });

  handle_overflow(parent);
}

void HilbertRTree::insert(std::uint32_t rec, const geom::Segment& seg) {
  const std::uint64_t h = mapper_.hilbert_key(seg.midpoint());
  const std::uint32_t leaf = choose_leaf(h);
  insert_sorted(nodes_[leaf], {seg.mbr(), h, rec});
  ++size_;
  refresh_ancestors(leaf);
  handle_overflow(leaf);
  // Overflow handling reshuffles summaries itself, but the path above
  // the touched parent still needs its rect/lhv refreshed.
  refresh_ancestors(leaf < nodes_.size() ? leaf : root_);
}

// --- queries -----------------------------------------------------------

void HilbertRTree::filter_point(const geom::Point& p, ExecHooks& hooks,
                                std::vector<std::uint32_t>& out) const {
  point_dfs(nodes_, root_, base_addr_, p, hooks, out);
}

void HilbertRTree::filter_range(const geom::Rect& window, ExecHooks& hooks,
                                std::vector<std::uint32_t>& out) const {
  range_dfs(nodes_, root_, base_addr_, window, hooks, out);
}

std::vector<NNResult> HilbertRTree::nearest_k(const geom::Point& p, std::uint32_t k,
                                              const SegmentStore& store,
                                              ExecHooks& hooks) const {
  return best_first_knn(nodes_, root_, base_addr_, p, k, store, hooks);
}

std::optional<NNResult> HilbertRTree::nearest(const geom::Point& p, const SegmentStore& store,
                                              ExecHooks& hooks) const {
  return nearest_of(nearest_k(p, 1, store, hooks));
}

bool HilbertRTree::validate() const {
  if (size_ == 0) return true;
  std::size_t records = 0;
  std::vector<std::uint32_t> stack{root_};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const HNode& n = nodes_[ni];
    if (n.entries.empty() || n.entries.size() > kNodeCapacity) return false;
    // Entries ascend by LHV.
    for (std::size_t e = 1; e < n.entries.size(); ++e) {
      if (n.entries[e - 1].lhv > n.entries[e].lhv) return false;
    }
    for (const HEntry& e : n.entries) {
      if (n.leaf) {
        ++records;
        continue;
      }
      const HNode& c = nodes_[e.child];
      if (c.parent != ni) return false;
      // The parent entry's summary matches the child.
      geom::Rect cover = geom::Rect::empty();
      std::uint64_t lhv = 0;
      for (const HEntry& ce : c.entries) {
        cover.expand(ce.rect);
        lhv = std::max(lhv, ce.lhv);
      }
      if (!e.rect.contains(cover)) return false;
      if (e.lhv != lhv) return false;
      stack.push_back(e.child);
    }
  }
  return records == size_;
}

}  // namespace mosaiq::rtree
