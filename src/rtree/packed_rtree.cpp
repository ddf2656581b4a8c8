#include "rtree/packed_rtree.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "hilbert/hilbert.hpp"
#include "rtree/costs.hpp"

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

ExecHooks& null_hooks() {
  static NullHooks hooks;
  return hooks;
}

}  // namespace mosaiq::rtree
