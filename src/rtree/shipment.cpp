#include "rtree/shipment.hpp"

#include <algorithm>
#include <cassert>

#include "rtree/costs.hpp"

namespace mosaiq::rtree {

namespace {

/// Symmetric expansion of a window by margin m on all sides.
geom::Rect expanded(const geom::Rect& w, double m) {
  return {{w.lo.x - m, w.lo.y - m}, {w.hi.x + m, w.hi.y + m}};
}

/// The widest margin for which `ok` holds, given that it holds at 0:
/// doubling from half the window's larger side brackets it (up to
/// `max_margin`, which is returned if it holds), then `steps` bisection
/// steps narrow it.
template <typename Ok>
double widest_margin(const geom::Rect& window, double max_margin, int steps, Ok&& ok) {
  double lo = 0.0;
  double hi = std::max(window.width(), window.height()) * 0.5 + 1e-9;
  while (hi < max_margin && ok(hi)) {
    lo = hi;
    hi *= 2.0;
  }
  if (hi >= max_margin && ok(max_margin)) return max_margin;
  for (int i = 0; i < steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (ok(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Number of segments referenced by a set of leaves.
std::uint64_t leaf_item_count(const PackedRTree& t, const std::vector<std::uint32_t>& leaves) {
  std::uint64_t n = 0;
  for (const std::uint32_t li : leaves) n += t.node(li).count;
  return n;
}

/// Gathers the records of `leaves` (in packed order) into the shipment,
/// charging the serialization reads to the server.
void gather(const PackedRTree& t, const SegmentStore& store,
            const std::vector<std::uint32_t>& leaves, ExecHooks& hooks, Shipment& out) {
  for (const std::uint32_t li : leaves) {
    const Node& n = t.node(li);
    for (std::uint32_t e = 0; e < n.count; ++e) {
      const std::uint32_t rec = n.entries[e].child;
      hooks.instr(costs::kCandidateFetch);
      hooks.read(store.addr_of(rec), kRecordBytes);  // full record is serialized
      out.segments.push_back(store.segment(rec));
      out.ids.push_back(store.id(rec));
    }
  }
}

/// Charges the construction of the shipped sub-index over n segments.
void charge_subindex_build(std::uint64_t n, ExecHooks& hooks) {
  const std::uint64_t nodes = packed_node_count(n);
  std::uint64_t addr = simaddr::kScratchBase + (8u << 20);
  for (std::uint64_t i = 0; i < nodes; ++i) {
    hooks.instr(InstrMix{10, 0, 4} * kNodeCapacity);  // entry MBR assembly
    hooks.write(addr, kNodeBytes);
    addr += kNodeBytes;
  }
}

Shipment ship_window_expand(const PackedRTree& master, const SegmentStore& store,
                            const geom::Rect& query_window, ShipmentBudget budget,
                            ExecHooks& hooks) {
  const geom::Rect extent = master.extent();
  const double max_margin = std::max(extent.width(), extent.height());

  auto fits = [&](double m, std::vector<std::uint32_t>& leaves) {
    leaves.clear();
    master.leaves_intersecting(expanded(query_window, m), hooks, leaves);
    return shipment_bytes(leaf_item_count(master, leaves)) <= budget.bytes;
  };

  std::vector<std::uint32_t> leaves;
  if (!fits(0.0, leaves)) {
    // Budget cannot even hold the query window's own candidate leaves;
    // degrade to exactly those leaves with the window as safe rect.
    Shipment s;
    s.safe_rect = query_window;
    gather(master, store, leaves, hooks, s);
    s.node_count = packed_node_count(s.segments.size());
    charge_subindex_build(s.segments.size(), hooks);
    return s;
  }

  std::vector<std::uint32_t> scratch;
  const double margin = widest_margin(query_window, max_margin, 20,
                                      [&](double m) { return fits(m, scratch); });

  Shipment s;
  s.safe_rect = expanded(query_window, margin);
  fits(margin, leaves);  // recompute the final leaf set
  gather(master, store, leaves, hooks, s);
  s.node_count = packed_node_count(s.segments.size());
  charge_subindex_build(s.segments.size(), hooks);
  return s;
}

Shipment ship_hilbert_range(const PackedRTree& master, const SegmentStore& store,
                            const geom::Rect& query_window, ShipmentBudget budget,
                            ExecHooks& hooks) {
  // Leaves required for correctness of the triggering query itself.
  std::vector<std::uint32_t> window_leaves;
  master.leaves_intersecting(query_window, hooks, window_leaves);

  const std::vector<std::uint32_t> all_leaves = master.leaf_sequence();
  const std::uint32_t n_leaves = static_cast<std::uint32_t>(all_leaves.size());
  if (n_leaves == 0) return {};

  // Center of the contiguous range: the leaf on the query path (first
  // window leaf; for an empty intersection fall back to the nearest leaf
  // by MBR distance).
  std::uint32_t center = 0;
  if (!window_leaves.empty()) {
    center = window_leaves[window_leaves.size() / 2];
  } else {
    double best = std::numeric_limits<double>::infinity();
    const geom::Point c = query_window.center();
    for (const std::uint32_t li : all_leaves) {
      geom::Rect mbr = geom::Rect::empty();
      const Node& n = master.node(li);
      for (std::uint32_t e = 0; e < n.count; ++e) mbr.expand(n.entries[e].mbr.rect());
      const double d = mbr.dist2(c);
      hooks.instr(costs::kRectDist2);
      if (d < best) {
        best = d;
        center = li;
      }
    }
  }

  // Start from the mandatory window leaves, then add contiguous leaves on
  // either side of the center while the budget holds.  Leaf node indices
  // are dense (0..n_leaves-1, leaves are packed first), so membership is
  // a flat bitmap — no hashed set, and extraction below stays in index
  // order without a sort.
  std::vector<char> shipped(n_leaves, 0);
  for (const std::uint32_t li : window_leaves) shipped[li] = 1;
  std::uint64_t items = leaf_item_count(master, window_leaves);

  auto try_add = [&](std::uint32_t li) {
    if (shipped[li]) return true;
    const std::uint64_t n = master.node(li).count;
    if (shipment_bytes(items + n) > budget.bytes) return false;
    shipped[li] = 1;
    items += n;
    return true;
  };

  // Leaf node indices are 0..n_leaves-1 in packed order (leaves are built
  // first); expand alternately left/right from the center index.
  std::int64_t l = center;
  std::int64_t r = center;
  try_add(center);
  bool grew = true;
  while (grew) {
    grew = false;
    if (l > 0 && try_add(static_cast<std::uint32_t>(l - 1))) {
      --l;
      grew = true;
    }
    if (r + 1 < n_leaves && try_add(static_cast<std::uint32_t>(r + 1))) {
      ++r;
      grew = true;
    }
  }

  // Safe rectangle: the widest symmetric expansion of the query window
  // whose intersecting leaves are all shipped.  (Margin 0 is always safe:
  // the window leaves were shipped unconditionally.)
  const geom::Rect extent = master.extent();
  const double max_margin = std::max(extent.width(), extent.height());
  const double margin = widest_margin(query_window, max_margin, 16, [&](double m) {
    std::vector<std::uint32_t> probe;
    master.leaves_intersecting(expanded(query_window, m), hooks, probe);
    return std::all_of(probe.begin(), probe.end(),
                       [&](std::uint32_t li) { return shipped[li] != 0; });
  });

  Shipment s;
  s.safe_rect = expanded(query_window, margin);
  std::vector<std::uint32_t> ordered;
  for (std::uint32_t li = 0; li < n_leaves; ++li)
    if (shipped[li]) ordered.push_back(li);
  gather(master, store, ordered, hooks, s);
  s.node_count = packed_node_count(s.segments.size());
  charge_subindex_build(s.segments.size(), hooks);
  return s;
}

}  // namespace

std::uint64_t shipment_bytes(std::uint64_t n_segments) {
  return n_segments * kRecordBytes + packed_node_count(n_segments) * kNodeBytes;
}

Shipment extract_shipment(const PackedRTree& master, const SegmentStore& store,
                          const geom::Rect& query_window, ShipmentBudget budget,
                          ShipPolicy policy, ExecHooks& server_hooks) {
  switch (policy) {
    case ShipPolicy::WindowExpand:
      return ship_window_expand(master, store, query_window, budget, server_hooks);
    case ShipPolicy::HilbertRange:
      return ship_hilbert_range(master, store, query_window, budget, server_hooks);
  }
  return {};
}

}  // namespace mosaiq::rtree
