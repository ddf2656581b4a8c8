#include "net/broadcast.hpp"

#include <algorithm>

#include "rtree/node.hpp"

namespace mosaiq::net {

namespace {

/// Directory entry per region: rect (4 x f64) + offset (f64) + size (u64).
constexpr std::uint64_t kDirectoryEntryBytes = 32 + 8 + 8;

/// Fixed index-segment framing (preamble, schedule header).
constexpr std::uint64_t kIndexHeaderBytes = 64;

}  // namespace

double BroadcastProgram::mean_doze_s(std::size_t region) const {
  if (replica_start_s.empty()) return 0.0;
  const double target = regions[region].offset_s;
  double total = 0;
  for (const double rs : replica_start_s) {
    const double end = rs + index_s();
    double gap = target - end;
    while (gap < 0) gap += cycle_s;
    total += gap;
  }
  return total / static_cast<double>(replica_start_s.size());
}

std::optional<std::size_t> BroadcastProgram::region_for(const geom::Rect& window) const {
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (regions[i].rect.contains(window)) return i;
  }
  return std::nullopt;
}

BroadcastProgram make_broadcast_program(const rtree::PackedRTree& master,
                                        const std::vector<geom::Rect>& hot_regions,
                                        double bandwidth_mbps,
                                        std::uint32_t index_replicas) {
  BroadcastProgram p;
  p.bandwidth_mbps = bandwidth_mbps;
  p.index_replicas = std::max(1u, index_replicas);
  p.index_bytes = kIndexHeaderBytes + hot_regions.size() * kDirectoryEntryBytes;

  const double bytes_per_s = bandwidth_mbps * 1e6 / 8.0;

  // Gather each region's bucket: every record whose MBR intersects the
  // region rect (filter-level completeness, exactly the shipment
  // argument of rtree/shipment.hpp).
  for (const geom::Rect& rect : hot_regions) {
    BroadcastRegion r;
    r.rect = rect;
    std::vector<std::uint32_t> leaves;
    master.leaves_intersecting(rect, rtree::null_hooks(), leaves);
    for (const std::uint32_t li : leaves) {
      const rtree::Node& n = master.node(li);
      for (std::uint32_t e = 0; e < n.count; ++e) {
        const std::uint32_t rec = n.entries[e].child;
        if (n.entries[e].mbr.intersects(rect)) r.records.push_back(rec);
      }
    }
    std::sort(r.records.begin(), r.records.end());
    r.records.erase(std::unique(r.records.begin(), r.records.end()), r.records.end());
    r.bucket_bytes = r.records.size() * std::uint64_t{rtree::kRecordBytes} +
                     rtree::packed_node_count(r.records.size()) * rtree::kNodeBytes;
    p.regions.push_back(std::move(r));
  }

  // Layout: m interleaves, each an index replica followed by 1/m of the
  // buckets (round robin).  Offsets are the bucket start times.
  double t = 0;
  const double index_s = static_cast<double>(p.index_bytes) / bytes_per_s;
  std::vector<std::vector<std::size_t>> interleave(p.index_replicas);
  for (std::size_t i = 0; i < p.regions.size(); ++i) {
    interleave[i % p.index_replicas].push_back(i);
  }
  for (std::uint32_t m = 0; m < p.index_replicas; ++m) {
    p.replica_start_s.push_back(t);
    t += index_s;
    for (const std::size_t ri : interleave[m]) {
      p.regions[ri].offset_s = t;
      t += static_cast<double>(p.regions[ri].bucket_bytes) / bytes_per_s;
    }
  }
  p.cycle_s = t;
  return p;
}

std::vector<geom::Rect> hot_regions_from_history(const std::vector<geom::Rect>& query_windows,
                                                 const geom::Rect& extent,
                                                 std::uint32_t max_regions, double coverage) {
  std::vector<geom::Rect> regions;
  if (query_windows.empty() || max_regions == 0) return regions;

  constexpr std::uint32_t kGrid = 32;
  std::vector<std::uint32_t> counts(kGrid * kGrid, 0);
  const double w = std::max(extent.width(), 1e-300);
  const double h = std::max(extent.height(), 1e-300);
  auto cell_of = [&](const geom::Point& p) {
    const auto x = static_cast<std::uint32_t>(
        std::clamp((p.x - extent.lo.x) / w * kGrid, 0.0, static_cast<double>(kGrid - 1)));
    const auto y = static_cast<std::uint32_t>(
        std::clamp((p.y - extent.lo.y) / h * kGrid, 0.0, static_cast<double>(kGrid - 1)));
    return y * kGrid + x;
  };
  for (const geom::Rect& q : query_windows) ++counts[cell_of(q.center())];

  auto cell_rect = [&](std::uint32_t idx) {
    const std::uint32_t x = idx % kGrid;
    const std::uint32_t y = idx / kGrid;
    return geom::Rect{{extent.lo.x + x * w / kGrid, extent.lo.y + y * h / kGrid},
                      {extent.lo.x + (x + 1) * w / kGrid, extent.lo.y + (y + 1) * h / kGrid}};
  };

  std::uint64_t covered = 0;
  const auto target = static_cast<std::uint64_t>(coverage * query_windows.size());
  std::vector<bool> taken(counts.size(), false);
  while (covered < target && regions.size() < max_regions) {
    std::uint32_t best = 0;
    std::uint32_t best_count = 0;
    for (std::uint32_t i = 0; i < counts.size(); ++i) {
      if (!taken[i] && counts[i] > best_count) {
        best_count = counts[i];
        best = i;
      }
    }
    if (best_count == 0) break;
    taken[best] = true;
    covered += best_count;
    const geom::Rect r = cell_rect(best);
    // Merge into an adjacent already-chosen region when possible, so
    // contiguous hot areas become one bucket instead of many slivers.
    bool merged = false;
    for (geom::Rect& existing : regions) {
      const geom::Rect u = geom::unite(existing, r);
      if (u.area() <= existing.area() + r.area() + 1e-12) {
        existing = u;
        merged = true;
        break;
      }
    }
    if (!merged) regions.push_back(r);
  }

  // Queries must be fully CONTAINED in a region to ride the broadcast,
  // so pad each region by the observed mean window half-extent (the log
  // itself tells us how big the windows are), clamped to the universe.
  double mean_half = 0;
  for (const geom::Rect& q : query_windows) {
    mean_half += 0.5 * std::max(q.width(), q.height());
  }
  mean_half /= static_cast<double>(query_windows.size());
  const double pad = mean_half;
  for (geom::Rect& r : regions) {
    r.lo.x = std::max(extent.lo.x, r.lo.x - pad);
    r.lo.y = std::max(extent.lo.y, r.lo.y - pad);
    r.hi.x = std::min(extent.hi.x, r.hi.x + pad);
    r.hi.y = std::min(extent.hi.y, r.hi.y + pad);
  }
  // Padding can make separately-chosen cells of one hot area overlap:
  // fuse them, so one area means one bucket (a client panning within it
  // never re-tunes).
  bool fused = true;
  while (fused) {
    fused = false;
    for (std::size_t i = 0; i < regions.size() && !fused; ++i) {
      for (std::size_t j = i + 1; j < regions.size(); ++j) {
        if (regions[i].intersects(regions[j])) {
          regions[i] = geom::unite(regions[i], regions[j]);
          regions.erase(regions.begin() + static_cast<std::ptrdiff_t>(j));
          fused = true;
          break;
        }
      }
    }
  }
  return regions;
}

}  // namespace mosaiq::net
