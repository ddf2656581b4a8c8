// The client-resident slice of the dataset that the region clients
// answer range queries from: a server shipment for the insufficient-
// memory client (paper Section 6.2, Figure 2) or a received bucket for
// the broadcast client.  It holds the records, the packed index over
// them and the rectangle inside which their answers are complete.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/rect.hpp"
#include "geom/segment.hpp"
#include "rtree/packed_rtree.hpp"
#include "rtree/segment_store.hpp"
#include "sim/client_cpu.hpp"

namespace mosaiq::core {

class CachedRegion {
 public:
  /// Replaces the region: `segs` in arrival order (record i keeps the
  /// object id `ids[i]`), the packed tree over them, and `rect`.
  void install(std::vector<geom::Segment> segs, std::span<const std::uint32_t> ids,
               const geom::Rect& rect) {
    store_ = rtree::SegmentStore(std::move(segs), ids);
    tree_ = rtree::PackedRTree::build(store_, rtree::SortOrder::PreSorted);
    rect_ = rect;
    installed_ = true;
  }

  /// True when a region is installed and `window` lies inside it.
  bool covers(const geom::Rect& window) const { return installed_ && rect_.contains(window); }

  /// Filters and refines `window` over the region on the client;
  /// returns the answer count.
  std::uint64_t answer(const geom::Rect& window, sim::ClientCpu& cpu) const {
    std::vector<std::uint32_t> cand;
    std::vector<std::uint32_t> ids;
    tree_.filter_range(window, cpu, cand);
    rtree::refine_range(store_, window, cand, cpu, ids);
    return ids.size();
  }

  bool installed() const { return installed_; }

  /// The covered rectangle (empty before the first install).
  const geom::Rect& rect() const { return rect_; }

  /// Bytes of the resident data + index (0 before the first install).
  std::uint64_t bytes() const { return store_.bytes() + tree_.bytes(); }

 private:
  rtree::SegmentStore store_;
  rtree::PackedRTree tree_;
  geom::Rect rect_ = geom::Rect::empty();
  bool installed_ = false;
};

}  // namespace mosaiq::core
