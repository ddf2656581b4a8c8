// Storage for the line-segment data items, with simulated addresses.
//
// A record mirrors the paper's TIGER-derived on-device footprint:
// coordinates (4 x double = 32 B) + object id (4 B) + a 40 B attribute
// blob (street name / class), i.e. 76 B per record — matching the
// ~10.06 MB / 139,006 segments = ~76 B/record of the PA dataset.  The
// blob is never interpreted; it exists so that memory footprints and
// wire sizes are byte-faithful.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/segment.hpp"
#include "rtree/exec.hpp"

namespace mosaiq::rtree {

/// Bytes of opaque attribute payload carried by each record.
inline constexpr std::uint32_t kAttributeBytes = 40;

/// Simulated + wire size of one segment record.
inline constexpr std::uint32_t kRecordBytes = 32 + 4 + kAttributeBytes;  // 76

class SegmentStore {
 public:
  SegmentStore() = default;

  /// Builds a store over `segs`; record i keeps the external id `ids[i]`
  /// (pass an empty span to use positional ids 0..n-1).
  explicit SegmentStore(std::vector<geom::Segment> segs,
                        std::span<const std::uint32_t> ids = {},
                        std::uint64_t base_addr = simaddr::kDataBase);

  std::size_t size() const { return segs_.size(); }
  bool empty() const { return segs_.empty(); }

  const geom::Segment& segment(std::uint32_t i) const { return segs_[i]; }
  std::uint32_t id(std::uint32_t i) const { return ids_[i]; }
  std::span<const geom::Segment> segments() const { return segs_; }
  std::span<const std::uint32_t> ids() const { return ids_; }

  /// Simulated address of record i.
  std::uint64_t addr_of(std::uint32_t i) const {
    return base_addr_ + static_cast<std::uint64_t>(i) * kRecordBytes;
  }

  /// Total simulated memory footprint in bytes.
  std::uint64_t bytes() const { return segs_.size() * std::uint64_t{kRecordBytes}; }

  /// Reads the coordinates of record i through the hooks (32 B: the part
  /// of the record the geometric predicates actually touch).  A template
  /// over the hooks type, like the kernels that call it.
  template <typename Hooks>
  const geom::Segment& fetch(std::uint32_t i, Hooks& hooks) const {
    hooks.read(addr_of(i), 32);
    return segs_[i];
  }

  /// Bounding box of all records.
  geom::Rect extent() const;

 private:
  std::vector<geom::Segment> segs_;
  std::vector<std::uint32_t> ids_;
  std::uint64_t base_addr_ = simaddr::kDataBase;
};

}  // namespace mosaiq::rtree
