// R-tree node layout.
//
// Packed nodes use float32 MBRs (standard practice for memory-resident
// spatial indexes and what gives the paper's ~3.5 MB index for the
// 139 K-segment PA dataset): 20 B per entry, 25 entries per 512 B node.
// The float MBR is always a *conservative* (outward-rounded) cover of
// the double MBR, so filtering never drops a true answer.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "geom/rect.hpp"

namespace mosaiq::rtree {

/// Maximum entries per node.
inline constexpr std::uint32_t kNodeCapacity = 25;

/// Simulated + wire size of one node.
inline constexpr std::uint32_t kNodeBytes = 512;

/// Simulated size of one node entry (4 x float MBR + u32 child).
inline constexpr std::uint32_t kEntryBytes = 20;

/// Offset of the entry array within a node (count/level header).
inline constexpr std::uint32_t kNodeHeaderBytes = 8;

/// Conservative float bounding box.
struct Mbr32 {
  float lox = 0.f, loy = 0.f, hix = 0.f, hiy = 0.f;

  static Mbr32 from(const geom::Rect& r) {
    Mbr32 m;
    m.lox = next_down(r.lo.x);
    m.loy = next_down(r.lo.y);
    m.hix = next_up(r.hi.x);
    m.hiy = next_up(r.hi.y);
    return m;
  }

  geom::Rect rect() const { return {{lox, loy}, {hix, hiy}}; }

  bool intersects(const geom::Rect& q) const {
    return !(q.lo.x > hix || q.hi.x < lox || q.lo.y > hiy || q.hi.y < loy);
  }

  bool contains(const geom::Point& p) const {
    return p.x >= lox && p.x <= hix && p.y >= loy && p.y <= hiy;
  }

  /// Min squared distance from p (used for NN ordering).
  double dist2(const geom::Point& p) const {
    const double dx = p.x < lox ? lox - p.x : (p.x > hix ? p.x - hix : 0.0);
    const double dy = p.y < loy ? loy - p.y : (p.y > hiy ? p.y - hiy : 0.0);
    return dx * dx + dy * dy;
  }

 private:
  static float next_down(double v) {
    const float f = static_cast<float>(v);
    return static_cast<double>(f) <= v ? f : std::nextafter(f, -std::numeric_limits<float>::infinity());
  }
  static float next_up(double v) {
    const float f = static_cast<float>(v);
    return static_cast<double>(f) >= v ? f : std::nextafter(f, std::numeric_limits<float>::infinity());
  }
};

struct NodeEntry {
  Mbr32 mbr;
  /// Child node index (internal nodes) or record index (leaves).
  std::uint32_t child = 0;
};

struct Node {
  std::uint16_t count = 0;
  std::uint16_t level = 0;  ///< 0 = leaf
  std::array<NodeEntry, kNodeCapacity> entries{};

  bool is_leaf() const { return level == 0; }

  // Node accessors of the shared traversals (rtree/search.hpp).
  friend bool is_leaf(const Node& n) { return n.is_leaf(); }
  friend std::size_t entry_count(const Node& n) { return n.count; }
  friend const Mbr32& entry_rect(const Node& n, std::size_t e) { return n.entries[e].mbr; }
  friend std::uint32_t entry_child(const Node& n, std::size_t e) { return n.entries[e].child; }
};

/// Parent link of a root node in the insertion-built trees.
inline constexpr std::uint32_t kNoNode = 0xffffffffu;

}  // namespace mosaiq::rtree
