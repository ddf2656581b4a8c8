// Broadcast data dissemination (paper Section 7: "incorporation of
// broadcast (widely shared information) into our framework"; model after
// Imielinski, Viswanathan & Badrinath, "Energy Efficient Indexing on
// Air", reference [15]).
//
// The base station cyclically broadcasts a program: an index segment
// (region directory) interleaved (1, m) times with data buckets, one
// bucket per hot region (that region's records + a packed sub-index).
// A client answering a query inside a hot region never transmits:
//
//   tune in (IDLE until the next index replica, cycle/2m on average)
//   -> RECEIVE the index segment
//   -> SLEEP ("doze") until the target bucket's offset
//   -> RECEIVE the bucket, answer locally.
//
// Energy moves entirely off the ~3 W transmitter onto the 165 mW
// receiver plus dozing — at the price of waiting on the broadcast
// schedule.  Queries outside the program fall back to on-demand
// request/response.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "geom/rect.hpp"
#include "rtree/packed_rtree.hpp"

namespace mosaiq::net {

struct BroadcastRegion {
  geom::Rect rect;                       ///< the advertised hot region
  std::vector<std::uint32_t> records;    ///< master record indices in the bucket
  std::uint64_t bucket_bytes = 0;        ///< records + sub-index on air
  double offset_s = 0;                   ///< start offset within the cycle
};

struct BroadcastProgram {
  std::vector<BroadcastRegion> regions;
  std::uint32_t index_replicas = 1;  ///< m of the (1, m) indexing scheme
  std::uint64_t index_bytes = 0;     ///< one index-segment replica
  double bandwidth_mbps = 2.0;
  double cycle_s = 0;                ///< full program duration
  std::vector<double> replica_start_s;  ///< start time of each index replica

  /// Average tune-in wait until the next index replica starts.
  double mean_index_wait_s() const { return cycle_s / (2.0 * index_replicas); }

  /// One index-replica's airtime.
  double index_s() const { return static_cast<double>(index_bytes) * 8.0 / (bandwidth_mbps * 1e6); }

  /// Average doze time between finishing an index replica (uniformly
  /// random which one the client caught) and region i's bucket start.
  double mean_doze_s(std::size_t region) const;

  /// Region containing the window, if any (queries must fall fully
  /// inside a region for a local answer to be complete).
  std::optional<std::size_t> region_for(const geom::Rect& window) const;
};

/// Builds a program over the given hot rectangles: every record whose
/// MBR intersects a hot rect goes into that rect's bucket (so any query
/// inside the rect is answerable from the bucket alone), buckets are
/// laid out after each of the m index replicas in round-robin order.
BroadcastProgram make_broadcast_program(const rtree::PackedRTree& master,
                                        const std::vector<geom::Rect>& hot_regions,
                                        double bandwidth_mbps, std::uint32_t index_replicas = 4);

/// Derives hot regions from observed query traffic: grid-bins the query
/// window centers, greedily takes the densest cells, and merges each
/// with its already-chosen neighbors into up to `max_regions`
/// rectangles covering at least `coverage` of the observed queries (or
/// fewer regions when the histogram runs out of mass).  This is how a
/// base station would program the broadcast from its request log.
std::vector<geom::Rect> hot_regions_from_history(const std::vector<geom::Rect>& query_windows,
                                                 const geom::Rect& extent,
                                                 std::uint32_t max_regions = 4,
                                                 double coverage = 0.5);

}  // namespace mosaiq::net
