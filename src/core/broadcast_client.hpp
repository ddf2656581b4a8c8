// Client side of the broadcast dissemination mode (see
// net/broadcast.hpp).  Range queries inside an advertised hot region
// are answered from the broadcast channel without a single transmitted
// bit; other queries fall back to on-demand fully-at-server.
//
// The client optionally caches the last received bucket: follow-up
// queries inside the same hot region then run entirely locally (the
// broadcast analogue of the Section 6.2 caching client).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/cached_region.hpp"
#include "core/session.hpp"
#include "net/broadcast.hpp"

namespace mosaiq::core {

struct BroadcastClientConfig {
  bool cache_bucket = true;
};

class BroadcastClient {
 public:
  /// Throws std::invalid_argument when `base` enables link faults:
  /// neither the broadcast channel nor the fallback models them.
  BroadcastClient(const workload::Dataset& master, const SessionConfig& base,
                  const net::BroadcastProgram& program, BroadcastClientConfig cfg = {});

  void run_query(const rtree::RangeQuery& q);

  stats::Outcome outcome() { return transport_.snapshot(); }

  std::uint32_t broadcast_tunes() const { return tunes_; }
  std::uint32_t cache_hits() const { return cache_hits_; }
  std::uint32_t fallbacks() const { return fallbacks_; }

 private:
  void run_local(const rtree::RangeQuery& q);
  void tune_and_run(std::size_t region, const rtree::RangeQuery& q);
  void fallback(const rtree::RangeQuery& q);

  const workload::Dataset& master_;
  const net::BroadcastProgram& program_;
  BroadcastClientConfig bcfg_;
  Transport transport_;  ///< broadcast reception, the fallback path and the totals
  CachedRegion bucket_;  ///< the last received bucket

  std::uint32_t tunes_ = 0;
  std::uint32_t cache_hits_ = 0;
  std::uint32_t fallbacks_ = 0;
};

}  // namespace mosaiq::core
