// Insufficient-memory scenario, "fully at the client" scheme (paper
// Section 6.2): the client holds only as much data + index as its
// memory budget x admits.
//
// The first query goes to the server, which ships back the answer
// region plus proximate data and a sub-index sized to the budget
// (rtree::extract_shipment, the paper's Figure-2 algorithm).  The
// client installs the shipment and answers subsequent queries locally
// while they fall inside the shipment's safe rectangle; a query outside
// it re-requests a fresh shipment.  With enough spatial proximity
// between successive queries the shipping cost amortizes — the effect
// Figure 10 sweeps.
//
// Over a VersionedServer the data takes updates (paper Section 7: "data
// is frequently modified (and the latest copy needs to be obtained from
// server)"), and four consistency policies span the energy/staleness
// trade-off:
//
//   None        answer locally while the window fits the cache; never
//               check freshness (stale answers are counted, not fixed).
//   Revalidate  every locally-answerable query first sends a tiny
//               version probe; a stale reply triggers a full refetch.
//               Always fresh, but every query touches the transmitter.
//   Ttl         like None for the first `ttl_queries` after a fetch,
//               then like Revalidate.  Bounded staleness, bounded probes.
//   Lease       the server pushes an invalidation when an update lands
//               under the leased safe rectangle; always fresh with zero
//               probes, but the NIC must hold IDLE instead of sleeping
//               (including across inter-query think time) to hear the
//               push.
#pragma once

#include <cstdint>

#include "core/cached_region.hpp"
#include "core/session.hpp"
#include "core/versioning.hpp"
#include "rtree/shipment.hpp"

namespace mosaiq::core {

enum class ConsistencyPolicy : std::uint8_t { None, Revalidate, Ttl, Lease };

inline const char* name_of(ConsistencyPolicy p) {
  switch (p) {
    case ConsistencyPolicy::None: return "none";
    case ConsistencyPolicy::Revalidate: return "revalidate";
    case ConsistencyPolicy::Ttl: return "ttl";
    case ConsistencyPolicy::Lease: return "lease";
  }
  return "?";
}

struct CachingConfig {
  std::uint64_t budget_bytes = 1u << 20;  ///< client memory for data + index
  rtree::ShipPolicy policy = rtree::ShipPolicy::HilbertRange;
  ConsistencyPolicy consistency = ConsistencyPolicy::None;
  std::uint32_t ttl_queries = 10;  ///< Ttl: local answers between probes
  /// User think time before each query (seconds); this is when the
  /// Lease policy pays its idle-listening bill.
  double think_time_s = 0;
};

class CachingClient {
 public:
  /// Over a dataset that never changes.  Throws std::invalid_argument
  /// when `base` enables link faults together with think time or the
  /// Lease policy, which are booked off the exchanges the faults model.
  CachingClient(const workload::Dataset& master, const SessionConfig& base,
                const CachingConfig& caching);

  /// Over a server whose data takes updates: `server` must outlive the
  /// client, and the driver reports each update through notify_update.
  /// Throws as the constructor above.
  CachingClient(const VersionedServer& server, const SessionConfig& base,
                const CachingConfig& caching);

  /// Executes one range query (the Figure-10 workload is range-only),
  /// after the configured think time.  On a fault-free link the status
  /// is always Ok.  When a shipment fetch exhausts the transport's
  /// retry budget, a client that still holds a (stale) cache answers
  /// from it best-effort (DegradedLocal); with nothing cached the query
  /// is Failed.  A version probe that does not come back counts as
  /// stale, so its query refetches.
  QueryStatus run_query(const rtree::RangeQuery& q);

  /// Driver hook: an update was applied at the server.  Under Lease the
  /// server pushes an invalidation if it lands under the leased rect.
  void notify_update(const geom::Point& where);

  stats::Outcome outcome() { return transport_.snapshot(); }

  /// Attaches a phase-span/counter sink.  Each query is wrapped in a
  /// span named by the path it took, "cache-hit" (answered from the
  /// cache) or "cache-fetch" (a shipment was requested), with matching
  /// counters; a version probe runs before the wrapper opens.  Think
  /// time and pushes get "think" and "push-rx" phases, so the trace
  /// reconciles with outcome().
  void set_trace(obs::TraceSink* trace) { transport_.set_trace(trace); }

  std::uint32_t local_hits() const { return local_hits_; }
  std::uint32_t fetches() const { return fetches_; }
  std::uint32_t revalidations() const { return revalidations_; }
  std::uint32_t stale_answers() const { return stale_answers_; }
  std::uint32_t invalidation_pushes() const { return pushes_; }
  const sim::ClientCpu& client_cpu() const { return transport_.client(); }

  /// Current cached coverage (empty before the first fetch).
  const geom::Rect& safe_rect() const { return region_.rect(); }

  /// Bytes of the currently cached data + index (always <= budget).
  std::uint64_t cached_bytes() const { return region_.bytes(); }

 private:
  /// How a query inside the cached region is served.
  enum class CacheUse : std::uint8_t { Unchecked, Fresh, Refetch };

  CacheUse cache_use(const rtree::RangeQuery& q);
  void run_local(const rtree::RangeQuery& q);
  QueryStatus fetch_and_run(const rtree::RangeQuery& q);
  /// Sends the version probe; returns true when the cache is fresh.
  bool revalidate(const rtree::RangeQuery& q);
  /// True when an update under `window` postdates the cached shipment.
  bool stale(const geom::Rect& window) const;

  const workload::Dataset& master_;
  const VersionedServer* versions_ = nullptr;  ///< null when the data never changes
  CachingConfig caching_;
  Transport transport_;

  CachedRegion region_;
  bool invalidated_ = false;
  std::uint64_t snapshot_version_ = 0;
  std::uint32_t queries_since_fetch_ = 0;

  std::uint32_t local_hits_ = 0;
  std::uint32_t fetches_ = 0;
  std::uint32_t revalidations_ = 0;
  std::uint32_t stale_answers_ = 0;
  std::uint32_t pushes_ = 0;
};

}  // namespace mosaiq::core
