#include "core/caching_client.hpp"

#include <stdexcept>

#include "serial/messages.hpp"

namespace mosaiq::core {

namespace {

/// Version probe: op byte + rect (32 B) + snapshot version (8 B).
constexpr std::uint64_t kProbeBytes = 1 + 32 + 8;
/// Probe reply: fresh/stale byte + current version.
constexpr std::uint64_t kProbeReplyBytes = 1 + 8;
/// Invalidation push payload: region id + version.
constexpr std::uint64_t kPushBytes = 12;

}  // namespace

CachingClient::CachingClient(const workload::Dataset& master, const SessionConfig& base,
                             const CachingConfig& caching)
    : master_(master), caching_(caching), transport_(base) {
  // Think time and pushes are booked off the exchanges: the fault
  // model's clock does not run through them and a push is never lost,
  // so a lossy link would be simulated wrongly.
  if (base.fault.enabled() &&
      (caching_.think_time_s > 0 || caching_.consistency == ConsistencyPolicy::Lease)) {
    throw std::invalid_argument("CachingClient: link faults need zero think time and no lease");
  }
}

CachingClient::CachingClient(const VersionedServer& server, const SessionConfig& base,
                             const CachingConfig& caching)
    : CachingClient(server.dataset(), base, caching) {
  versions_ = &server;
}

bool CachingClient::stale(const geom::Rect& window) const {
  return versions_ != nullptr && !versions_->fresh(window, snapshot_version_);
}

void CachingClient::run_local(const rtree::RangeQuery& q) {
  transport_.answers() += region_.answer(q.window, transport_.client());
  transport_.settle_sleep();
}

QueryStatus CachingClient::fetch_and_run(const rtree::RangeQuery& q) {
  rtree::Shipment shipment;
  const ExchangeStatus st = transport_.exchange(
      serial::QueryRequest::size_for(rtree::Query{q}, 0), [&](sim::ServerCpu& server) {
        shipment = rtree::extract_shipment(master_.tree, master_.store, q.window,
                                           {caching_.budget_bytes}, caching_.policy, server);
        return serial::ShipmentResponse::size_for(shipment.segments.size(),
                                                  shipment.node_count);
      });
  if (st != ExchangeStatus::Delivered) {
    // The fetch died.  The paper's protocol would have discarded the
    // cache before re-requesting; keeping the stale shipment around
    // instead lets the client degrade to a best-effort local answer
    // (possibly missing objects outside the stale safe rectangle)
    // rather than fail outright.
    if (!region_.installed()) return transport_.count(QueryStatus::Failed);
    if (stale(q.window)) ++stale_answers_;
    run_local(q);
    return transport_.count(QueryStatus::DegradedLocal);
  }

  // Install: the receive path already copied the payload into client
  // memory; the shipment becomes the client's store + index in place.
  // Only now is the old cache discarded (paper: "it throws away all
  // the data it has") — a failed fetch above keeps it for degradation.
  region_.install(std::move(shipment.segments), shipment.ids, shipment.safe_rect);
  if (versions_ != nullptr) snapshot_version_ = versions_->snapshot(shipment.safe_rect);
  invalidated_ = false;
  queries_since_fetch_ = 0;
  ++fetches_;

  run_local(q);
  return QueryStatus::Ok;
}

bool CachingClient::revalidate(const rtree::RangeQuery& q) {
  ++revalidations_;
  bool fresh = false;
  const ExchangeStatus st = transport_.exchange(kProbeBytes, [&](sim::ServerCpu& server) {
    // Version lookup on the server: a handful of tile reads.
    server.instr(rtree::InstrMix{60, 0, 20});
    server.read(rtree::simaddr::kScratchBase + (16u << 20), 64);
    fresh = !stale(q.window);
    return kProbeReplyBytes;
  });
  // A reply that never arrived proves nothing.
  return st == ExchangeStatus::Delivered && fresh;
}

CachingClient::CacheUse CachingClient::cache_use(const rtree::RangeQuery& q) {
  switch (caching_.consistency) {
    case ConsistencyPolicy::None: return CacheUse::Unchecked;
    case ConsistencyPolicy::Lease:
      // Pushes guarantee freshness until one arrives.
      return invalidated_ ? CacheUse::Refetch : CacheUse::Fresh;
    case ConsistencyPolicy::Ttl:
      if (queries_since_fetch_ <= caching_.ttl_queries) return CacheUse::Unchecked;
      [[fallthrough]];
    case ConsistencyPolicy::Revalidate:
      if (!revalidate(q)) return CacheUse::Refetch;
      queries_since_fetch_ = 0;  // restart the TTL clock after a fresh probe
      return CacheUse::Fresh;
  }
  return CacheUse::Refetch;
}

void CachingClient::notify_update(const geom::Point& where) {
  if (caching_.consistency != ConsistencyPolicy::Lease || !region_.installed() || invalidated_) {
    return;
  }
  if (!region_.rect().contains(where)) return;
  // The push arrives on the listening NIC; the client unpacks it.
  transport_.receive_push(kPushBytes);
  invalidated_ = true;
  ++pushes_;
}

QueryStatus CachingClient::run_query(const rtree::RangeQuery& q) {
  // Leased caches must keep the NIC reachable for invalidation pushes.
  transport_.think(caching_.think_time_s, caching_.consistency == ConsistencyPolicy::Lease &&
                                              region_.installed() && !invalidated_);
  ++queries_since_fetch_;
  // The path, probe included, is known before the wrapper opens, so the
  // wrapper and its counter name what happened.
  const CacheUse use = region_.covers(q.window) ? cache_use(q) : CacheUse::Refetch;
  const bool fetch = use == CacheUse::Refetch;
  obs::TraceSink* trace = transport_.trace();
  if (trace != nullptr) {
    transport_.settle_sleep();
    trace->begin(fetch ? "cache-fetch" : "cache-hit", transport_.wall_seconds());
    trace->counter(fetch ? "cache-fetches" : "cache-local-hits", 1);
  }
  QueryStatus status = QueryStatus::Ok;
  if (fetch) {
    status = fetch_and_run(q);
  } else {
    ++local_hits_;
    if (use == CacheUse::Unchecked && stale(q.window)) ++stale_answers_;
    run_local(q);
  }
  if (trace != nullptr) {
    transport_.settle_sleep();
    trace->end(transport_.wall_seconds());
    if (fetch) trace->counter("cache-shipped-bytes", static_cast<double>(cached_bytes()));
  }
  return status;
}

}  // namespace mosaiq::core
