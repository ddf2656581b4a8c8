#include "core/caching_client.hpp"

#include <cmath>
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
    : master_(master),
      cfg_(base),
      caching_(caching),
      client_((validate_config(base), base.client)),
      server_(base.server),
      transport_(base.channel, base.nic_power, base.protocol, base.wait_policy, client_,
                 server_),
      ledger_(base.nic_power, base.channel.distance_m) {
  if (cfg_.fault.enabled()) {
    // Think time and pushes are booked on the ledger, off the exchanges:
    // the fault model's clock does not run through them and a push is
    // never lost, so a lossy link would be simulated wrongly.
    if (caching_.think_time_s > 0 || caching_.consistency == ConsistencyPolicy::Lease) {
      throw std::invalid_argument("CachingClient: link faults need zero think time and no lease");
    }
    fault_.emplace(cfg_.fault);
    transport_.set_fault(&*fault_, cfg_.retry);
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

void CachingClient::advance_think_time() {
  const double t = caching_.think_time_s;
  if (t <= 0) return;
  // Leased caches must keep the NIC reachable for invalidation pushes.
  const bool listening =
      caching_.consistency == ConsistencyPolicy::Lease && region_.installed() && !invalidated_;
  ledger_.nic.spend(listening ? net::NicState::Idle : net::NicState::Sleep, t);
  client_.wait_seconds(t, sim::WaitPolicy::BlockLowPower);
  ledger_.wall_s += t;
}

void CachingClient::run_local(const rtree::RangeQuery& q) {
  answers_ += region_.answer(q.window, client_);
  transport_.settle_sleep();
}

QueryStatus CachingClient::fetch_and_run(const rtree::RangeQuery& q) {
  rtree::Shipment shipment;
  const ExchangeStatus st = transport_.exchange(
      serial::QueryRequest::size_for(rtree::Query{q}, 0), [&]() -> std::uint64_t {
        shipment = rtree::extract_shipment(master_.tree, master_.store, q.window,
                                           {caching_.budget_bytes}, caching_.policy, server_);
        return serial::ShipmentResponse::size_for(shipment.segments.size(),
                                                  shipment.node_count);
      });
  if (st != ExchangeStatus::Delivered) {
    // The fetch died.  The paper's protocol would have discarded the
    // cache before re-requesting; keeping the stale shipment around
    // instead lets the client degrade to a best-effort local answer
    // (possibly missing objects outside the stale safe rectangle)
    // rather than fail outright.
    obs::TraceSink* trace = transport_.trace();
    if (!region_.installed()) {
      ++failed_;
      if (trace != nullptr) trace->counter("failed-queries", 1);
      return QueryStatus::Failed;
    }
    ++degraded_;
    if (trace != nullptr) trace->counter("degraded-queries", 1);
    if (stale(q.window)) ++stale_answers_;
    run_local(q);
    return QueryStatus::DegradedLocal;
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
  const ExchangeStatus st = transport_.exchange(kProbeBytes, [&]() -> std::uint64_t {
    // Version lookup on the server: a handful of tile reads.
    server_.instr(rtree::InstrMix{60, 0, 20});
    server_.read(rtree::simaddr::kScratchBase + (16u << 20), 64);
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
  const net::WireCost push = net::wire_cost(kPushBytes, cfg_.protocol);
  const double t_rx =
      static_cast<double>(push.wire_bits()) / (cfg_.channel.bandwidth_mbps * 1e6);
  ledger_.nic.spend(net::NicState::Receive, t_rx);
  net::charge_protocol_rx(push, client_);
  ledger_.cycles.nic_rx +=
      static_cast<std::uint64_t>(std::llround(t_rx * cfg_.client.clock_hz()));
  ledger_.wall_s += t_rx;
  ledger_.bytes_rx += push.wire_bytes;
  invalidated_ = true;
  ++pushes_;
  transport_.settle_sleep();
}

QueryStatus CachingClient::run_query(const rtree::RangeQuery& q) {
  advance_think_time();
  ++queries_since_fetch_;
  obs::TraceSink* trace = transport_.trace();
  const bool hit = region_.covers(q.window);
  if (trace != nullptr) {
    transport_.settle_sleep();
    trace->begin(hit ? "cache-hit" : "cache-fetch", transport_.wall_seconds());
    trace->counter(hit ? "cache-local-hits" : "cache-fetches", 1);
  }
  QueryStatus status = QueryStatus::Ok;
  const CacheUse use = hit ? cache_use(q) : CacheUse::Refetch;
  if (use == CacheUse::Refetch) {
    status = fetch_and_run(q);
  } else {
    ++local_hits_;
    if (use == CacheUse::Unchecked && stale(q.window)) ++stale_answers_;
    run_local(q);
  }
  if (trace != nullptr) {
    transport_.settle_sleep();
    trace->end(transport_.wall_seconds());
    if (!hit) trace->counter("cache-shipped-bytes", static_cast<double>(cached_bytes()));
  }
  return status;
}

stats::Outcome CachingClient::outcome() {
  stats::Outcome o = transport_.snapshot();
  ledger_.add_to(o);
  o.answers = answers_;
  o.queries_degraded = degraded_;
  o.queries_failed = failed_;
  return o;
}

}  // namespace mosaiq::core
