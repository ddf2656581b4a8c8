#include "core/broadcast_client.hpp"

#include <stdexcept>
#include <vector>

#include "core/query_exec.hpp"

namespace mosaiq::core {

BroadcastClient::BroadcastClient(const workload::Dataset& master, const SessionConfig& base,
                                 const net::BroadcastProgram& program,
                                 BroadcastClientConfig cfg)
    : master_(master), program_(program), bcfg_(cfg), transport_(base) {
  if (base.fault.enabled()) {
    throw std::invalid_argument("BroadcastClient: link faults are not modeled");
  }
}

void BroadcastClient::run_local(const rtree::RangeQuery& q) {
  transport_.answers() += bucket_.answer(q.window, transport_.client());
  transport_.settle_sleep();
}

void BroadcastClient::tune_and_run(std::size_t region, const rtree::RangeQuery& q) {
  const double bytes_per_s = program_.bandwidth_mbps * 1e6 / 8.0;
  const net::BroadcastRegion& r = program_.regions[region];

  // IDLE until the next index replica, receive it, doze to the bucket,
  // receive the bucket.
  transport_.receive_broadcast(program_.mean_index_wait_s(), program_.index_s(),
                               program_.mean_doze_s(region),
                               static_cast<double>(r.bucket_bytes) / bytes_per_s,
                               program_.index_bytes + r.bucket_bytes);

  // Unpack: directory + bucket payload pass through the protocol stack.
  // Settling right after books the protocol busy time here (and, with a
  // trace attached, gives the unpack its own span) instead of lumping it
  // with run_local's query compute.
  const net::ProtocolConfig& protocol = transport_.config().protocol;
  net::charge_protocol_rx(net::wire_cost(program_.index_bytes, protocol), transport_.client());
  net::charge_protocol_rx(net::wire_cost(r.bucket_bytes, protocol), transport_.client());
  transport_.settle_sleep();

  // Install the bucket as the local store + index.
  std::vector<geom::Segment> segs;
  std::vector<std::uint32_t> ids;
  segs.reserve(r.records.size());
  ids.reserve(r.records.size());
  for (const std::uint32_t rec : r.records) {
    segs.push_back(master_.store.segment(rec));
    ids.push_back(master_.store.id(rec));
  }
  bucket_.install(std::move(segs), ids, r.rect);
  ++tunes_;

  run_local(q);
}

void BroadcastClient::fallback(const rtree::RangeQuery& q) {
  // On-demand fully-at-server, the data at the server: Session's exchange.
  const rtree::Query query{q};
  std::vector<std::uint32_t> cand;
  SchemeSteps steps(master_, query, Scheme::FullyAtServer, /*data_at_client=*/false, cand);
  transport_.exchange(steps.request_bytes(), [&](sim::ServerCpu& server) {
    return steps.server_w2(server, transport_.answers());
  });
  ++fallbacks_;
}

void BroadcastClient::run_query(const rtree::RangeQuery& q) {
  if (bcfg_.cache_bucket && bucket_.covers(q.window)) {
    ++cache_hits_;
    run_local(q);
    return;
  }
  const auto region = program_.region_for(q.window);
  if (region) {
    tune_and_run(*region, q);
  } else {
    fallback(q);
  }
}

}  // namespace mosaiq::core
