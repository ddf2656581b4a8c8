#include "core/broadcast_client.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/query_exec.hpp"

namespace mosaiq::core {

BroadcastClient::BroadcastClient(const workload::Dataset& master, const SessionConfig& base,
                                 const net::BroadcastProgram& program,
                                 BroadcastClientConfig cfg)
    : master_(master),
      cfg_(base),
      program_(program),
      bcfg_(cfg),
      client_((validate_config(base), base.client)),
      server_(base.server),
      transport_(base.channel, base.nic_power, base.protocol, base.wait_policy, client_,
                 server_),
      ledger_(base.nic_power, base.channel.distance_m) {
  if (cfg_.fault.enabled()) {
    throw std::invalid_argument("BroadcastClient: link faults are not modeled");
  }
}

void BroadcastClient::run_local(const rtree::RangeQuery& q) {
  answers_ += bucket_.answer(q.window, client_);
  transport_.settle_sleep();
}

void BroadcastClient::tune_and_run(std::size_t region, const rtree::RangeQuery& q) {
  const double client_hz = cfg_.client.clock_hz();
  const double bytes_per_s = program_.bandwidth_mbps * 1e6 / 8.0;
  const net::BroadcastRegion& r = program_.regions[region];

  // IDLE until the next index replica, receive it, doze to the bucket,
  // receive the bucket.  The client never transmits.
  const double t_wait = program_.mean_index_wait_s();
  const double t_index = program_.index_s();
  const double t_doze = program_.mean_doze_s(region);
  const double t_bucket = static_cast<double>(r.bucket_bytes) / bytes_per_s;

  ledger_.wall_s += ledger_.nic.sleep_exit();
  ledger_.nic.spend(net::NicState::Idle, t_wait);
  ledger_.nic.spend(net::NicState::Receive, t_index);
  ledger_.nic.spend(net::NicState::Sleep, t_doze);
  ledger_.nic.spend(net::NicState::Receive, t_bucket);
  client_.wait_seconds(t_wait + t_index + t_doze + t_bucket, cfg_.wait_policy);
  ledger_.wall_s += t_wait + t_index + t_doze + t_bucket;
  ledger_.cycles.wait +=
      static_cast<std::uint64_t>(std::llround((t_wait + t_doze) * client_hz));
  ledger_.cycles.nic_rx +=
      static_cast<std::uint64_t>(std::llround((t_index + t_bucket) * client_hz));
  ledger_.bytes_rx += program_.index_bytes + r.bucket_bytes;

  // Unpack: directory + bucket payload pass through the protocol stack.
  // Settling right after folds the protocol busy time into the wall
  // ledger here (and, with a trace attached, gives the unpack its own
  // span) instead of lumping it with run_local's query compute.
  net::charge_protocol_rx(net::wire_cost(program_.index_bytes, cfg_.protocol), client_);
  net::charge_protocol_rx(net::wire_cost(r.bucket_bytes, cfg_.protocol), client_);
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
  transport_.exchange(steps.request_bytes(),
                      [&]() -> std::uint64_t { return steps.server_w2(server_, answers_); });
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

stats::Outcome BroadcastClient::outcome() {
  stats::Outcome o = transport_.snapshot();
  ledger_.add_to(o);
  o.answers = answers_;
  return o;
}

}  // namespace mosaiq::core
