#include "core/session.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "core/query_exec.hpp"

namespace mosaiq::core {

void validate_config(const SessionConfig& cfg) {
  if (!(cfg.channel.bandwidth_mbps > 0)) {
    throw std::invalid_argument("SessionConfig: bandwidth must be positive");
  }
  if (cfg.channel.distance_m < 0) {
    throw std::invalid_argument("SessionConfig: distance must be non-negative");
  }
  if (!(cfg.client.clock_mhz > 0) || !(cfg.server.clock_mhz > 0)) {
    throw std::invalid_argument("SessionConfig: clock speeds must be positive");
  }
  if (cfg.protocol.mtu_bytes <= cfg.protocol.header_bytes) {
    throw std::invalid_argument("SessionConfig: MTU must exceed the header size");
  }
  if (cfg.fault.enabled() && !(cfg.retry.timeout_mult > 0)) {
    throw std::invalid_argument("SessionConfig: timeout multiple must be positive");
  }
}

Session::Session(const workload::Dataset& dataset, const SessionConfig& cfg)
    : data_(dataset),
      cfg_(cfg),
      client_((validate_config(cfg), cfg.client)),
      server_(cfg.server),
      transport_(cfg.channel, cfg.nic_power, cfg.protocol, cfg.wait_policy, client_, server_) {
  if (cfg_.fault.enabled()) {
    fault_.emplace(cfg_.fault);
    transport_.set_fault(&*fault_, cfg_.retry);
  }
}

QueryStatus Session::run_query(const rtree::Query& q) { return run_query_as(q, cfg_.scheme); }

QueryStatus Session::run_query_as(const rtree::Query& q, Scheme scheme) {
  std::vector<std::uint32_t> cand;
  SchemeSteps steps(data_, q, scheme, cfg_.placement.data_at_client, cand);
  // The wrapper opens without settling: compute pending from before the
  // query (the adaptive planner's estimate) settles inside it, exactly
  // when it would untraced.
  obs::TraceSink* trace = transport_.trace();
  if (trace != nullptr) {
    trace->begin(std::string(name_of(scheme)) + " " + name_of(rtree::kind_of(q)),
                 transport_.wall_seconds());
  }
  const std::uint64_t answers_before = answers_;
  const std::uint64_t request_bytes = steps.client_w1(client_, answers_);
  QueryStatus status = QueryStatus::Ok;
  if (uses_server(scheme)) {
    const ExchangeStatus st = transport_.exchange(
        request_bytes, [&]() -> std::uint64_t { return steps.server_w2(server_, answers_); });
    if (st == ExchangeStatus::Delivered) {
      steps.client_w3(client_, answers_);
    } else {
      status = degrade(q, answers_before);
    }
  }
  transport_.settle_sleep();
  if (trace != nullptr) trace->end(transport_.wall_seconds());
  return status;
}

QueryStatus Session::degrade(const rtree::Query& q, std::uint64_t answers_before) {
  // server_w2 may have counted answers before the response was lost;
  // the client never saw them.
  answers_ = answers_before;
  obs::TraceSink* trace = transport_.trace();
  if (!cfg_.placement.data_at_client) {
    ++failed_;
    if (trace != nullptr) trace->counter("failed-queries", 1);
    return QueryStatus::Failed;
  }
  // Data replicated at the client (the paper's adequate-memory setup):
  // re-execute the whole query locally, paying client-CPU energy.
  ++degraded_;
  if (trace != nullptr) trace->counter("degraded-queries", 1);
  std::vector<std::uint32_t> cand;
  SchemeSteps(data_, q, Scheme::FullyAtClient, cfg_.placement.data_at_client, cand)
      .client_w1(client_, answers_);
  return QueryStatus::DegradedLocal;
}

stats::Outcome Session::outcome() {
  stats::Outcome o = transport_.snapshot();
  o.answers = answers_;
  o.queries_degraded = degraded_;
  o.queries_failed = failed_;
  return o;
}

stats::Outcome Session::run_batch(const workload::Dataset& dataset, const SessionConfig& cfg,
                                  std::span<const rtree::Query> queries,
                                  obs::TraceSink* trace) {
  Session s(dataset, cfg);
  s.set_trace(trace);
  for (const rtree::Query& q : queries) s.run_query(q);
  return s.outcome();
}

}  // namespace mosaiq::core
