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
    : data_(dataset), transport_(cfg) {}

QueryStatus Session::run_query(const rtree::Query& q) {
  return run_query_as(q, transport_.config().scheme);
}

QueryStatus Session::run_query_as(const rtree::Query& q, Scheme scheme) {
  std::vector<std::uint32_t> cand;
  SchemeSteps steps(data_, q, scheme, transport_.config().placement.data_at_client, cand);
  // The wrapper opens without settling: compute pending from before the
  // query (the adaptive planner's estimate) settles inside it, exactly
  // when it would untraced.
  obs::TraceSink* trace = transport_.trace();
  if (trace != nullptr) {
    trace->begin(std::string(name_of(scheme)) + " " + name_of(rtree::kind_of(q)),
                 transport_.wall_seconds());
  }
  std::uint64_t& answers = transport_.answers();
  const std::uint64_t answers_before = answers;
  const std::uint64_t request_bytes = steps.client_w1(transport_.client(), answers);
  QueryStatus status = QueryStatus::Ok;
  if (uses_server(scheme)) {
    const ExchangeStatus st = transport_.exchange(
        request_bytes, [&](sim::ServerCpu& server) { return steps.server_w2(server, answers); });
    if (st == ExchangeStatus::Delivered) {
      steps.client_w3(transport_.client(), answers);
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
  transport_.answers() = answers_before;
  if (!transport_.config().placement.data_at_client) {
    return transport_.count(QueryStatus::Failed);
  }
  // Data replicated at the client (the paper's adequate-memory setup):
  // re-execute the whole query locally, paying client-CPU energy.
  std::vector<std::uint32_t> cand;
  SchemeSteps(data_, q, Scheme::FullyAtClient, /*data_at_client=*/true, cand)
      .client_w1(transport_.client(), transport_.answers());
  return transport_.count(QueryStatus::DegradedLocal);
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
