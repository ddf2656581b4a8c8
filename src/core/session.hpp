// Session: the paper's Figure-1 execution structure.
//
// A Session binds one dataset (replicated at the server, optionally at
// the client), one work-partitioning scheme, a wireless channel and the
// two machine models, and executes queries end-to-end through the
// Table-1 executor (core/query_exec.hpp) and the transport:
//
//     client w1  ->  request  ->  server w2  ->  result  ->  client w3
//
// accumulating client cycles (processor / NIC-Tx / NIC-Rx / wait),
// client energy (processor, NIC per state), server cycles, and wire
// traffic.  w4 = 0: no client/server overlap, as in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/transport.hpp"
#include "rtree/query.hpp"
#include "workload/dataset.hpp"

namespace mosaiq::core {

struct SessionConfig {
  Scheme scheme = Scheme::FullyAtClient;
  DataPlacement placement{};
  net::Channel channel{};
  net::NicPowerModel nic_power{};
  net::ProtocolConfig protocol{};
  sim::ClientConfig client{};
  sim::ServerConfig server{};
  sim::WaitPolicy wait_policy = sim::WaitPolicy::BlockLowPower;
  net::FaultConfig fault{};  ///< link-fault injection; disabled by default
  net::RetryConfig retry{};  ///< timeout/backoff/budget when fault.enabled()
};

/// Rejects non-physical configurations (zero bandwidth, inverted MTU,
/// non-positive clocks) with std::invalid_argument.
void validate_config(const SessionConfig& cfg);

class Session {
 public:
  Session(const workload::Dataset& dataset, const SessionConfig& cfg);

  /// Executes one query under the configured scheme, accumulating into
  /// the session totals.  Throws std::invalid_argument for a
  /// nearest-neighbor query under a hybrid scheme (the paper's NN
  /// implementation has no filtering/refinement split to partition at).
  /// On a fault-free link the status is always Ok; when the transport's
  /// retry budget runs out, a data-holding client re-executes the whole
  /// query locally (DegradedLocal), otherwise the query is Failed.
  QueryStatus run_query(const rtree::Query& q);

  /// Executes one query under an explicit scheme, overriding the
  /// configured one (used by the adaptive planner).
  QueryStatus run_query_as(const rtree::Query& q, Scheme scheme);

  /// Snapshot of the accumulated totals.
  stats::Outcome outcome();

  /// Attaches a phase-span/counter sink (obs/trace.hpp); nullptr
  /// detaches.  Each run_query additionally wraps its phases in a
  /// "<scheme> <kind>" wrapper span.
  void set_trace(obs::TraceSink* trace) { transport_.set_trace(trace); }

  const sim::ClientCpu& client_cpu() const { return client_; }

  /// Client CPU as an instrumentation sink for work that logically runs
  /// on the client outside a query (e.g. the adaptive planner's
  /// estimation pass).
  rtree::ExecHooks& client_hooks() { return client_; }
  const sim::ServerCpu& server_cpu() const { return server_; }
  const net::Nic& nic() const { return transport_.nic(); }
  const SessionConfig& config() const { return cfg_; }

  /// Convenience: fresh session, run all queries, return totals.
  /// A non-null `trace` records the batch's phase spans.
  static stats::Outcome run_batch(const workload::Dataset& dataset, const SessionConfig& cfg,
                                  std::span<const rtree::Query> queries,
                                  obs::TraceSink* trace = nullptr);

 private:
  /// Handles an exhausted retry budget: rolls answers back to
  /// `answers_before`, then either re-executes the whole query locally
  /// (DegradedLocal, data replicated at the client) or gives up
  /// (Failed).
  QueryStatus degrade(const rtree::Query& q, std::uint64_t answers_before);

  const workload::Dataset& data_;
  SessionConfig cfg_;
  sim::ClientCpu client_;
  sim::ServerCpu server_;
  Transport transport_;
  std::optional<net::LinkFaultModel> fault_;
  std::uint64_t answers_ = 0;
  std::uint32_t degraded_ = 0;
  std::uint32_t failed_ = 0;
};

}  // namespace mosaiq::core
