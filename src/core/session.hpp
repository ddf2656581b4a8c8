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
#include <span>

#include "core/transport.hpp"
#include "rtree/query.hpp"
#include "workload/dataset.hpp"

namespace mosaiq::core {

class Session {
 public:
  Session(const workload::Dataset& dataset, const SessionConfig& cfg);

  /// Executes one query under the configured scheme, accumulating into
  /// the session totals.  Throws std::invalid_argument for a
  /// nearest-neighbor query under a hybrid scheme (the paper's NN
  /// implementation has no filtering/refinement split to partition at)
  /// and for fully-at-client on a client that does not hold the data.
  /// On a fault-free link the status is always Ok; when the transport's
  /// retry budget runs out, a data-holding client re-executes the whole
  /// query locally (DegradedLocal), otherwise the query is Failed.
  QueryStatus run_query(const rtree::Query& q);

  /// Executes one query under an explicit scheme, overriding the
  /// configured one (used by the adaptive planner).
  QueryStatus run_query_as(const rtree::Query& q, Scheme scheme);

  /// Snapshot of the accumulated totals.
  stats::Outcome outcome() { return transport_.snapshot(); }

  /// Attaches a phase-span/counter sink (obs/trace.hpp); nullptr
  /// detaches.  Each run_query additionally wraps its phases in a
  /// "<scheme> <kind>" wrapper span.
  void set_trace(obs::TraceSink* trace) { transport_.set_trace(trace); }

  const sim::ClientCpu& client_cpu() const { return transport_.client(); }

  /// Client CPU as an instrumentation sink for work that logically runs
  /// on the client outside a query (e.g. the adaptive planner's
  /// estimation pass).
  rtree::ExecHooks& client_hooks() { return transport_.client(); }
  const sim::ServerCpu& server_cpu() const { return transport_.server(); }
  const net::Nic& nic() const { return transport_.nic(); }
  const SessionConfig& config() const { return transport_.config(); }

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
  Transport transport_;
};

}  // namespace mosaiq::core
