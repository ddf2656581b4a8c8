// Pipelined work partitioning — the w4 > 0 execution the paper leaves
// as future work ("It would be useful to also exploit parallelism
// between client and server executions", Section 7).
//
// Scheme: pipelined filter@client / refine@server.  The client filters
// incrementally and ships candidate *batches*; the server refines batch
// i while the client is still filtering batch i+1, and responses stream
// back interleaved.  Three resources are scheduled: the client CPU, the
// half-duplex radio, and the server CPU.  Compared to the blocking
// filter@client/refine@server scheme this trades energy for latency:
//
//   - latency improves because client filtering, the radio, and server
//     refinement overlap;
//   - energy worsens because the NIC can no longer SLEEP between
//     phases (a response may arrive at any time, so it holds IDLE
//     during every gap) and each batch pays its own packet overheads.
#pragma once

#include <cstdint>

#include "core/session.hpp"

namespace mosaiq::core {

struct PipelineConfig {
  /// Candidate ids per batch (the last batch may be smaller).
  std::uint32_t batch_size = 256;
};

class PipelinedSession {
 public:
  /// Throws std::invalid_argument when `base` enables link faults,
  /// which the pipelined schedule does not model.
  PipelinedSession(const workload::Dataset& dataset, const SessionConfig& base,
                   const PipelineConfig& pipeline);

  /// Executes one point or range query under the pipelined scheme.
  /// Throws std::invalid_argument for NN/kNN (nothing to pipeline).
  void run_query(const rtree::Query& q);

  stats::Outcome outcome();

  /// Total batches shipped so far.
  std::uint32_t batches() const { return batches_; }

  const sim::ClientCpu& client_cpu() const { return client_; }

 private:
  const workload::Dataset& data_;
  SessionConfig cfg_;
  PipelineConfig pipe_;
  sim::ClientCpu client_;
  sim::ServerCpu server_;
  net::Nic nic_;

  stats::CycleBreakdown cycles_;
  std::uint64_t answers_ = 0;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t bytes_rx_ = 0;
  std::uint32_t round_trips_ = 0;
  std::uint32_t batches_ = 0;
  double wall_seconds_ = 0;
  double cpu_gap_seconds_ = 0;  ///< client CPU idle gaps inside queries
};

}  // namespace mosaiq::core
