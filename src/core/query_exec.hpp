// The Table-1 executor: one query under one partitioning scheme, split
// where its messages go (paper Figure 1),
//
//     client w1  ->  request  ->  server w2  ->  response  ->  client w3
//
// plus the filtering and refinement dispatch for every query kind that
// has them (point, range, route).  Each step runs on whichever machine
// model it is handed.  The Session, the pipelined session and the fleet
// simulator all run queries through it, so the per-scheme work and
// message sizes live in exactly one place.
//
// Like the index kernels they call (rtree/search.hpp), the steps are
// templates over the hooks type.  query_exec.cpp compiles them once per
// machine model, for sim::ClientCpu (w1, w3) and sim::ServerCpu (w2),
// whose events then inline, and once for rtree::ExecHooks, the
// type-erased instance any other hooks go through.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "core/scheme.hpp"
#include "rtree/packed_rtree.hpp"
#include "rtree/query.hpp"
#include "workload/dataset.hpp"

namespace mosaiq::core {

/// True for query kinds with a filtering/refinement split (partitionable
/// at the phase boundary): point, range, and route queries.
inline bool is_filterable(const rtree::Query& q) {
  const auto k = rtree::kind_of(q);
  return k == rtree::QueryKind::Point || k == rtree::QueryKind::Range ||
         k == rtree::QueryKind::Route;
}

inline std::vector<geom::Segment> legs_of(const rtree::RouteQuery& rq) {
  std::vector<geom::Segment> legs;
  legs.reserve(rq.legs());
  for (std::size_t i = 0; i < rq.legs(); ++i) legs.push_back(rq.leg(i));
  return legs;
}

/// Filtering step for any filterable query, on the given machine.
template <typename Hooks>
void filter_query(const workload::Dataset& data, const rtree::Query& q, Hooks& cpu,
                  std::vector<std::uint32_t>& cand) {
  if (const auto* pq = std::get_if<rtree::PointQuery>(&q)) {
    data.tree.filter_point(pq->p, cpu, cand);
  } else if (const auto* rq = std::get_if<rtree::RangeQuery>(&q)) {
    data.tree.filter_range(rq->window, cpu, cand);
  } else {
    data.tree.filter_route(legs_of(std::get<rtree::RouteQuery>(q)), cpu, cand);
  }
}

/// Refinement step for any filterable query, on the given machine.
template <typename Hooks>
void refine_query(const workload::Dataset& data, const rtree::Query& q,
                  std::span<const std::uint32_t> cand, Hooks& cpu,
                  std::vector<std::uint32_t>& ids) {
  if (const auto* pq = std::get_if<rtree::PointQuery>(&q)) {
    rtree::refine_point(data.store, pq->p, cand, cpu, ids);
  } else if (const auto* rq = std::get_if<rtree::RangeQuery>(&q)) {
    rtree::refine_range(data.store, rq->window, cand, cpu, ids);
  } else {
    rtree::refine_route(data.store, legs_of(std::get<rtree::RouteQuery>(q)), cand, cpu, ids);
  }
}

/// The Table-1 steps of one query.  Each step adds the answers it finds
/// to `answers`; between steps only the two payload sizes and the
/// candidate list (held by the caller, so it can outlive the steps
/// object across a fleet client's stages) cross the link.
class SchemeSteps {
 public:
  /// Throws std::invalid_argument for a nearest-neighbor query under a
  /// hybrid scheme: the paper's NN search has no filtering/refinement
  /// split to partition at.
  SchemeSteps(const workload::Dataset& data, const rtree::Query& q, Scheme scheme,
              bool data_at_client, std::vector<std::uint32_t>& candidates);

  /// w1 on the client: the whole query under FullyAtClient, filtering
  /// under filter@client, nothing otherwise.  Returns the request
  /// payload size (0 under FullyAtClient: nothing is sent).
  /// Instantiated for sim::ClientCpu and rtree::ExecHooks.
  template <typename Hooks>
  std::uint64_t client_w1(Hooks& client, std::uint64_t& answers);

  /// w2 on the server: the whole query, refinement of the shipped
  /// candidates, or filtering (plus a read pass over the candidate
  /// records when they must ship).  Returns the response payload size.
  /// Instantiated for sim::ServerCpu and rtree::ExecHooks.
  template <typename Hooks>
  std::uint64_t server_w2(Hooks& server, std::uint64_t& answers);

  /// w3 on the client: refinement under filter@server, over the local
  /// store or, with the data not at the client, the received records.
  /// Instantiated for sim::ClientCpu and rtree::ExecHooks.
  template <typename Hooks>
  void client_w3(Hooks& client, std::uint64_t& answers) const;

  /// Request payload for this query, carrying the current candidates
  /// under filter@client.
  std::uint64_t request_bytes() const;

 private:
  /// The whole query on one machine; returns its answer count.
  template <typename Hooks>
  std::uint64_t whole_query(Hooks& cpu) const;

  const workload::Dataset& data_;
  const rtree::Query& q_;
  Scheme scheme_;
  bool data_at_client_;
  std::vector<std::uint32_t>& cand_;
};

}  // namespace mosaiq::core
