#include "core/query_exec.hpp"

#include <stdexcept>
#include <string>

#include "geom/predicates.hpp"
#include "rtree/costs.hpp"
#include "serial/messages.hpp"
#include "sim/client_cpu.hpp"
#include "sim/server_cpu.hpp"

namespace mosaiq::core {

namespace {

namespace simaddr = rtree::simaddr;

/// Response payload size for an answer of `n` ids/records.
std::uint64_t answer_payload_bytes(std::uint64_t n, bool data_at_client) {
  return data_at_client ? serial::IdListResponse::size_for(n)
                        : serial::RecordResponse::size_for(n);
}

/// Client-side refinement over records that arrived on the wire (data
/// not resident at the client): the candidate records sit in the
/// application receive buffer, so reads go against the net region.
template <typename Hooks>
void refine_received(const workload::Dataset& data, const rtree::Query& q,
                     std::span<const std::uint32_t> candidates, Hooks& cpu,
                     std::uint64_t& answers) {
  std::uint64_t addr = simaddr::kNetBase;
  std::uint64_t result_addr = simaddr::kScratchBase + (2u << 20);
  for (const std::uint32_t rec : candidates) {
    cpu.instr(rtree::costs::kCandidateFetch);
    cpu.read(addr, 32);
    addr += rtree::kRecordBytes;
    const geom::Segment& s = data.store.segment(rec);
    bool hit = false;
    if (const auto* pq = std::get_if<rtree::PointQuery>(&q)) {
      cpu.instr(rtree::costs::kPointOnSegment);
      hit = geom::point_on_segment(pq->p, s);
    } else if (const auto* rq = std::get_if<rtree::RangeQuery>(&q)) {
      cpu.instr(rtree::costs::kSegRectIntersect);
      hit = geom::segment_intersects_rect(s, rq->window);
    } else {
      for (const geom::Segment& leg : legs_of(std::get<rtree::RouteQuery>(q))) {
        cpu.instr(rtree::costs::kSegSegIntersect);
        if (geom::segments_intersect(s, leg)) {
          hit = true;
          break;
        }
      }
    }
    if (hit) {
      cpu.instr(rtree::costs::kResultPush);
      cpu.write(result_addr, 4);
      result_addr += 4;
      ++answers;
    }
  }
}

}  // namespace

SchemeSteps::SchemeSteps(const workload::Dataset& data, const rtree::Query& q, Scheme scheme,
                         bool data_at_client, std::vector<std::uint32_t>& candidates)
    : data_(data), q_(q), scheme_(scheme), data_at_client_(data_at_client), cand_(candidates) {
  if (!scheme_runs(scheme, rtree::kind_of(q), data_at_client)) {
    throw std::invalid_argument(std::string(name_of(scheme)) + " cannot run a " +
                                rtree::name_of(rtree::kind_of(q)) + " query with the data " +
                                (data_at_client ? "at the client" : "only at the server"));
  }
}

template <typename Hooks>
std::uint64_t SchemeSteps::whole_query(Hooks& cpu) const {
  if (is_filterable(q_)) {
    std::vector<std::uint32_t> cand;
    std::vector<std::uint32_t> ids;
    filter_query(data_, q_, cpu, cand);
    refine_query(data_, q_, cand, cpu, ids);
    return ids.size();
  }
  if (const auto* kq = std::get_if<rtree::KnnQuery>(&q_)) {
    return data_.tree.nearest_k(kq->p, kq->k, data_.store, cpu).size();
  }
  return data_.tree.nearest(std::get<rtree::NNQuery>(q_).p, data_.store, cpu) ? 1 : 0;
}

std::uint64_t SchemeSteps::request_bytes() const {
  return serial::QueryRequest::size_for(
      q_, scheme_ == Scheme::FilterClientRefineServer ? cand_.size() : 0);
}

template <typename Hooks>
std::uint64_t SchemeSteps::client_w1(Hooks& client, std::uint64_t& answers) {
  cand_.clear();
  if (scheme_ == Scheme::FullyAtClient) {
    answers += whole_query(client);
    return 0;
  }
  // Under filter@client the request carries the candidate ids: the
  // transmission the paper identifies as this scheme's energy Achilles
  // heel.
  if (scheme_ == Scheme::FilterClientRefineServer) filter_query(data_, q_, client, cand_);
  return request_bytes();
}

template <typename Hooks>
std::uint64_t SchemeSteps::server_w2(Hooks& server, std::uint64_t& answers) {
  switch (scheme_) {
    case Scheme::FullyAtClient: break;
    case Scheme::FullyAtServer: {
      const std::uint64_t n = whole_query(server);
      answers += n;
      if (std::holds_alternative<rtree::NNQuery>(q_)) return serial::NNResponse{}.encoded_size();
      return answer_payload_bytes(n, data_at_client_);
    }
    case Scheme::FilterClientRefineServer: {
      std::vector<std::uint32_t> ids;
      refine_query(data_, q_, cand_, server, ids);
      answers += ids.size();
      return answer_payload_bytes(ids.size(), data_at_client_);
    }
    case Scheme::FilterServerRefineClient:
      // The response carries candidate ids when the data is replicated
      // at the client, the candidate records when not; serializing the
      // records costs the server a read pass.
      filter_query(data_, q_, server, cand_);
      if (!data_at_client_) {
        for (const std::uint32_t rec : cand_) {
          server.read(data_.store.addr_of(rec), rtree::kRecordBytes);
        }
      }
      return answer_payload_bytes(cand_.size(), data_at_client_);
  }
  return 0;
}

template <typename Hooks>
void SchemeSteps::client_w3(Hooks& client, std::uint64_t& answers) const {
  if (scheme_ != Scheme::FilterServerRefineClient) return;
  if (data_at_client_) {
    std::vector<std::uint32_t> ids;
    refine_query(data_, q_, cand_, client, ids);
    answers += ids.size();
  } else {
    refine_received(data_, q_, cand_, client, answers);
  }
}

// The machine models, whose per-event paths inline into these copies,
// and the type-erased instance for every other ExecHooks.
template std::uint64_t SchemeSteps::client_w1(sim::ClientCpu&, std::uint64_t&);
template std::uint64_t SchemeSteps::client_w1(rtree::ExecHooks&, std::uint64_t&);
template std::uint64_t SchemeSteps::server_w2(sim::ServerCpu&, std::uint64_t&);
template std::uint64_t SchemeSteps::server_w2(rtree::ExecHooks&, std::uint64_t&);
template void SchemeSteps::client_w3(sim::ClientCpu&, std::uint64_t&) const;
template void SchemeSteps::client_w3(rtree::ExecHooks&, std::uint64_t&) const;

}  // namespace mosaiq::core
