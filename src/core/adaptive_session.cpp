#include "core/adaptive_session.hpp"

namespace mosaiq::core {

AdaptiveSession::AdaptiveSession(const workload::Dataset& dataset, const SessionConfig& base,
                                 Objective objective)
    : session_(dataset, base), planner_(dataset, planner_env(base)), objective_(objective) {}

QueryStatus AdaptiveSession::run_query(const rtree::Query& q) {
  const Scheme s = planner_.choose(q, objective_, session_.client_hooks());
  ++choices_[static_cast<std::size_t>(s)];
  return session_.run_query_as(q, s);
}

}  // namespace mosaiq::core
