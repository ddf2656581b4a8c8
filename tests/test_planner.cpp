#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/adaptive_session.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::core {
namespace {

const workload::Dataset& data() {
  static workload::Dataset d = workload::make_pa(40000);
  return d;
}

SessionConfig env(double mbps, bool data_at_client = true) {
  SessionConfig e;
  e.channel.bandwidth_mbps = mbps;
  e.placement.data_at_client = data_at_client;
  e.client.clock_mhz = 125.0;
  return e;
}

SessionConfig base_config(double mbps) {
  SessionConfig cfg;
  cfg.channel = {mbps, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  return cfg;
}

TEST(DensityGrid, TotalsAndEstimates) {
  const DensityGrid grid(data());
  EXPECT_EQ(grid.total(), data().store.size());
  // Whole-extent estimate returns everything.
  EXPECT_NEAR(grid.estimate_records(data().extent), static_cast<double>(grid.total()),
              grid.total() * 0.01);
  // Empty corner estimates near zero.
  EXPECT_LT(grid.estimate_records({{0.97, 0.47}, {0.99, 0.49}}), grid.total() * 0.01);
}

TEST(DensityGrid, EstimateTracksActualCandidates) {
  const DensityGrid grid(data());
  workload::QueryGen gen(data(), 5);
  int within = 0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    const rtree::RangeQuery q = gen.range_query();
    std::vector<std::uint32_t> cand;
    data().tree.filter_range(q.window, rtree::null_hooks(), cand);
    const double est = grid.estimate_records(q.window);
    if (cand.empty()) continue;
    const double ratio = est / static_cast<double>(cand.size());
    if (ratio > 0.3 && ratio < 3.0) ++within;
  }
  EXPECT_GT(within, trials * 2 / 3);  // coarse histogram, factor-3 accuracy
}

TEST(Planner, PredictionsReflectSchemeStructure) {
  const Planner planner(data(), env(4.0));
  const rtree::Query q = rtree::RangeQuery{{{0.20, 0.26}, {0.26, 0.32}}};

  const auto local = planner.predict(Scheme::FullyAtClient, q);
  const auto server = planner.predict(Scheme::FullyAtServer, q);
  const auto fcrs = planner.predict(Scheme::FilterClientRefineServer, q);
  const auto fsrc = planner.predict(Scheme::FilterServerRefineClient, q);

  // The tx-heavy hybrid must predict the most transmit-driven energy.
  EXPECT_GT(fcrs.energy_j, fsrc.energy_j);
  // Offloading everything must predict fewer client seconds than local
  // when the window is large (refinement dominated).
  EXPECT_LT(server.latency_s, local.latency_s);
  EXPECT_GT(local.est_candidates, 100);
}

TEST(Planner, ObjectiveAndBandwidthFlipTheChoice) {
  const rtree::Query q = rtree::RangeQuery{{{0.20, 0.26}, {0.26, 0.32}}};
  rtree::NullHooks sink;

  // Terrible channel: stay local either way.
  const Planner slow(data(), env(0.2));
  EXPECT_EQ(slow.choose(q, Objective::Energy, sink), Scheme::FullyAtClient);
  EXPECT_EQ(slow.choose(q, Objective::Latency, sink), Scheme::FullyAtClient);

  // Fast channel: offloading wins both objectives.
  const Planner fast(data(), env(50.0));
  EXPECT_NE(fast.choose(q, Objective::Energy, sink), Scheme::FullyAtClient);
  EXPECT_NE(fast.choose(q, Objective::Latency, sink), Scheme::FullyAtClient);
}

TEST(Planner, PointQueriesStayLocal) {
  // The Figure 4 conclusion, reproduced as a planning decision.
  rtree::NullHooks sink;
  workload::QueryGen gen(data(), 7);
  const Planner planner(data(), env(11.0));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(planner.choose(rtree::Query{gen.point_query()}, Objective::Energy, sink),
              Scheme::FullyAtClient);
  }
}

TEST(Planner, HybridsExcludedForNN) {
  rtree::NullHooks sink;
  const Planner planner(data(), env(50.0));
  const Scheme s = planner.choose(rtree::Query{rtree::NNQuery{{0.5, 0.5}}},
                                  Objective::Latency, sink);
  EXPECT_TRUE(s == Scheme::FullyAtClient || s == Scheme::FullyAtServer);
}

TEST(Planner, DataAtServerNeverPicksLocal) {
  // Mirrors Scheduler.DataAtServerNeverPicksLocal: without the data the
  // client can neither answer locally nor refine the server's
  // candidates, however slow the channel.
  rtree::NullHooks sink;
  workload::QueryGen gen(data(), 11);
  std::vector<rtree::Query> queries;
  for (const rtree::QueryKind kind : {rtree::QueryKind::Point, rtree::QueryKind::Range,
                                      rtree::QueryKind::NN, rtree::QueryKind::Knn,
                                      rtree::QueryKind::Route}) {
    for (const rtree::Query& q : gen.batch(kind, 4)) queries.push_back(q);
  }
  for (const double mbps : {0.2, 11.0}) {
    const Planner planner(data(), env(mbps, /*data_at_client=*/false));
    for (const rtree::Query& q : queries) {
      for (const Objective o : {Objective::Energy, Objective::Latency}) {
        const Scheme s = planner.choose(q, o, sink);
        EXPECT_NE(s, Scheme::FullyAtClient) << mbps << " Mbps, " << name_of(o);
        EXPECT_NE(s, Scheme::FilterServerRefineClient) << mbps << " Mbps, " << name_of(o);
      }
    }
  }
}

TEST(Planner, LocalEnergyFollowsTheClientClock) {
  // Figure 8: per-event processor energy does not depend on the clock,
  // so a client four times faster spends about as much on a local query
  // (less the NIC's sleep floor over the shorter run).  The planner's
  // ratio between C/S = 1/2 and 1/8 must track the simulator's.
  const rtree::Query q = rtree::RangeQuery{{{0.20, 0.26}, {0.26, 0.32}}};
  auto energies = [&](double ratio) {
    SessionConfig cfg = base_config(2.0);
    cfg.client = sim::client_at_ratio(ratio);
    const double predicted = Planner(data(), cfg).predict(Scheme::FullyAtClient, q).energy_j;
    const double measured = Session::run_batch(data(), cfg, {&q, 1}).energy.total_j();
    return std::pair{predicted, measured};
  };
  const auto [predicted_slow, measured_slow] = energies(1.0 / 8.0);
  const auto [predicted_fast, measured_fast] = energies(1.0 / 2.0);
  EXPECT_NEAR(predicted_fast / predicted_slow, measured_fast / measured_slow, 0.1);
}

TEST(AdaptiveSession, NeverMuchWorseThanBestStatic) {
  // Regret bound: across bandwidths, the adaptive session stays within
  // 35% of the best static scheme for its objective on a mixed workload.
  workload::QueryGen gen(data(), 9);
  auto queries = gen.batch(rtree::QueryKind::Range, 25);
  const auto points = gen.batch(rtree::QueryKind::Point, 25);
  queries.insert(queries.end(), points.begin(), points.end());

  for (const double mbps : {2.0, 8.0}) {
    double best_energy = std::numeric_limits<double>::infinity();
    for (const Scheme s : {Scheme::FullyAtClient, Scheme::FullyAtServer,
                           Scheme::FilterClientRefineServer,
                           Scheme::FilterServerRefineClient}) {
      SessionConfig cfg = base_config(mbps);
      cfg.scheme = s;
      const stats::Outcome o = Session::run_batch(data(), cfg, queries);
      best_energy = std::min(best_energy, o.energy.total_j());
    }

    AdaptiveSession adaptive(data(), base_config(mbps), Objective::Energy);
    for (const auto& q : queries) adaptive.run_query(q);
    EXPECT_LT(adaptive.outcome().energy.total_j(), best_energy * 1.35)
        << "bandwidth " << mbps;
    EXPECT_EQ(adaptive.outcome().answers,
              Session::run_batch(data(), base_config(mbps), queries).answers);
  }
}

TEST(AdaptiveSession, MixesSchemesOnMixedWorkloads) {
  workload::QueryGen gen(data(), 10);
  auto queries = gen.batch(rtree::QueryKind::Range, 30);
  const auto points = gen.batch(rtree::QueryKind::Point, 30);
  queries.insert(queries.end(), points.begin(), points.end());

  AdaptiveSession adaptive(data(), base_config(8.0), Objective::Energy);
  for (const auto& q : queries) adaptive.run_query(q);
  // At 8 Mbps, point queries should stay local and heavy range queries
  // should offload: at least two distinct schemes in use.
  int used = 0;
  for (const std::uint32_t c : adaptive.choices()) used += c > 0;
  EXPECT_GE(used, 2);
  EXPECT_GE(adaptive.chosen(Scheme::FullyAtClient), 30u);  // all the points
}

}  // namespace
}  // namespace mosaiq::core
