#include <gtest/gtest.h>

#include "core/broadcast_client.hpp"
#include "geom/predicates.hpp"
#include "outcome_bits.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::core {
namespace {

const workload::Dataset& data() {
  static workload::Dataset d = workload::make_pa(30000);
  return d;
}

std::vector<geom::Rect> hot_regions() {
  // Small downtown cores: broadcast buckets are received whole, so
  // region size directly prices a tune-in.
  return {{{0.18, 0.25}, {0.26, 0.33}}, {{0.54, 0.22}, {0.60, 0.28}}};
}

SessionConfig base_config() {
  SessionConfig cfg;
  cfg.channel = {2.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  return cfg;
}

net::BroadcastProgram program() {
  return net::make_broadcast_program(data().tree, hot_regions(), 2.0, 4);
}

std::uint64_t brute_count(const geom::Rect& w) {
  std::uint64_t n = 0;
  for (const auto& s : data().store.segments()) {
    if (geom::segment_intersects_rect(s, w)) ++n;
  }
  return n;
}

TEST(BroadcastProgram, LayoutIsConsistent) {
  const net::BroadcastProgram p = program();
  ASSERT_EQ(p.regions.size(), 2u);
  EXPECT_EQ(p.replica_start_s.size(), 4u);
  EXPECT_GT(p.cycle_s, 0.0);
  for (const auto& r : p.regions) {
    EXPECT_FALSE(r.records.empty());
    EXPECT_GE(r.offset_s, p.index_s());
    EXPECT_LE(r.offset_s, p.cycle_s);
    EXPECT_EQ(r.bucket_bytes, r.records.size() * rtree::kRecordBytes +
                                  rtree::packed_node_count(r.records.size()) *
                                      rtree::kNodeBytes);
  }
  // Replica starts are strictly increasing and begin at 0.
  EXPECT_DOUBLE_EQ(p.replica_start_s.front(), 0.0);
  for (std::size_t i = 1; i < p.replica_start_s.size(); ++i) {
    EXPECT_GT(p.replica_start_s[i], p.replica_start_s[i - 1]);
  }
}

TEST(BroadcastProgram, MoreReplicasShorterIndexWait) {
  const auto p1 = net::make_broadcast_program(data().tree, hot_regions(), 2.0, 1);
  const auto p8 = net::make_broadcast_program(data().tree, hot_regions(), 2.0, 8);
  EXPECT_GT(p1.mean_index_wait_s(), p8.mean_index_wait_s());
}

TEST(BroadcastProgram, RegionLookup) {
  const net::BroadcastProgram p = program();
  EXPECT_TRUE(p.region_for({{0.20, 0.25}, {0.22, 0.27}}).has_value());
  EXPECT_FALSE(p.region_for({{0.80, 0.80}, {0.82, 0.82}}).has_value());
  // Straddling a region boundary is NOT locally answerable.
  EXPECT_FALSE(p.region_for({{0.28, 0.30}, {0.35, 0.36}}).has_value());
}

TEST(BroadcastClient, HotQueriesNeverTransmit) {
  const net::BroadcastProgram p = program();
  BroadcastClient c(data(), base_config(), p);
  c.run_query({geom::Rect{{0.20, 0.26}, {0.24, 0.30}}});
  c.run_query({geom::Rect{{0.55, 0.22}, {0.58, 0.25}}});
  const stats::Outcome o = c.outcome();
  EXPECT_EQ(o.bytes_tx, 0u);
  EXPECT_DOUBLE_EQ(o.energy.nic_tx_j, 0.0);
  EXPECT_GT(o.bytes_rx, 0u);
  EXPECT_EQ(c.broadcast_tunes(), 2u);
  EXPECT_EQ(c.fallbacks(), 0u);
}

TEST(BroadcastClient, AnswersMatchBruteForce) {
  const net::BroadcastProgram p = program();
  BroadcastClient c(data(), base_config(), p);
  const geom::Rect hot{{0.19, 0.26}, {0.25, 0.32}};
  const geom::Rect cold{{0.75, 0.70}, {0.80, 0.76}};
  c.run_query({hot});
  c.run_query({cold});
  EXPECT_EQ(c.outcome().answers, brute_count(hot) + brute_count(cold));
  EXPECT_EQ(c.fallbacks(), 1u);
}

TEST(BroadcastClient, BucketCacheServesFollowUps) {
  const net::BroadcastProgram p = program();
  BroadcastClient c(data(), base_config(), p);
  c.run_query({geom::Rect{{0.20, 0.26}, {0.24, 0.30}}});
  const std::uint64_t rx_after_first = c.outcome().bytes_rx;
  for (int i = 0; i < 5; ++i) {
    c.run_query({geom::Rect{{0.19 + 0.008 * i, 0.26}, {0.21 + 0.008 * i, 0.29}}});
  }
  EXPECT_EQ(c.broadcast_tunes(), 1u);
  EXPECT_EQ(c.cache_hits(), 5u);
  EXPECT_EQ(c.outcome().bytes_rx, rx_after_first);  // no further airtime
}

TEST(BroadcastClient, CacheDisabledRetunesEveryQuery) {
  const net::BroadcastProgram p = program();
  BroadcastClient c(data(), base_config(), p, {.cache_bucket = false});
  for (int i = 0; i < 3; ++i) c.run_query({geom::Rect{{0.20, 0.26}, {0.24, 0.30}}});
  EXPECT_EQ(c.broadcast_tunes(), 3u);
  EXPECT_EQ(c.cache_hits(), 0u);
}

TEST(BroadcastClient, HotBurstCheaperThanFallbackEnergy) {
  // The headline effect: one bucket reception (no transmitter at all)
  // amortized over a burst of queries in the region beats repeated
  // on-demand round trips on the ~3 W transmitter.
  const net::BroadcastProgram p = program();
  std::vector<rtree::RangeQuery> burst;
  for (int i = 0; i < 10; ++i) {
    burst.push_back({geom::Rect{{0.185 + 0.006 * i, 0.26}, {0.205 + 0.006 * i, 0.29}}});
  }

  BroadcastClient via_broadcast(data(), base_config(), p);
  SessionConfig srv = base_config();
  srv.scheme = Scheme::FullyAtServer;
  srv.placement.data_at_client = false;
  Session s(data(), srv);
  for (const auto& q : burst) {
    via_broadcast.run_query(q);
    s.run_query(rtree::Query{q});
  }
  EXPECT_EQ(via_broadcast.broadcast_tunes(), 1u);
  EXPECT_EQ(via_broadcast.outcome().answers, s.outcome().answers);
  EXPECT_LT(via_broadcast.outcome().energy.total_j(), s.outcome().energy.total_j());
  // And with zero transmit energy.
  EXPECT_DOUBLE_EQ(via_broadcast.outcome().energy.nic_tx_j, 0.0);
}

TEST(BroadcastClient, ColdTrafficMatchesFullyAtServerSession) {
  // Off the hot regions the client falls back to an on-demand
  // fully-at-server exchange with the data at the server, so on all-cold
  // traffic it must equal that Session bit for bit.
  const net::BroadcastProgram p = program();
  BroadcastClient c(data(), base_config(), p);
  SessionConfig srv = base_config();
  srv.scheme = Scheme::FullyAtServer;
  srv.placement.data_at_client = false;
  Session s(data(), srv);
  for (int i = 0; i < 12; ++i) {
    const double dx = 0.01 * i;
    const rtree::RangeQuery q{{{0.70 + dx, 0.62}, {0.74 + dx, 0.67}}};
    c.run_query(q);
    s.run_query(rtree::Query{q});
  }
  EXPECT_EQ(c.fallbacks(), 12u);
  test_support::expect_bit_identical(c.outcome(), s.outcome());
}

TEST(BroadcastClient, RejectsALossyLink) {
  // Neither the broadcast channel nor the fallback models link faults;
  // a lossy config must not run as if it were clean.
  const net::BroadcastProgram p = program();
  SessionConfig cfg = base_config();
  cfg.fault.outages.push_back({1.0, 2.0});
  EXPECT_THROW(BroadcastClient(data(), cfg, p), std::invalid_argument);
}

TEST(HotRegionsFromHistory, RecoversThePopularAreas) {
  // Synthesize a request log concentrated in two spots plus noise; the
  // derived regions must cover the spots.
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<geom::Rect> log;
  auto add_near = [&](double cx, double cy, int n) {
    for (int i = 0; i < n; ++i) {
      const double x = cx + (u(rng) - 0.5) * 0.04;
      const double y = cy + (u(rng) - 0.5) * 0.04;
      log.push_back({{x - 0.01, y - 0.01}, {x + 0.01, y + 0.01}});
    }
  };
  add_near(0.25, 0.25, 120);
  add_near(0.75, 0.70, 80);
  for (int i = 0; i < 40; ++i) {
    log.push_back({{u(rng), u(rng)}, {u(rng), u(rng)}});
  }

  const auto regions = net::hot_regions_from_history(log, {{0, 0}, {1, 1}}, 4, 0.5);
  ASSERT_FALSE(regions.empty());
  ASSERT_LE(regions.size(), 4u);
  auto covered = [&](double x, double y) {
    for (const geom::Rect& r : regions) {
      if (r.contains(geom::Point{x, y})) return true;
    }
    return false;
  };
  EXPECT_TRUE(covered(0.25, 0.25));
  EXPECT_TRUE(covered(0.75, 0.70));
}

TEST(HotRegionsFromHistory, EdgeCases) {
  EXPECT_TRUE(net::hot_regions_from_history({}, {{0, 0}, {1, 1}}).empty());
  EXPECT_TRUE(net::hot_regions_from_history({{{0.1, 0.1}, {0.2, 0.2}}}, {{0, 0}, {1, 1}}, 0)
                  .empty());
  // A single query yields at most one region containing it.
  const auto one =
      net::hot_regions_from_history({{{0.4, 0.4}, {0.45, 0.45}}}, {{0, 0}, {1, 1}}, 4, 1.0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(one[0].contains(geom::Point{0.425, 0.425}));
}

TEST(HotRegionsFromHistory, EndToEndWithBroadcastClient) {
  // Program the broadcast from a request log, then serve the same
  // traffic pattern: most queries must ride the broadcast.
  std::mt19937_64 rng(32);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<rtree::RangeQuery> traffic;
  for (int i = 0; i < 60; ++i) {
    const double x = 0.20 + u(rng) * 0.04;
    const double y = 0.26 + u(rng) * 0.04;
    traffic.push_back({{{x, y}, {x + 0.02, y + 0.02}}});
  }
  std::vector<geom::Rect> log;
  for (const auto& q : traffic) log.push_back(q.window);

  const auto hot = net::hot_regions_from_history(log, data().extent, 4, 0.8);
  const auto prog = net::make_broadcast_program(data().tree, hot, 2.0, 4);
  BroadcastClient c(data(), base_config(), prog);
  for (const auto& q : traffic) c.run_query(q);
  EXPECT_GT(c.broadcast_tunes() + c.cache_hits(), c.fallbacks());
}

}  // namespace
}  // namespace mosaiq::core
