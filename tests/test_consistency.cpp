#include <gtest/gtest.h>

#include <random>

#include "core/caching_client.hpp"
#include "outcome_bits.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::core {
namespace {

const workload::Dataset& data() {
  static workload::Dataset d = workload::make_pa(30000);
  return d;
}

SessionConfig base_config() {
  SessionConfig cfg;
  cfg.channel = {4.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  return cfg;
}

CachingConfig consistency(ConsistencyPolicy p, double think = 0.5) {
  CachingConfig c;
  c.consistency = p;
  c.think_time_s = think;
  return c;
}

TEST(TileVersionMap, BumpAndQuery) {
  TileVersionMap m({{0, 0}, {1, 1}}, 4);
  EXPECT_EQ(m.max_version({{0, 0}, {1, 1}}), 0u);
  m.bump({0.1, 0.1});  // tile (0,0)
  EXPECT_EQ(m.max_version({{0, 0}, {0.2, 0.2}}), 1u);
  EXPECT_EQ(m.max_version({{0.6, 0.6}, {0.9, 0.9}}), 0u);
  m.bump({0.9, 0.9});
  EXPECT_EQ(m.max_version({{0, 0}, {1, 1}}), 2u);
  EXPECT_EQ(m.total_updates(), 2u);
}

TEST(TileVersionMap, OutOfExtentClamps) {
  TileVersionMap m({{0, 0}, {1, 1}}, 4);
  m.bump({-5, -5});
  m.bump({7, 7});
  EXPECT_EQ(m.max_version({{0, 0}, {0.1, 0.1}}), 1u);
  EXPECT_EQ(m.max_version({{0.9, 0.9}, {1, 1}}), 2u);
}

TEST(VersionedServer, FreshnessSemantics) {
  VersionedServer srv(data(), 16);
  const geom::Rect r{{0.2, 0.2}, {0.3, 0.3}};
  const std::uint64_t snap = srv.snapshot(r);
  EXPECT_TRUE(srv.fresh(r, snap));
  srv.apply_update({0.25, 0.25});
  EXPECT_FALSE(srv.fresh(r, snap));
  // An update far away does not invalidate this window.
  VersionedServer srv2(data(), 16);
  const std::uint64_t snap2 = srv2.snapshot(r);
  srv2.apply_update({0.9, 0.9});
  EXPECT_TRUE(srv2.fresh(r, snap2));
}

TEST(ConsistentClient, NoneNeverProbesButGoesStale) {
  VersionedServer srv(data());
  CachingClient c(srv, base_config(), consistency(ConsistencyPolicy::None));
  const rtree::RangeQuery q{{{0.20, 0.26}, {0.23, 0.29}}};
  c.run_query(q);
  srv.apply_update(q.window.center());
  c.run_query(q);
  EXPECT_EQ(c.revalidations(), 0u);
  EXPECT_EQ(c.fetches(), 1u);
  EXPECT_EQ(c.stale_answers(), 1u);
}

TEST(ConsistentClient, RevalidateProbesAndNeverServesStale) {
  VersionedServer srv(data());
  CachingClient c(srv, base_config(), consistency(ConsistencyPolicy::Revalidate));
  const rtree::RangeQuery q{{{0.20, 0.26}, {0.23, 0.29}}};
  c.run_query(q);                        // fetch
  c.run_query(q);                        // probe -> fresh -> local
  EXPECT_EQ(c.revalidations(), 1u);
  EXPECT_EQ(c.fetches(), 1u);
  srv.apply_update(q.window.center());
  c.run_query(q);                        // probe -> stale -> refetch
  EXPECT_EQ(c.revalidations(), 2u);
  EXPECT_EQ(c.fetches(), 2u);
  EXPECT_EQ(c.stale_answers(), 0u);
}

TEST(ConsistentClient, TtlProbesOnlyAfterExpiry) {
  VersionedServer srv(data());
  CachingConfig cc = consistency(ConsistencyPolicy::Ttl);
  cc.ttl_queries = 3;
  CachingClient c(srv, base_config(), cc);
  const rtree::RangeQuery q{{{0.20, 0.26}, {0.23, 0.29}}};
  for (int i = 0; i < 4; ++i) c.run_query(q);  // fetch + 3 trusted locals
  EXPECT_EQ(c.revalidations(), 0u);
  c.run_query(q);  // TTL expired -> probe
  EXPECT_EQ(c.revalidations(), 1u);
}

TEST(ConsistentClient, LeasePushInvalidatesAndRefetches) {
  VersionedServer srv(data());
  CachingClient c(srv, base_config(), consistency(ConsistencyPolicy::Lease));
  const rtree::RangeQuery q{{{0.20, 0.26}, {0.23, 0.29}}};
  c.run_query(q);
  EXPECT_EQ(c.fetches(), 1u);

  // An update outside the leased rect: no push.
  srv.apply_update({0.9, 0.9});
  c.notify_update({0.9, 0.9});
  EXPECT_EQ(c.invalidation_pushes(), 0u);
  c.run_query(q);
  EXPECT_EQ(c.fetches(), 1u);

  // An update under the lease: push, then the next query refetches.
  srv.apply_update(q.window.center());
  c.notify_update(q.window.center());
  EXPECT_EQ(c.invalidation_pushes(), 1u);
  c.run_query(q);
  EXPECT_EQ(c.fetches(), 2u);
  EXPECT_EQ(c.stale_answers(), 0u);
}

TEST(ConsistentClient, LeasePaysIdleDuringThinkTime) {
  VersionedServer srv(data());
  const rtree::RangeQuery q{{{0.20, 0.26}, {0.23, 0.29}}};

  CachingClient lease(srv, base_config(), consistency(ConsistencyPolicy::Lease, 2.0));
  CachingClient none(srv, base_config(), consistency(ConsistencyPolicy::None, 2.0));
  for (int i = 0; i < 6; ++i) {
    lease.run_query(q);
    none.run_query(q);
  }
  // Same query work, but the leased NIC idles (100 mW) through think
  // time where the other sleeps (19.8 mW).
  EXPECT_GT(lease.outcome().energy.nic_idle_j, none.outcome().energy.nic_idle_j);
  EXPECT_GT(none.outcome().energy.nic_sleep_j, lease.outcome().energy.nic_sleep_j);
  EXPECT_EQ(lease.outcome().answers, none.outcome().answers);
}

TEST(ConsistentClient, RevalidateCostsTransmitEnergyPerQuery) {
  VersionedServer srv(data());
  const rtree::RangeQuery q{{{0.20, 0.26}, {0.23, 0.29}}};
  CachingClient reval(srv, base_config(), consistency(ConsistencyPolicy::Revalidate, 0.0));
  CachingClient none(srv, base_config(), consistency(ConsistencyPolicy::None, 0.0));
  // The initial shipment (and its ACK traffic) is common to both; the
  // probes' transmitter cost is the delta over the local-query phase.
  reval.run_query(q);
  none.run_query(q);
  const double tx_reval0 = reval.outcome().energy.nic_tx_j;
  const double tx_none0 = none.outcome().energy.nic_tx_j;
  for (int i = 0; i < 10; ++i) {
    reval.run_query(q);
    none.run_query(q);
  }
  const double d_reval = reval.outcome().energy.nic_tx_j - tx_reval0;
  const double d_none = none.outcome().energy.nic_tx_j - tx_none0;
  EXPECT_DOUBLE_EQ(d_none, 0.0);  // local answers never transmit
  EXPECT_GT(d_reval, 0.0);        // ten probes on the 3 W transmitter
  EXPECT_EQ(reval.revalidations(), 10u);
}

TEST(ConsistentClient, NoneWithoutThinkTimeMatchesTheDatasetClient) {
  // Under None with no think time nothing is booked off the exchanges,
  // so updates move only the staleness count: the client over a
  // versioned server must equal the one over the bare dataset bit for
  // bit.
  VersionedServer srv(data());
  CachingClient versioned(srv, base_config(), consistency(ConsistencyPolicy::None, 0.0));
  CachingClient bare(data(), base_config(), CachingConfig{});
  std::mt19937_64 rng(17);
  for (const auto& b : workload::make_proximity_workload(data(), 3, 8, 0.003, 13, 1e-5, 1e-4)) {
    for (const auto& q : b.queries) {
      if (rng() % 3 == 0) {
        srv.apply_update(q.window.center());
        versioned.notify_update(q.window.center());
      }
      versioned.run_query(q);
      bare.run_query(q);
    }
  }
  EXPECT_GT(versioned.stale_answers(), 0u);
  EXPECT_EQ(versioned.fetches(), bare.fetches());
  EXPECT_EQ(versioned.local_hits(), bare.local_hits());
  test_support::expect_bit_identical(versioned.outcome(), bare.outcome());
}

TEST(ConsistentClient, AllPoliciesAgreeOnAnswers) {
  // Geometry never mutates in this model, so all policies must return
  // identical answer counts over any interleaving of updates.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.1, 0.9);
  const auto bursts = workload::make_proximity_workload(data(), 2, 10, 0.002, 9, 1e-5, 1e-4);

  std::uint64_t expected = 0;
  bool have_expected = false;
  for (const ConsistencyPolicy p :
       {ConsistencyPolicy::None, ConsistencyPolicy::Revalidate, ConsistencyPolicy::Ttl,
        ConsistencyPolicy::Lease}) {
    VersionedServer srv(data());
    CachingClient c(srv, base_config(), consistency(p, 0.1));
    std::mt19937_64 local_rng = rng;
    for (const auto& b : bursts) {
      for (const auto& q : b.queries) {
        if (std::uniform_real_distribution<double>(0, 1)(local_rng) < 0.3) {
          const geom::Point up{u(local_rng), u(local_rng)};
          srv.apply_update(up);
          c.notify_update(up);
        }
        c.run_query(q);
      }
    }
    if (!have_expected) {
      expected = c.outcome().answers;
      have_expected = true;
    } else {
      EXPECT_EQ(c.outcome().answers, expected) << name_of(p);
    }
  }
}

}  // namespace
}  // namespace mosaiq::core
