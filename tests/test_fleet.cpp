#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/fleet.hpp"
#include "net/fault.hpp"
#include "obs/trace.hpp"
#include "perf/config_hash.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::core {
namespace {

const workload::Dataset& data() {
  static workload::Dataset d = workload::make_pa(20000);
  return d;
}

SessionConfig base_config(Scheme s, double mbps = 4.0) {
  SessionConfig cfg;
  cfg.scheme = s;
  cfg.channel = {mbps, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  return cfg;
}

FleetConfig fleet_of(std::uint32_t k, std::uint32_t queries = 10) {
  FleetConfig f;
  f.clients = k;
  f.queries_per_client = queries;
  f.think_time_s = 0.5;
  return f;
}

TEST(Fleet, SingleClientSanity) {
  const FleetOutcome o = run_fleet(data(), base_config(Scheme::FullyAtServer), fleet_of(1));
  EXPECT_GT(o.answers, 0u);
  EXPECT_GT(o.mean_latency_s, 0.0);
  EXPECT_GE(o.p95_latency_s, o.mean_latency_s);
  EXPECT_GT(o.mean_client_energy_j, 0.0);
  EXPECT_LE(o.medium_utilization, 1.0 + 1e-9);
  EXPECT_LE(o.server_utilization, 1.0 + 1e-9);
  // With one client and generous think time nothing saturates.
  EXPECT_LT(o.medium_utilization, 0.9);
}

TEST(Fleet, SingleClientMatchesSession) {
  // The K=1 oracle: the fleet and Session run the same Table-1 executor
  // and price message legs the same way, so a lone client with no think
  // time, no faults and the default wait policy is a Session up to the
  // association of floating-point sums.  Every scheme x query kind x
  // placement Session accepts, at both ends of the paper's bandwidths.
  for (const double mbps : {2.0, 11.0}) {
    for (const rtree::QueryKind kind :
         {rtree::QueryKind::Point, rtree::QueryKind::Range, rtree::QueryKind::NN,
          rtree::QueryKind::Knn, rtree::QueryKind::Route}) {
      const bool nn = kind == rtree::QueryKind::NN || kind == rtree::QueryKind::Knn;
      for (const Scheme s : {Scheme::FullyAtClient, Scheme::FullyAtServer,
                             Scheme::FilterClientRefineServer, Scheme::FilterServerRefineClient}) {
        const bool hybrid =
            s == Scheme::FilterClientRefineServer || s == Scheme::FilterServerRefineClient;
        if (nn && hybrid) continue;
        for (const bool data_at_client : {true, false}) {
          SessionConfig cfg = base_config(s, mbps);
          cfg.placement.data_at_client = data_at_client;
          FleetConfig f = fleet_of(1, 20);
          f.think_time_s = 0.0;
          f.query_kind = kind;
          const FleetOutcome fleet = run_fleet(data(), cfg, f);
          // Client 0's query stream, as run_fleet seeds it.
          workload::QueryGen gen(data(), f.workload_seed * 1000);
          const stats::Outcome session =
              Session::run_batch(data(), cfg, gen.batch(kind, f.queries_per_client));
          SCOPED_TRACE(std::to_string(mbps) + " Mbps " + name_of(kind) + " " + name_of(s) +
                       (data_at_client ? " data@client" : " data@server"));
          EXPECT_EQ(fleet.answers, session.answers);
          ASSERT_EQ(fleet.client_energy_j.size(), 1u);
          EXPECT_NEAR(fleet.client_energy_j[0], session.energy.total_j(),
                      1e-12 * session.energy.total_j());
          EXPECT_NEAR(fleet.makespan_s, session.wall_seconds, 1e-12 * session.wall_seconds);
        }
      }
    }
  }
}

TEST(Fleet, NearestNeighborQueriesRejectHybridSchemes) {
  // The fleet runs Session's executor, so it rejects a query kind with
  // no filtering/refinement split the way Session does.
  for (const rtree::QueryKind kind : {rtree::QueryKind::NN, rtree::QueryKind::Knn}) {
    for (const Scheme s : {Scheme::FilterClientRefineServer, Scheme::FilterServerRefineClient}) {
      FleetConfig f = fleet_of(2, 3);
      f.query_kind = kind;
      EXPECT_THROW(run_fleet(data(), base_config(s), f), std::invalid_argument)
          << name_of(kind) << " " << name_of(s);
    }
  }
}

TEST(Fleet, UtilizationStaysBelowOneUnderChurn) {
  // Busy time counts legs and server work of units that later fail or
  // are lost, while completions stop early in a fleet that loses most
  // of its work; dividing by the later of the last completion and the
  // resource's last release keeps both utilizations at most 100%.
  SessionConfig cfg = base_config(Scheme::FullyAtServer);
  cfg.placement.data_at_client = false;
  FleetConfig f = fleet_of(50, 4);
  f.think_time_s = 0.01;
  f.churn.departure_rate_per_s = 20.0;
  f.churn.seed = 3;
  const FleetOutcome o = run_fleet(data(), cfg, f);
  ASSERT_GT(o.units_lost, 0u);
  EXPECT_GT(o.medium_utilization, 0.0);
  EXPECT_LE(o.medium_utilization, 1.0);
  EXPECT_LE(o.server_utilization, 1.0);
}

TEST(Fleet, AnswersScaleWithClients) {
  const FleetOutcome one = run_fleet(data(), base_config(Scheme::FullyAtServer), fleet_of(1));
  const FleetOutcome four = run_fleet(data(), base_config(Scheme::FullyAtServer), fleet_of(4));
  // Different per-client seeds, same cardinality of queries each.
  EXPECT_GT(four.answers, one.answers);
}

TEST(Fleet, FullyAtClientIsContentionFree) {
  const FleetOutcome one = run_fleet(data(), base_config(Scheme::FullyAtClient), fleet_of(1));
  const FleetOutcome many =
      run_fleet(data(), base_config(Scheme::FullyAtClient), fleet_of(16));
  EXPECT_DOUBLE_EQ(many.medium_utilization, 0.0);
  EXPECT_DOUBLE_EQ(many.server_utilization, 0.0);
  // Latency does not degrade with fleet size (no shared resources).
  EXPECT_NEAR(many.mean_latency_s, one.mean_latency_s, 0.35 * one.mean_latency_s);
}

SessionConfig saturating_config() {
  // Record-carrying responses on a slow channel: tens of ms of airtime
  // per query, so a zero-think fleet actually contends.
  SessionConfig cfg = base_config(Scheme::FullyAtServer, 2.0);
  cfg.placement.data_at_client = false;
  return cfg;
}

FleetConfig saturating_fleet(std::uint32_t k) {
  FleetConfig f = fleet_of(k, 8);
  f.think_time_s = 0.0;
  return f;
}

TEST(Fleet, ContentionInflatesOffloadedLatency) {
  // 16 clients queueing on one medium must wait far longer per query
  // than a lone client under the same offered load.
  const FleetOutcome one = run_fleet(data(), saturating_config(), saturating_fleet(1));
  const FleetOutcome many = run_fleet(data(), saturating_config(), saturating_fleet(16));
  EXPECT_GT(many.mean_latency_s, 2.0 * one.mean_latency_s);
  EXPECT_GT(many.medium_utilization, one.medium_utilization);
}

TEST(Fleet, WaitingCostsIdleEnergy) {
  const FleetOutcome one = run_fleet(data(), saturating_config(), saturating_fleet(1));
  const FleetOutcome many = run_fleet(data(), saturating_config(), saturating_fleet(16));
  // Per-client energy grows with contention: the NIC idles in line.
  EXPECT_GT(many.mean_client_energy_j, one.mean_client_energy_j);
}

TEST(Fleet, UtilizationApproachesSaturation) {
  FleetConfig f = fleet_of(24, 8);
  f.think_time_s = 0.05;  // aggressive offered load
  const FleetOutcome o = run_fleet(data(), base_config(Scheme::FullyAtServer, 2.0), f);
  EXPECT_GT(o.medium_utilization, 0.6);
  EXPECT_LE(o.medium_utilization, 1.0 + 1e-9);
}

TEST(Fleet, HybridSchemesRunAndAnswer) {
  for (const Scheme s : {Scheme::FilterClientRefineServer, Scheme::FilterServerRefineClient}) {
    const FleetOutcome o = run_fleet(data(), base_config(s), fleet_of(4, 6));
    EXPECT_GT(o.answers, 0u) << name_of(s);
    EXPECT_GT(o.medium_utilization, 0.0) << name_of(s);
    EXPECT_GT(o.server_utilization, 0.0) << name_of(s);
  }
}

TEST(Fleet, Deterministic) {
  const FleetOutcome a = run_fleet(data(), base_config(Scheme::FullyAtServer), fleet_of(6));
  const FleetOutcome b = run_fleet(data(), base_config(Scheme::FullyAtServer), fleet_of(6));
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_client_energy_j, b.mean_client_energy_j);
  EXPECT_EQ(a.answers, b.answers);
}

// ---- client-fault extensions (batteries, churn, replication) --------

/// Starved packs: tiny capacity and low initial charge, so a slice of
/// the fleet dies of exhaustion mid-mission.  (A full mission costs a
/// client roughly 0.09 of this pack's charge, so charges drawn from
/// [0.01, 0.12] put most of the fleet on the wrong side of the line.)
FleetConfig starving_fleet(std::uint32_t k, std::uint32_t replication = 1) {
  FleetConfig f = fleet_of(k);
  f.battery.enabled = true;
  f.battery.pack.capacity_mah = 0.1;
  f.battery.min_initial_charge = 0.01;
  f.battery.max_initial_charge = 0.12;
  f.replication = replication;
  return f;
}

/// Scheduled departures tuned so a replicated 8-client mission loses
/// roughly half the fleet mid-run.
FleetConfig churning_fleet(std::uint32_t k, std::uint32_t replication) {
  FleetConfig f = fleet_of(k);
  f.churn.departure_rate_per_s = 0.08;
  f.churn.seed = 7;
  f.replication = replication;
  return f;
}

TEST(Fleet, RobustnessOffIsBitIdenticalToClassic) {
  // The entire client-fault layer behind one guarantee: defaults off,
  // every scalar matches the classic loop bit for bit.
  FleetConfig off = fleet_of(6);
  off.replication = 1;  // explicit no-op settings
  const FleetOutcome classic = run_fleet(data(), base_config(Scheme::FullyAtServer), fleet_of(6));
  const FleetOutcome robust = run_fleet(data(), base_config(Scheme::FullyAtServer), off);
  EXPECT_DOUBLE_EQ(classic.mean_latency_s, robust.mean_latency_s);
  EXPECT_DOUBLE_EQ(classic.mean_client_energy_j, robust.mean_client_energy_j);
  EXPECT_DOUBLE_EQ(classic.makespan_s, robust.makespan_s);
  EXPECT_EQ(classic.answers, robust.answers);
  EXPECT_EQ(robust.clients_alive, 6u);
  EXPECT_EQ(robust.units_answered, robust.units_total);
  EXPECT_EQ(robust.deaths.size(), 0u);
  EXPECT_DOUBLE_EQ(robust.answer_completeness, 1.0);
}

TEST(Fleet, BatteryExhaustionKillsAndLosesWork) {
  const FleetOutcome o =
      run_fleet(data(), base_config(Scheme::FullyAtServer), starving_fleet(8));
  EXPECT_GT(o.deaths_battery, 0u);
  EXPECT_LT(o.clients_alive, 8u);
  EXPECT_GT(o.units_lost, 0u);  // replication 1: dead clients' units are gone
  EXPECT_LT(o.answer_completeness, 1.0);
  EXPECT_EQ(o.units_answered + o.units_lost, o.units_total);
  // The survival curve lists exactly the deaths, in time order.
  EXPECT_EQ(o.deaths.size(), static_cast<std::size_t>(o.deaths_battery + o.deaths_departed));
  for (std::size_t i = 1; i < o.deaths.size(); ++i) {
    EXPECT_LE(o.deaths[i - 1].time_s, o.deaths[i].time_s);
  }
}

TEST(Fleet, ReplicationRecoversLostUnits) {
  // The acceptance scenario: same churning fleet, replication 1 vs 2.
  // Unreplicated shows hard failures; with two replicas a fleet losing
  // >= 30% of its clients still answers >= 99% of the queries.
  const FleetOutcome r1 =
      run_fleet(data(), base_config(Scheme::FullyAtServer), churning_fleet(8, 1));
  const FleetOutcome r2 =
      run_fleet(data(), base_config(Scheme::FullyAtServer), churning_fleet(8, 2));
  ASSERT_GT(r1.units_lost, 0u);
  EXPECT_GE(static_cast<double>(r2.deaths.size()), 0.3 * 8)
      << "scenario must actually lose >= 30% of the fleet";
  EXPECT_GE(r2.answer_completeness, 0.99);
  EXPECT_GT(r2.answer_completeness, r1.answer_completeness);
  EXPECT_EQ(r2.units_answered + r2.units_lost, r2.units_total);
}

TEST(Fleet, ChurnDeparturesAreDeterministic) {
  FleetConfig f = fleet_of(8);
  f.churn.departure_rate_per_s = 0.05;
  f.churn.seed = 7;
  f.replication = 2;
  const FleetOutcome a = run_fleet(data(), base_config(Scheme::FullyAtServer), f);
  const FleetOutcome b = run_fleet(data(), base_config(Scheme::FullyAtServer), f);
  EXPECT_GT(a.deaths_departed, 0u);
  EXPECT_EQ(a.deaths_departed, b.deaths_departed);
  EXPECT_EQ(a.units_answered, b.units_answered);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.mean_client_energy_j, b.mean_client_energy_j);
  for (std::size_t i = 0; i < a.deaths.size() && i < b.deaths.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.deaths[i].time_s, b.deaths[i].time_s);
    EXPECT_EQ(a.deaths[i].client, b.deaths[i].client);
  }
}

TEST(Fleet, MinUptimeDelaysDepartures) {
  FleetConfig f = fleet_of(6);
  f.churn.departure_rate_per_s = 0.5;  // aggressive: everyone leaves fast
  f.churn.min_uptime_s = 5.0;
  f.replication = 2;
  const FleetOutcome o = run_fleet(data(), base_config(Scheme::FullyAtServer), f);
  for (const ClientDeath& d : o.deaths) {
    EXPECT_EQ(d.cause, DeathCause::Departure);
    EXPECT_GE(d.time_s, 5.0);
  }
}

TEST(Fleet, PerTrackEnergyReconcilesWithSpans) {
  // The conservation oracle under the FULL robustness stack: batteries
  // draining, churn killing, replicas racing, scheduler steering.  Each
  // client's reported total energy must equal the sum of its trace
  // spans' joules to 1e-9 — every spend settles into exactly one span.
  obs::TraceSink sink;
  SessionConfig cfg = base_config(Scheme::FullyAtServer);
  FleetConfig f = starving_fleet(6, 2);
  f.churn.departure_rate_per_s = 0.01;
  f.scheduler.enabled = true;
  f.trace = &sink;
  const FleetOutcome o = run_fleet(data(), cfg, f);
  ASSERT_EQ(o.client_energy_j.size(), 6u);
  std::vector<double> span_j(6, 0.0);
  for (const obs::Span& s : sink.spans()) {
    if (s.category != obs::SpanCategory::Phase) continue;
    ASSERT_LT(s.track, 6u);
    span_j[s.track] += s.joules;
  }
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_NEAR(span_j[k], o.client_energy_j[k], 1e-9) << "client " << k;
  }
  // And the fairness index is a valid Jain's value for 6 clients.
  EXPECT_GT(o.energy_fairness, 1.0 / 6.0 - 1e-12);
  EXPECT_LE(o.energy_fairness, 1.0 + 1e-12);
}

TEST(Fleet, ReassignmentRehandsOrphanedUnits) {
  // A faster churn with replication 2: units whose replica holders all
  // died get re-handed to survivors after the detection delay, and the
  // fleet still answers everything.
  FleetConfig f = churning_fleet(8, 2);
  f.churn.departure_rate_per_s = 0.12;
  const FleetOutcome o = run_fleet(data(), base_config(Scheme::FullyAtServer), f);
  EXPECT_GT(o.reassignments, 0u);
  EXPECT_GT(o.clients_alive, 0u);
  EXPECT_DOUBLE_EQ(o.answer_completeness, 1.0);
}

/// FNV-1a over the bit pattern of every double in a FleetOutcome,
/// including each death time and each client's energy.
std::uint64_t outcome_digest(const FleetOutcome& o) {
  perf::ConfigHasher h;
  h.mix(o.makespan_s)
      .mix(o.mean_latency_s)
      .mix(o.p95_latency_s)
      .mix(o.mean_client_energy_j)
      .mix(o.medium_utilization)
      .mix(o.server_utilization)
      .mix(o.wasted_tx_j)
      .mix(o.wasted_rx_j)
      .mix(o.energy_fairness)
      .mix(o.answer_completeness);
  for (const ClientDeath& d : o.deaths) h.mix(d.time_s);
  for (const double j : o.client_energy_j) h.mix(j);
  return h.value();
}

TEST(Fleet, ReassignmentChoicesMatchGoldenValues) {
  // Which survivor inherits an orphaned unit (least load, ties to the
  // lowest id) steers every later event, so these values pin the
  // choice rule, not just run-to-run determinism.  They were recorded
  // when the fleet began running Session's Table-1 executor, and a
  // survivor search that scans every client reproduces them.  The
  // settings are the perfbench fleet_churn workload's, at a tenth of its
  // clients and on this suite's dataset.
  SessionConfig cfg = base_config(Scheme::FullyAtServer);
  cfg.fault = net::bursty_loss_config(0.05, 4);
  FleetConfig f;
  f.clients = 2000;
  f.queries_per_client = 2;
  f.think_time_s = 1.0;
  f.query_kind = rtree::QueryKind::Point;
  f.churn.departure_rate_per_s = 0.02;
  f.churn.seed = 5;
  f.replication = 2;
  f.battery.enabled = true;
  f.battery.seed = 6;
  const FleetOutcome o = run_fleet(data(), cfg, f);
  EXPECT_EQ(o.reassignments, 34u);
  EXPECT_EQ(o.units_lost, 0u);
  EXPECT_EQ(o.duplicate_answers, 4u);
  EXPECT_EQ(o.deaths.size(), 299u);
  EXPECT_EQ(o.clients_alive, 1701u);
  EXPECT_EQ(o.answers, 4000u);
  EXPECT_EQ(outcome_digest(o), 0xd42f97797ea68121ull);
}

TEST(Fleet, PluggedClientsNeverDieOfExhaustion) {
  FleetConfig f = starving_fleet(6);
  f.battery.plugged_fraction = 1.0;  // the whole fleet on wall power
  const FleetOutcome o = run_fleet(data(), base_config(Scheme::FullyAtServer), f);
  EXPECT_EQ(o.deaths_battery, 0u);
  EXPECT_EQ(o.clients_alive, 6u);
  EXPECT_DOUBLE_EQ(o.answer_completeness, 1.0);
}

// ---- fleet scale (--fleet-size, --hotspots) --------------------------

TEST(Fleet, ZipfHotspotsShareQueryStreams) {
  // hotspots=1 collapses every client onto stream 0 — the same stream
  // a 1-client classic fleet uses — so per-client work is identical.
  FleetConfig solo;
  solo.clients = 1;
  solo.queries_per_client = 5;
  solo.think_time_s = 0.05;
  const FleetOutcome one = run_fleet(data(), base_config(Scheme::FullyAtServer), solo);

  FleetConfig shared = solo;
  shared.clients = 4;
  shared.hotspots = 1;
  const FleetOutcome four = run_fleet(data(), base_config(Scheme::FullyAtServer), shared);
  EXPECT_EQ(four.answers, 4 * one.answers);
  EXPECT_EQ(four.units_answered, 4 * one.units_answered);

  // Skew sanity at theta > 0: the draw is deterministic, so the same
  // config replays to the same totals.
  FleetConfig skewed = shared;
  skewed.hotspots = 8;
  skewed.zipf_theta = 1.1;
  const FleetOutcome a = run_fleet(data(), base_config(Scheme::FullyAtServer), skewed);
  const FleetOutcome b = run_fleet(data(), base_config(Scheme::FullyAtServer), skewed);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_latency_s),
            std::bit_cast<std::uint64_t>(b.mean_latency_s));
}

TEST(Fleet, ThousandClientFleetCompletesEveryUnit) {
  // Fleet-scale smoke: two orders of magnitude past the tests above,
  // every unit answered, utilization bounded.  (The 100k-client runs
  // live in mosaiq-bench as fleet/step_100k and fleet/zipf_hotspots_100k.)
  FleetConfig fleet;
  fleet.clients = 1000;
  fleet.queries_per_client = 1;
  fleet.think_time_s = 0.02;
  fleet.query_kind = rtree::QueryKind::Point;
  const FleetOutcome out = run_fleet(data(), base_config(Scheme::FullyAtServer), fleet);
  EXPECT_EQ(out.units_total, 1000u);
  EXPECT_EQ(out.units_answered, 1000u);
  EXPECT_EQ(out.clients_alive, 1000u);
  EXPECT_GT(out.makespan_s, 0.0);
  EXPECT_LE(out.medium_utilization, 1.0);
  EXPECT_LE(out.server_utilization, 1.0);
}

}  // namespace
}  // namespace mosaiq::core
