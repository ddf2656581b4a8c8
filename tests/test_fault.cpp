// Link-fault model and fault-aware transport: analytic calibration,
// deterministic retry/timeout/backoff arithmetic, bounded retry
// budgets, and graceful degradation — a dead link must yield a typed
// status, never a hang and never silent energy loss.
#include <gtest/gtest.h>

#include <cmath>

#include "core/caching_client.hpp"
#include "core/fleet.hpp"
#include "core/session.hpp"
#include "net/channel_model.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq {
namespace {

const workload::Dataset& data() {
  static workload::Dataset d = workload::make_pa(20000);
  return d;
}

core::SessionConfig base_config() {
  core::SessionConfig cfg;
  cfg.channel = {4.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  return cfg;
}

/// A FaultConfig whose link is down from t = 0 forever.
net::FaultConfig dead_link() {
  net::FaultConfig cfg;
  cfg.outages.push_back({0.0, 1e18});
  return cfg;
}

// --- calibration against the analytic channel model --------------------

TEST(FaultModel, BerLossConvergesToExpectedTransmissions) {
  // The empirical fault process and channel_model.hpp integrate the
  // same per-frame survival law, so the measured mean transmissions
  // per delivered frame must converge to expected_transmissions().
  net::FaultConfig cfg;
  cfg.model = net::LossModel::IndependentBer;
  cfg.ber = 1e-5;
  cfg.seed = 123;
  net::LinkFaultModel fault(cfg);

  const std::uint32_t frame_bytes = 1500;
  const int frames = 20000;
  std::uint64_t transmissions = 0;
  for (int i = 0; i < frames; ++i) {
    do {
      ++transmissions;
    } while (!fault.deliver(frame_bytes, 0.0));
  }
  const double measured = static_cast<double>(transmissions) / frames;
  const double analytic = net::expected_transmissions(cfg.ber, frame_bytes);
  EXPECT_NEAR(measured, analytic, analytic * net::kCalibrationRelTol);
}

TEST(FaultModel, GilbertElliottHitsItsStationaryLossFraction) {
  const double target = 0.1;
  net::LinkFaultModel fault(net::bursty_loss_config(target, 99));
  const int frames = 50000;
  for (int i = 0; i < frames; ++i) fault.deliver(1500, 0.0);
  const double loss =
      static_cast<double>(fault.frames_lost()) / static_cast<double>(fault.frames_offered());
  EXPECT_NEAR(loss, target, net::kCalibrationRelTol);
}

TEST(FaultModel, SameSeedReplaysSameDecisions) {
  const net::FaultConfig cfg = net::bursty_loss_config(0.2, 7);
  net::LinkFaultModel a(cfg);
  net::LinkFaultModel b(cfg);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(a.deliver(1200, 0.0), b.deliver(1200, 0.0)) << "diverged at frame " << i;
  }
  net::FaultConfig other = cfg;
  other.seed = 8;
  net::LinkFaultModel c(other);
  bool any_diff = false;
  net::LinkFaultModel a2(cfg);
  for (int i = 0; i < 5000; ++i) {
    if (a2.deliver(1200, 0.0) != c.deliver(1200, 0.0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultModel, OutageWindowsLoseFramesWithoutConsumingRandomness) {
  net::FaultConfig with_outage = net::bursty_loss_config(0.2, 7);
  with_outage.outages.push_back({0.0, 1.0});
  net::LinkFaultModel plain(net::bursty_loss_config(0.2, 7));
  net::LinkFaultModel shadowed(with_outage);
  // Frames inside the window are lost; frames after it must see the
  // exact same RNG stream as a model that never had the outage.
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(shadowed.deliver(1000, 0.5));
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(plain.deliver(1000, 2.0), shadowed.deliver(1000, 2.0));
  }
}

TEST(FaultModel, AlignRngMatchesTheDrawsItStandsInFor) {
  // align_rng(rng, n) must leave the engine exactly where consuming n
  // variates would have, and align_rng(rng, 0) — the outage arm's named
  // no-op in deliver() — must not move the stream at all.
  std::mt19937_64 consumed(42);
  std::mt19937_64 aligned(42);
  std::uniform_real_distribution<double> u{0.0, 1.0};
  for (int i = 0; i < 3; ++i) (void)u(consumed);
  net::align_rng(aligned, 3);
  EXPECT_EQ(consumed(), aligned());

  std::mt19937_64 untouched(7);
  std::mt19937_64 zeroed(7);
  net::align_rng(zeroed, 0);
  EXPECT_EQ(untouched(), zeroed());
}

// --- deterministic retry arithmetic -------------------------------------

TEST(RetryPolicy, TimeoutAndBackoffSequencesAreExact) {
  const double rtt = 0.22;
  EXPECT_DOUBLE_EQ(net::timeout_s(rtt, {6, 2.0}), 0.44);
  EXPECT_DOUBLE_EQ(net::timeout_s(rtt, {6, 3.5}), 3.5 * rtt);
  // Deterministic exponential backoff: rtt * 2^(attempt-1).
  for (std::uint32_t attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_DOUBLE_EQ(net::backoff_s(rtt, attempt), rtt * std::pow(2.0, attempt - 1));
  }
}

TEST(RetryPolicy, PlanTransferAccountsEveryLostFrame) {
  // 8000 bit/s link, 60 B headers, one 160 B frame (100 B payload):
  // t_frame = 0.16 s, t_ack = 0.06 s, rtt = 0.22 s.  The link is down
  // for [0, 0.1): attempt 1 is lost, attempt 2 (after timeout 0.44 +
  // backoff 0.22) happens at 0.82 s and delivers.
  net::FaultConfig cfg;
  cfg.outages.push_back({0.0, 0.1});
  net::LinkFaultModel fault(cfg);
  const net::TransferPlan plan =
      net::plan_transfer(fault, 100, 1060, 60, 8000.0, {6, 2.0}, 0.0);
  EXPECT_TRUE(plan.delivered);
  EXPECT_EQ(plan.frames, 1u);
  EXPECT_EQ(plan.transmissions, 2u);
  EXPECT_EQ(plan.retransmissions, 1u);
  EXPECT_EQ(plan.timeouts, 1u);
  EXPECT_EQ(plan.air_bytes, 320u);
  EXPECT_DOUBLE_EQ(plan.air_s, 0.32);
  EXPECT_DOUBLE_EQ(plan.wasted_air_s, 0.16);
  EXPECT_DOUBLE_EQ(plan.wait_s, 0.44 + 0.22);
}

TEST(RetryPolicy, RetryBudgetBoundsTransmissionsAndFailsTheTransfer) {
  net::LinkFaultModel fault(dead_link());
  const net::RetryConfig retry{2, 2.0};
  const net::TransferPlan plan = net::plan_transfer(fault, 100, 1060, 60, 8000.0, retry, 0.0);
  EXPECT_FALSE(plan.delivered);
  // The frame went on the air exactly 1 + retry_budget times.
  EXPECT_EQ(plan.transmissions, 1u + retry.retry_budget);
  EXPECT_EQ(plan.retransmissions, retry.retry_budget);
  EXPECT_EQ(plan.timeouts, 3u);
  EXPECT_DOUBLE_EQ(plan.wasted_air_s, plan.air_s);  // nothing arrived
  // Every loss cost a timeout (3 x 0.44); the two pre-abort losses also
  // cost backoffs (0.22 + 0.44).
  EXPECT_DOUBLE_EQ(plan.wait_s, 3 * 0.44 + 0.22 + 0.44);
}

// --- transport + session degradation ------------------------------------

TEST(FaultedSession, DeadLinkDegradesEveryRemoteSchemeWithoutHanging) {
  workload::QueryGen gen(data(), 5);
  const auto queries = gen.batch(rtree::QueryKind::Range, 5);

  core::SessionConfig clean = base_config();
  clean.scheme = core::Scheme::FullyAtClient;
  const stats::Outcome reference = core::Session::run_batch(data(), clean, queries);

  for (const core::Scheme scheme :
       {core::Scheme::FullyAtClient, core::Scheme::FullyAtServer,
        core::Scheme::FilterClientRefineServer, core::Scheme::FilterServerRefineClient}) {
    core::SessionConfig cfg = base_config();
    cfg.scheme = scheme;
    cfg.fault = dead_link();
    cfg.retry.retry_budget = 2;
    core::Session s(data(), cfg);
    for (const auto& q : queries) {
      const core::QueryStatus st = s.run_query(q);
      if (scheme == core::Scheme::FullyAtClient) {
        EXPECT_EQ(st, core::QueryStatus::Ok);
      } else {
        EXPECT_EQ(st, core::QueryStatus::DegradedLocal) << name_of(scheme);
      }
    }
    const stats::Outcome o = s.outcome();
    // Degraded queries still produce the full (local) answer set.
    EXPECT_EQ(o.answers, reference.answers) << name_of(scheme);
    if (scheme != core::Scheme::FullyAtClient) {
      EXPECT_EQ(o.queries_degraded, queries.size());
      EXPECT_EQ(o.queries_failed, 0u);
      EXPECT_GT(o.timeouts, 0u);
      EXPECT_GT(o.wasted_tx_j, 0.0);
    }
  }
}

TEST(FaultedSession, DeadLinkWithoutClientDataFails) {
  workload::QueryGen gen(data(), 6);
  const auto queries = gen.batch(rtree::QueryKind::Range, 3);
  core::SessionConfig cfg = base_config();
  cfg.scheme = core::Scheme::FullyAtServer;
  cfg.placement.data_at_client = false;
  cfg.fault = dead_link();
  cfg.retry.retry_budget = 1;
  core::Session s(data(), cfg);
  for (const auto& q : queries) EXPECT_EQ(s.run_query(q), core::QueryStatus::Failed);
  const stats::Outcome o = s.outcome();
  EXPECT_EQ(o.queries_failed, queries.size());
  EXPECT_EQ(o.queries_degraded, 0u);
  EXPECT_EQ(o.answers, 0u);
}

TEST(FaultedSession, FaultFreeConfigIsBitIdenticalToDisabledFault) {
  // A constructed-but-never-losing fault model must not perturb the
  // accounting relative to the fault-free code path... but a *disabled*
  // FaultConfig must not even construct one.  Outcomes must match the
  // no-fault run field for field.
  workload::QueryGen gen(data(), 7);
  const auto queries = gen.batch(rtree::QueryKind::Range, 10);
  core::SessionConfig cfg = base_config();
  cfg.scheme = core::Scheme::FullyAtServer;
  const stats::Outcome a = core::Session::run_batch(data(), cfg, queries);
  cfg.fault = net::FaultConfig{};  // explicitly-default = disabled
  const stats::Outcome b = core::Session::run_batch(data(), cfg, queries);
  EXPECT_EQ(a.energy.total_j(), b.energy.total_j());
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.cycles.total(), b.cycles.total());
  EXPECT_EQ(a.bytes_tx, b.bytes_tx);
  EXPECT_EQ(a.bytes_rx, b.bytes_rx);
  EXPECT_EQ(b.retransmissions, 0u);
  EXPECT_EQ(b.wasted_tx_j, 0.0);
}

TEST(FaultedSession, WastedEnergyIsAMemoSubsetOfNicEnergy) {
  workload::QueryGen gen(data(), 8);
  const auto queries = gen.batch(rtree::QueryKind::Range, 100);
  core::SessionConfig cfg = base_config();
  cfg.scheme = core::Scheme::FullyAtServer;
  cfg.fault = net::bursty_loss_config(0.4, 11);
  const stats::Outcome o = core::Session::run_batch(data(), cfg, queries);
  EXPECT_GT(o.retransmissions, 0u);
  EXPECT_GT(o.wasted_tx_j + o.wasted_rx_j, 0.0);
  EXPECT_LE(o.wasted_tx_j, o.energy.nic_tx_j);
  EXPECT_LE(o.wasted_rx_j, o.energy.nic_rx_j);
}

TEST(FaultedSession, ConservationOracleReconcilesUnderFaults) {
  // Retransmitted airtime, timeout stalls, and degraded local reruns
  // all land in traced phase spans; the spans must still telescope to
  // the Outcome totals to the oracle's default (1e-9 J) tolerance.
  workload::QueryGen gen(data(), 9);
  const auto queries = gen.batch(rtree::QueryKind::Range, 20);
  for (const double loss : {0.1, 0.4}) {
    core::SessionConfig cfg = base_config();
    cfg.scheme = core::Scheme::FilterServerRefineClient;
    cfg.fault = net::bursty_loss_config(loss, 3);
    cfg.retry.retry_budget = 2;
    obs::TraceSink trace;
    const stats::Outcome o = core::Session::run_batch(data(), cfg, queries, &trace);
    const obs::Reconciliation r = obs::reconcile(trace, o);
    EXPECT_TRUE(r.ok()) << "loss=" << loss << " energy err " << r.energy_error_j()
                        << " wall err " << r.wall_error_s();
  }
}

// --- caching client (insufficient memory) -------------------------------

TEST(FaultedCachingClient, NoCacheAndDeadLinkFails) {
  core::SessionConfig cfg = base_config();
  cfg.fault = dead_link();
  cfg.retry.retry_budget = 1;
  core::CachingClient c(data(), cfg, {1u << 20, rtree::ShipPolicy::HilbertRange});
  workload::QueryGen gen(data(), 10);
  EXPECT_EQ(c.run_query(gen.range_query()), core::QueryStatus::Failed);
  EXPECT_EQ(c.fetches(), 0u);
  EXPECT_EQ(c.outcome().queries_failed, 1u);
}

TEST(FaultedCachingClient, StaleCacheDegradesWhenTheLinkDies) {
  workload::QueryGen gen(data(), 11);
  const rtree::RangeQuery first = gen.range_query();

  // Measure how long the first (successful) fetch takes, then replay
  // with the link dying just after it: the re-fetch for a far query
  // must fail, and the client must fall back to its stale shipment.
  core::CachingClient probe(data(), base_config(),
                            {1u << 20, rtree::ShipPolicy::HilbertRange});
  probe.run_query(first);
  const double fetch_wall_s = probe.outcome().wall_seconds;

  core::SessionConfig cfg = base_config();
  cfg.fault.outages.push_back({fetch_wall_s + 1e-6, 1e18});
  cfg.retry.retry_budget = 2;
  core::CachingClient c(data(), cfg, {1u << 20, rtree::ShipPolicy::HilbertRange});
  EXPECT_EQ(c.run_query(first), core::QueryStatus::Ok);
  EXPECT_EQ(c.fetches(), 1u);
  const geom::Rect cached = c.safe_rect();

  rtree::RangeQuery far = first;
  const double dx = far.window.lo.x < 0.5 ? 0.4 : -0.4;
  far.window.lo.x += dx;
  far.window.hi.x += dx;
  ASSERT_FALSE(cached.contains(far.window));
  EXPECT_EQ(c.run_query(far), core::QueryStatus::DegradedLocal);
  EXPECT_EQ(c.fetches(), 1u);  // the failed fetch installed nothing
  const stats::Outcome o = c.outcome();
  EXPECT_EQ(o.queries_degraded, 1u);
  EXPECT_EQ(o.queries_failed, 0u);
}

TEST(FaultedCachingClient, UndeliveredRevalidationCountsAsStale) {
  // The link dies just after the first fetch.  Under Revalidate the
  // next query inside the cached region sends a version probe that
  // never arrives; an unanswered probe vouches for nothing, so the
  // client refetches, that fetch dies too, and the query degrades to
  // the cached shipment.
  workload::QueryGen gen(data(), 11);
  const rtree::RangeQuery q = gen.range_query();
  const core::VersionedServer server(data());
  core::CachingConfig caching;
  caching.consistency = core::ConsistencyPolicy::Revalidate;
  core::CachingClient probe(server, base_config(), caching);
  probe.run_query(q);
  const double fetch_wall_s = probe.outcome().wall_seconds;

  core::SessionConfig cfg = base_config();
  cfg.fault.outages.push_back({fetch_wall_s + 1e-6, 1e18});
  cfg.retry.retry_budget = 2;
  core::CachingClient c(server, cfg, caching);
  EXPECT_EQ(c.run_query(q), core::QueryStatus::Ok);
  const stats::Outcome fetched = c.outcome();
  EXPECT_EQ(c.run_query(q), core::QueryStatus::DegradedLocal);
  EXPECT_EQ(c.revalidations(), 1u);
  EXPECT_EQ(c.local_hits(), 0u);
  EXPECT_EQ(c.fetches(), 1u);
  const stats::Outcome o = c.outcome();
  EXPECT_EQ(o.round_trips, fetched.round_trips);  // neither the probe nor the refetch delivered
  EXPECT_EQ(o.queries_degraded, 1u);
  EXPECT_EQ(o.answers, 2 * fetched.answers);
}

TEST(FaultedCachingClient, RejectsThinkTimeAndLeaseOnALossyLink) {
  // Think time and lease pushes are booked off the exchanges, where the
  // fault model neither keeps time nor loses frames.
  core::SessionConfig cfg = base_config();
  cfg.fault = dead_link();
  core::CachingConfig think;
  think.think_time_s = 1.0;
  EXPECT_THROW(core::CachingClient(data(), cfg, think), std::invalid_argument);
  core::CachingConfig lease;
  lease.consistency = core::ConsistencyPolicy::Lease;
  EXPECT_THROW(core::CachingClient(data(), cfg, lease), std::invalid_argument);
  core::CachingConfig revalidate;
  revalidate.consistency = core::ConsistencyPolicy::Revalidate;
  EXPECT_NO_THROW(core::CachingClient(data(), cfg, revalidate));
}

// --- fleet ----------------------------------------------------------------

TEST(FaultedFleet, KeepsServingThroughADeadLink) {
  core::SessionConfig cfg = base_config();
  cfg.scheme = core::Scheme::FullyAtServer;
  cfg.fault = dead_link();
  cfg.retry.retry_budget = 1;
  core::FleetConfig fleet;
  fleet.clients = 4;
  fleet.queries_per_client = 5;
  const core::FleetOutcome o = core::run_fleet(data(), cfg, fleet);
  // Every query degraded to local execution; none crashed the loop.
  EXPECT_EQ(o.queries_degraded, 4u * 5u);
  EXPECT_EQ(o.queries_failed, 0u);
  EXPECT_GT(o.answers, 0u);
  EXPECT_GT(o.timeouts, 0u);
  EXPECT_GT(o.wasted_tx_j, 0.0);

  cfg.placement.data_at_client = false;
  const core::FleetOutcome dropped = core::run_fleet(data(), cfg, fleet);
  EXPECT_EQ(dropped.queries_failed, 4u * 5u);
  EXPECT_EQ(dropped.queries_degraded, 0u);
  EXPECT_EQ(dropped.answers, 0u);
}

TEST(FaultedFleet, BurstLossAddsRetransmissionsButPreservesAnswers) {
  core::SessionConfig cfg = base_config();
  cfg.scheme = core::Scheme::FullyAtServer;
  core::FleetConfig fleet;
  fleet.clients = 4;
  fleet.queries_per_client = 25;
  const core::FleetOutcome clean = core::run_fleet(data(), cfg, fleet);

  cfg.fault = net::bursty_loss_config(0.3, 17);
  const core::FleetOutcome lossy = core::run_fleet(data(), cfg, fleet);
  EXPECT_GT(lossy.retransmissions, 0u);
  EXPECT_GE(lossy.makespan_s, clean.makespan_s);
  // Degraded queries re-run locally, so the answer total is preserved.
  EXPECT_EQ(lossy.answers, clean.answers);
}

}  // namespace
}  // namespace mosaiq
