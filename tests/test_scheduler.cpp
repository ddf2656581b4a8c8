// Battery-aware scheduler: the monotone work-bias guarantee, the
// discharge EMA, and the fleet-level first-answer-wins dedup.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/fleet.hpp"
#include "core/scheduler.hpp"
#include "rtree/exec.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::core {
namespace {

const workload::Dataset& data() {
  static workload::Dataset d = workload::make_pa(20000);
  return d;
}

SessionConfig env_default() {
  SessionConfig env;
  env.channel.bandwidth_mbps = 2.0;
  env.client.clock_mhz = 125.0;
  return env;
}

BatteryScheduler make_sched(const SchedulerConfig& cfg, std::uint32_t clients = 1) {
  return BatteryScheduler(data(), env_default(), cfg, clients);
}

std::vector<rtree::Query> probe_queries() {
  workload::QueryGen gen(data(), 7);
  std::vector<rtree::Query> qs;
  qs.push_back(rtree::Query{gen.point_query()});
  for (const rtree::Query& q : gen.batch(rtree::QueryKind::Range, 4)) qs.push_back(q);
  qs.push_back(rtree::Query{gen.nn_query()});
  return qs;
}

TEST(Scheduler, BiasMonotoneInCharge) {
  SchedulerConfig cfg;
  cfg.enabled = true;
  BatteryScheduler s = make_sched(cfg);
  s.admit(0, false, 1.0, 10.0);
  double prev = -1.0;
  for (int step = 0; step <= 20; ++step) {
    s.report_charge(0, step / 20.0);
    const double bias = s.client_work_bias(0);
    EXPECT_GE(bias, prev) << "bias must be non-decreasing in charge";
    EXPECT_GE(bias, 0.0);
    EXPECT_LE(bias, 1.0);
    prev = bias;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);  // full charge = performance only
}

TEST(Scheduler, LowerChargeNeverMoreClientWork) {
  // The headline guarantee: over any query, dropping the reported
  // charge can only move the chosen scheme toward LESS predicted
  // client-side energy.  Sweep charge from full to empty and pin the
  // chosen scheme's client energy as non-increasing.
  SchedulerConfig cfg;
  cfg.enabled = true;
  BatteryScheduler s = make_sched(cfg);
  s.admit(0, false, 1.0, 10.0);
  rtree::NullHooks hooks;
  for (const rtree::Query& q : probe_queries()) {
    double prev_energy = std::numeric_limits<double>::infinity();
    for (int step = 20; step >= 0; --step) {
      s.report_charge(0, step / 20.0);
      const Scheme chosen = s.choose(0, q, hooks);
      const double energy = s.planner().predict(chosen, q).energy_j;
      EXPECT_LE(energy, prev_energy + 1e-15)
          << "charge " << step / 20.0 << " chose a MORE client-heavy scheme";
      prev_energy = energy;
    }
  }
}

TEST(Scheduler, PluggedClientIgnoresCharge) {
  SchedulerConfig cfg;
  cfg.enabled = true;
  BatteryScheduler s = make_sched(cfg);
  s.admit(0, true, 0.05, 10.0);
  EXPECT_DOUBLE_EQ(s.client_work_bias(0), 1.0);
  // And it stays pinned as reports come in.
  s.report_charge(0, 0.01);
  EXPECT_DOUBLE_EQ(s.client_work_bias(0), 1.0);
}

TEST(Scheduler, DischargeEmaSeedsAndSmooths) {
  SchedulerConfig cfg;
  cfg.enabled = true;
  cfg.ema_alpha = 0.25;
  BatteryScheduler s = make_sched(cfg);
  s.admit(0, false, 1.0, 10.0);
  EXPECT_DOUBLE_EQ(s.report(0).discharge_w, 0.0);
  s.observe_draw(0, 2.0, 1.0);  // 2 W seeds the average
  EXPECT_DOUBLE_EQ(s.report(0).discharge_w, 2.0);
  s.observe_draw(0, 4.0, 1.0);  // 4 W folds in at alpha
  EXPECT_DOUBLE_EQ(s.report(0).discharge_w, 0.25 * 4.0 + 0.75 * 2.0);
  // Degenerate samples are ignored.
  s.observe_draw(0, 1.0, 0.0);
  s.observe_draw(0, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(s.report(0).discharge_w, 2.5);
  EXPECT_EQ(s.report(0).samples, 2u);
}

TEST(Scheduler, ProjectedEarlyDeathShedsWork) {
  // Two clients at the same healthy charge; the one observed to burn
  // power fast enough to die before the horizon gets a smaller bias.
  SchedulerConfig cfg;
  cfg.enabled = true;
  cfg.horizon_s = 1000.0;
  BatteryScheduler s = make_sched(cfg, 2);
  s.admit(0, false, 0.6, 10.0);
  s.admit(1, false, 0.6, 10.0);
  s.observe_draw(1, 1.0, 1.0);  // 1 W on a 10 J pack: dead in 6 s
  EXPECT_LT(s.client_work_bias(1), s.client_work_bias(0));
}

TEST(Scheduler, DataAtServerNeverPicksLocal) {
  SchedulerConfig cfg;
  cfg.enabled = true;
  SessionConfig env = env_default();
  env.placement.data_at_client = false;
  BatteryScheduler s(data(), env, cfg, 1);
  s.admit(0, false, 0.01, 10.0);  // battery-protective as it gets
  rtree::NullHooks hooks;
  for (const rtree::Query& q : probe_queries()) {
    const Scheme chosen = s.choose(0, q, hooks);
    EXPECT_NE(chosen, Scheme::FullyAtClient);
    EXPECT_NE(chosen, Scheme::FilterServerRefineClient);
  }
}

TEST(Scheduler, FleetFirstAnswerWinsNeverDoubleCounts) {
  // Two clients, zero think time, every unit replicated on both: the
  // replicas race, the first completion wins, and the loser's answers
  // are discarded — fleet totals must match the unreplicated run.
  SessionConfig cfg;
  cfg.scheme = Scheme::FullyAtServer;
  cfg.channel = {4.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);

  FleetConfig plain;
  plain.clients = 2;
  plain.queries_per_client = 4;
  plain.think_time_s = 0.0;
  const FleetOutcome once = run_fleet(data(), cfg, plain);

  FleetConfig replicated = plain;
  replicated.replication = 2;
  const FleetOutcome twice = run_fleet(data(), cfg, replicated);

  EXPECT_EQ(twice.units_total, once.units_total);
  EXPECT_EQ(twice.units_answered, twice.units_total);
  // Dedup at work: answers identical even though replicas raced (any
  // overlap shows up in duplicate_answers, not in the answer count).
  EXPECT_EQ(twice.answers, once.answers);
  EXPECT_GT(twice.duplicate_answers, 0u);
}

TEST(Scheduler, FleetSchedulerKeepsAnswersIntact) {
  // Turning the scheduler on changes WHERE work runs, never WHAT is
  // answered: same units, full completeness, and with batteries on a
  // per-query scheme mix that still answers everything.
  SessionConfig cfg;
  cfg.scheme = Scheme::FullyAtServer;
  cfg.channel = {4.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);

  FleetConfig fleet;
  fleet.clients = 4;
  fleet.queries_per_client = 5;
  fleet.think_time_s = 0.5;
  fleet.battery.enabled = true;
  fleet.battery.deaths = false;  // track charge, keep everyone up
  fleet.battery.min_initial_charge = 0.05;
  fleet.scheduler.enabled = true;
  const FleetOutcome o = run_fleet(data(), cfg, fleet);
  EXPECT_EQ(o.units_answered, o.units_total);
  EXPECT_EQ(o.clients_alive, 4u);
  EXPECT_GT(o.answers, 0u);
}

}  // namespace
}  // namespace mosaiq::core
