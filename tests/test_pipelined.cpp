#include <gtest/gtest.h>

#include "core/pipelined_session.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::core {
namespace {

const workload::Dataset& data() {
  static workload::Dataset d = workload::make_pa(30000);
  return d;
}

SessionConfig base_config(double mbps = 4.0) {
  SessionConfig cfg;
  cfg.scheme = Scheme::FilterClientRefineServer;
  cfg.channel = {mbps, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  return cfg;
}

TEST(Pipelined, AnswersMatchBlockingScheme) {
  workload::QueryGen gen(data(), 1);
  const auto queries = gen.batch(rtree::QueryKind::Range, 12);

  const stats::Outcome blocking = Session::run_batch(data(), base_config(), queries);

  PipelinedSession pipe(data(), base_config(), {256});
  for (const auto& q : queries) pipe.run_query(q);
  EXPECT_EQ(pipe.outcome().answers, blocking.answers);
}

TEST(Pipelined, RejectsNN) {
  PipelinedSession pipe(data(), base_config(), {});
  EXPECT_THROW(pipe.run_query(rtree::NNQuery{{0.5, 0.5}}), std::invalid_argument);
  EXPECT_THROW(pipe.run_query(rtree::KnnQuery{{0.5, 0.5}, 3}), std::invalid_argument);
}

TEST(Pipelined, RejectsALossyLink) {
  // The pipelined schedule models no link faults; a lossy config must
  // not run as if it were clean.
  SessionConfig cfg = base_config();
  cfg.fault = net::bursty_loss_config(0.1, /*seed=*/3);
  EXPECT_THROW(PipelinedSession(data(), cfg, {}), std::invalid_argument);
}

TEST(Pipelined, EmptyFilterStaysLocal) {
  PipelinedSession pipe(data(), base_config(), {});
  // A window far outside every segment: no candidates, no traffic.
  pipe.run_query(rtree::RangeQuery{{{-10, -10}, {-9, -9}}});
  const stats::Outcome o = pipe.outcome();
  EXPECT_EQ(o.bytes_tx, 0u);
  EXPECT_EQ(o.answers, 0u);
  EXPECT_GT(o.energy.nic_sleep_j, 0.0);
}

TEST(Pipelined, ImprovesLatencyOverBlocking) {
  // The point of w4 > 0: with filtering, radio, and server refinement
  // overlapped, the wall time beats the blocking scheme's.
  workload::QueryGen gen(data(), 2);
  const auto queries = gen.batch(rtree::QueryKind::Range, 12);

  const stats::Outcome blocking = Session::run_batch(data(), base_config(2.0), queries);
  PipelinedSession pipe(data(), base_config(2.0), {256});
  for (const auto& q : queries) pipe.run_query(q);
  const stats::Outcome p = pipe.outcome();

  EXPECT_LT(p.wall_seconds, blocking.wall_seconds);
}

TEST(Pipelined, PaysIdleEnergyForTheOverlap) {
  // The energy price: the NIC holds IDLE across the pipelined window
  // instead of sleeping between phases, and every batch pays packet
  // overheads — total wire bytes can only grow.
  workload::QueryGen gen(data(), 3);
  const auto queries = gen.batch(rtree::QueryKind::Range, 12);

  const stats::Outcome blocking = Session::run_batch(data(), base_config(2.0), queries);
  PipelinedSession pipe(data(), base_config(2.0), {128});
  for (const auto& q : queries) pipe.run_query(q);
  const stats::Outcome p = pipe.outcome();

  EXPECT_GE(p.bytes_tx + p.bytes_rx, blocking.bytes_tx + blocking.bytes_rx);
}

TEST(Pipelined, BatchCountMatchesCandidates) {
  workload::QueryGen gen(data(), 4);
  const rtree::RangeQuery q = gen.range_query();
  rtree::CountingHooks probe;
  std::vector<std::uint32_t> cand;
  data().tree.filter_range(q.window, probe, cand);

  PipelinedSession pipe(data(), base_config(), {100});
  pipe.run_query(rtree::Query{q});
  EXPECT_EQ(pipe.batches(), (cand.size() + 99) / 100);
}

TEST(Pipelined, SmallerBatchesMoreOverheadBytes) {
  workload::QueryGen gen(data(), 5);
  const auto queries = gen.batch(rtree::QueryKind::Range, 8);
  PipelinedSession coarse(data(), base_config(), {1024});
  PipelinedSession fine(data(), base_config(), {32});
  for (const auto& q : queries) {
    coarse.run_query(q);
    fine.run_query(q);
  }
  EXPECT_GT(fine.batches(), coarse.batches());
  EXPECT_GT(fine.outcome().bytes_tx, coarse.outcome().bytes_tx);
  EXPECT_EQ(fine.outcome().answers, coarse.outcome().answers);
}

}  // namespace
}  // namespace mosaiq::core
