#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/query_exec.hpp"
#include "core/session.hpp"
#include "outcome_bits.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::core {
namespace {

const workload::Dataset& data() {
  static workload::Dataset d = workload::make_pa(20000);
  return d;
}

SessionConfig base_config() {
  SessionConfig cfg;
  cfg.channel = {4.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  return cfg;
}

TEST(Session, FullyAtClientNeverUsesTheLink) {
  workload::QueryGen gen(data(), 1);
  const auto queries = gen.batch(rtree::QueryKind::Range, 10);
  SessionConfig cfg = base_config();
  cfg.scheme = Scheme::FullyAtClient;
  const stats::Outcome o = Session::run_batch(data(), cfg, queries);
  EXPECT_EQ(o.bytes_tx, 0u);
  EXPECT_EQ(o.bytes_rx, 0u);
  EXPECT_EQ(o.round_trips, 0u);
  EXPECT_DOUBLE_EQ(o.energy.nic_tx_j, 0.0);
  EXPECT_DOUBLE_EQ(o.energy.nic_rx_j, 0.0);
  EXPECT_GT(o.energy.nic_sleep_j, 0.0);  // the NIC sleeps but still draws
  EXPECT_GT(o.cycles.processor, 0u);
  EXPECT_EQ(o.cycles.nic_tx + o.cycles.nic_rx + o.cycles.wait, 0u);
  EXPECT_EQ(o.server_cycles, 0u);
}

TEST(Session, RemoteSchemesUseTheLinkOncePerQuery) {
  workload::QueryGen gen(data(), 2);
  const auto queries = gen.batch(rtree::QueryKind::Range, 7);
  for (const Scheme s : {Scheme::FullyAtServer, Scheme::FilterClientRefineServer,
                         Scheme::FilterServerRefineClient}) {
    SessionConfig cfg = base_config();
    cfg.scheme = s;
    const stats::Outcome o = Session::run_batch(data(), cfg, queries);
    EXPECT_EQ(o.round_trips, 7u) << name_of(s);
    EXPECT_GT(o.bytes_tx, 0u);
    EXPECT_GT(o.bytes_rx, 0u);
    EXPECT_GT(o.energy.nic_tx_j, 0.0);
    EXPECT_GT(o.energy.nic_rx_j, 0.0);
    EXPECT_GT(o.energy.nic_idle_j, 0.0);
    EXPECT_GT(o.server_cycles, 0u);
    EXPECT_GT(o.cycles.nic_tx, 0u);
    EXPECT_GT(o.cycles.nic_rx, 0u);
  }
}

// The central correctness property: every scheme and placement answers
// every query batch identically.
struct SchemeCase {
  Scheme scheme;
  bool data_at_client;
};

class SchemeEquivalence : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(SchemeEquivalence, AnswerCountsMatchFullyAtClient) {
  workload::QueryGen gen(data(), 5);
  auto queries = gen.batch(rtree::QueryKind::Range, 15);
  const auto points = gen.batch(rtree::QueryKind::Point, 15);
  queries.insert(queries.end(), points.begin(), points.end());

  SessionConfig ref = base_config();
  ref.scheme = Scheme::FullyAtClient;
  const stats::Outcome expected = Session::run_batch(data(), ref, queries);

  SessionConfig cfg = base_config();
  cfg.scheme = GetParam().scheme;
  cfg.placement.data_at_client = GetParam().data_at_client;
  const stats::Outcome got = Session::run_batch(data(), cfg, queries);
  EXPECT_EQ(got.answers, expected.answers);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeEquivalence,
    ::testing::Values(SchemeCase{Scheme::FullyAtServer, true},
                      SchemeCase{Scheme::FullyAtServer, false},
                      SchemeCase{Scheme::FilterClientRefineServer, true},
                      SchemeCase{Scheme::FilterClientRefineServer, false},
                      SchemeCase{Scheme::FilterServerRefineClient, true},
                      SchemeCase{Scheme::FilterServerRefineClient, false}));

TEST(Session, NNOnlySupportsFullySchemes) {
  const rtree::Query nn = rtree::NNQuery{{0.5, 0.5}};
  SessionConfig cfg = base_config();
  cfg.scheme = Scheme::FilterClientRefineServer;
  Session s1(data(), cfg);
  EXPECT_THROW(s1.run_query(nn), std::invalid_argument);
  cfg.scheme = Scheme::FilterServerRefineClient;
  Session s2(data(), cfg);
  EXPECT_THROW(s2.run_query(nn), std::invalid_argument);
  cfg.scheme = Scheme::FullyAtServer;
  Session s3(data(), cfg);
  EXPECT_NO_THROW(s3.run_query(nn));
  EXPECT_EQ(s3.outcome().answers, 1u);
}

TEST(Session, FullyAtClientNeedsTheData) {
  // A client that does not hold the data cannot answer locally: the run
  // is rejected, not priced as if the data were there.
  SessionConfig cfg = base_config();
  cfg.scheme = Scheme::FullyAtClient;
  cfg.placement.data_at_client = false;
  Session s(data(), cfg);
  for (const rtree::QueryKind kind : {rtree::QueryKind::Point, rtree::QueryKind::Range,
                                      rtree::QueryKind::NN, rtree::QueryKind::Route}) {
    workload::QueryGen gen(data(), 3);
    EXPECT_THROW(s.run_query(gen.batch(kind, 1).front()), std::invalid_argument)
        << rtree::name_of(kind);
  }
  EXPECT_EQ(s.outcome().answers, 0u);
}

TEST(SchemeSteps, FullyAtClientNeedsTheData) {
  workload::QueryGen gen(data(), 4);
  const rtree::Query q = gen.batch(rtree::QueryKind::Range, 1).front();
  std::vector<std::uint32_t> cand;
  EXPECT_THROW(SchemeSteps(data(), q, Scheme::FullyAtClient, /*data_at_client=*/false, cand),
               std::invalid_argument);
  EXPECT_NO_THROW(SchemeSteps(data(), q, Scheme::FullyAtClient, /*data_at_client=*/true, cand));
  EXPECT_NO_THROW(SchemeSteps(data(), q, Scheme::FullyAtServer, /*data_at_client=*/false, cand));
}

TEST(Session, DataAbsentInflatesResponses) {
  workload::QueryGen gen(data(), 6);
  const auto queries = gen.batch(rtree::QueryKind::Range, 10);
  SessionConfig at = base_config();
  at.scheme = Scheme::FullyAtServer;
  at.placement.data_at_client = true;
  SessionConfig absent = at;
  absent.placement.data_at_client = false;
  const stats::Outcome with_data = Session::run_batch(data(), at, queries);
  const stats::Outcome without = Session::run_batch(data(), absent, queries);
  // 76 B records vs 4 B ids: an order of magnitude more receive traffic.
  EXPECT_GT(without.bytes_rx, 5 * with_data.bytes_rx);
  EXPECT_GT(without.energy.nic_rx_j, with_data.energy.nic_rx_j);
  EXPECT_EQ(without.answers, with_data.answers);
  // Paper 6.1.1: keeping data locally "saves much more on performance
  // than on energy" — the request transmission (the dominant energy
  // term) is mostly unaffected, only receive time shrinks.
  const double cycle_saving =
      1.0 - static_cast<double>(with_data.cycles.total()) /
                static_cast<double>(without.cycles.total());
  const double energy_saving = 1.0 - with_data.energy.total_j() / without.energy.total_j();
  EXPECT_GT(cycle_saving, energy_saving);
}

TEST(Session, HigherBandwidthShrinksCommunication) {
  workload::QueryGen gen(data(), 7);
  const auto queries = gen.batch(rtree::QueryKind::Range, 10);
  SessionConfig slow = base_config();
  slow.scheme = Scheme::FullyAtServer;
  slow.channel.bandwidth_mbps = 2.0;
  SessionConfig fast = slow;
  fast.channel.bandwidth_mbps = 11.0;
  const stats::Outcome o_slow = Session::run_batch(data(), slow, queries);
  const stats::Outcome o_fast = Session::run_batch(data(), fast, queries);
  EXPECT_GT(o_slow.cycles.nic_rx, o_fast.cycles.nic_rx);
  EXPECT_GT(o_slow.cycles.nic_tx, o_fast.cycles.nic_tx);
  EXPECT_GT(o_slow.energy.nic_tx_j, o_fast.energy.nic_tx_j);
  EXPECT_GT(o_slow.energy.nic_rx_j, o_fast.energy.nic_rx_j);
  // Same bytes either way.
  EXPECT_EQ(o_slow.bytes_tx, o_fast.bytes_tx);
  EXPECT_EQ(o_slow.bytes_rx, o_fast.bytes_rx);
}

TEST(Session, ShorterDistanceCutsTxEnergyOnly) {
  workload::QueryGen gen(data(), 8);
  const auto queries = gen.batch(rtree::QueryKind::Range, 10);
  SessionConfig far = base_config();
  far.scheme = Scheme::FilterClientRefineServer;
  far.channel.distance_m = 1000.0;
  SessionConfig near = far;
  near.channel.distance_m = 100.0;
  const stats::Outcome o_far = Session::run_batch(data(), far, queries);
  const stats::Outcome o_near = Session::run_batch(data(), near, queries);
  EXPECT_NEAR(o_far.energy.nic_tx_j / o_near.energy.nic_tx_j, 2.84, 0.05);
  EXPECT_DOUBLE_EQ(o_far.energy.nic_rx_j, o_near.energy.nic_rx_j);
  EXPECT_EQ(o_far.cycles.total(), o_near.cycles.total());  // timing unchanged
}

TEST(Session, FasterClientSavesCyclesNotEnergy) {
  // Paper 6.1.3: raising the client clock helps performance of
  // client-heavy schemes with little impact on energy.
  workload::QueryGen gen(data(), 9);
  const auto queries = gen.batch(rtree::QueryKind::Range, 10);
  SessionConfig slow = base_config();
  slow.scheme = Scheme::FullyAtClient;
  slow.client = sim::client_at_ratio(1.0 / 8.0);
  SessionConfig fast = slow;
  fast.client = sim::client_at_ratio(1.0 / 2.0);
  const stats::Outcome o_slow = Session::run_batch(data(), slow, queries);
  const stats::Outcome o_fast = Session::run_batch(data(), fast, queries);
  // Same cycle count, but 4x the clock => 4x less time.
  EXPECT_EQ(o_slow.cycles.processor, o_fast.cycles.processor);
  EXPECT_NEAR(o_slow.wall_seconds / o_fast.wall_seconds, 4.0, 0.01);
  // Energy moves only via the NIC-sleep term (shorter wall time).
  EXPECT_NEAR(o_fast.energy.processor_j, o_slow.energy.processor_j,
              0.02 * o_slow.energy.processor_j);
}

TEST(Session, WaitPolicySavesEnergyWhileBlocked) {
  workload::QueryGen gen(data(), 10);
  const auto queries = gen.batch(rtree::QueryKind::Range, 10);
  SessionConfig lowp = base_config();
  lowp.scheme = Scheme::FullyAtServer;
  lowp.placement.data_at_client = false;  // long receive phases
  lowp.channel.bandwidth_mbps = 2.0;
  SessionConfig poll = lowp;
  poll.wait_policy = sim::WaitPolicy::BusyPoll;
  SessionConfig block = lowp;
  block.wait_policy = sim::WaitPolicy::Block;
  const double e_lowp =
      Session::run_batch(data(), lowp, queries).energy.processor_j;
  const double e_block =
      Session::run_batch(data(), block, queries).energy.processor_j;
  const double e_poll =
      Session::run_batch(data(), poll, queries).energy.processor_j;
  EXPECT_LT(e_lowp, e_block);
  EXPECT_LT(e_block, e_poll);
  // Section 5.2 claim, on the wait-phase energy itself (the low-power
  // run isolates the non-wait processor energy): blocking cuts the
  // waiting cost by more than half versus polling.
  EXPECT_GT(e_poll - e_lowp, 2.0 * (e_block - e_lowp));
}

TEST(Session, BusyPollWaitIsNotCompute) {
  // The spin of a busy-poll wait burns energy, but its time is the
  // wait's: it is booked neither as processor cycles nor again as
  // compute wall time, so polling takes as long as blocking.
  workload::QueryGen gen(data(), 10);
  const auto queries = gen.batch(rtree::QueryKind::Range, 10);
  SessionConfig block = base_config();
  block.scheme = Scheme::FullyAtServer;
  block.placement.data_at_client = false;  // long receive phases
  block.channel.bandwidth_mbps = 2.0;
  block.wait_policy = sim::WaitPolicy::Block;
  SessionConfig poll = block;
  poll.wait_policy = sim::WaitPolicy::BusyPoll;
  const stats::Outcome o_block = Session::run_batch(data(), block, queries);
  const stats::Outcome o_poll = Session::run_batch(data(), poll, queries);
  EXPECT_NEAR(o_poll.wall_seconds, o_block.wall_seconds, 0.01 * o_block.wall_seconds);
  const auto block_cycles = static_cast<double>(o_block.cycles.processor);
  EXPECT_NEAR(static_cast<double>(o_poll.cycles.processor), block_cycles, 0.05 * block_cycles);
  EXPECT_GT(o_poll.energy.processor_j, o_block.energy.processor_j);
}

TEST(Session, OutcomeIsCumulativeAcrossQueries) {
  SessionConfig cfg = base_config();
  cfg.scheme = Scheme::FullyAtServer;
  Session s(data(), cfg);
  workload::QueryGen gen(data(), 11);
  s.run_query(gen.range_query());
  const stats::Outcome after1 = s.outcome();
  s.run_query(gen.range_query());
  const stats::Outcome after2 = s.outcome();
  EXPECT_GT(after2.bytes_tx, after1.bytes_tx);
  EXPECT_GE(after2.answers, after1.answers);
  EXPECT_GT(after2.energy.total_j(), after1.energy.total_j());
  EXPECT_EQ(after2.round_trips, 2u);
}

TEST(Session, FullyDeterministic) {
  // The reproducibility contract behind EXPERIMENTS.md: identical
  // configs and seeds give bit-identical outcomes, run to run.
  workload::QueryGen g1(data(), 99);
  workload::QueryGen g2(data(), 99);
  const auto q1 = g1.batch(rtree::QueryKind::Range, 12);
  const auto q2 = g2.batch(rtree::QueryKind::Range, 12);
  SessionConfig cfg = base_config();
  cfg.scheme = Scheme::FilterServerRefineClient;
  const stats::Outcome a = Session::run_batch(data(), cfg, q1);
  const stats::Outcome b = Session::run_batch(data(), cfg, q2);
  EXPECT_EQ(a.cycles.total(), b.cycles.total());
  EXPECT_EQ(a.bytes_tx, b.bytes_tx);
  EXPECT_EQ(a.bytes_rx, b.bytes_rx);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
}

/// Runs `queries` through the Table-1 steps on one client and one
/// server, as Session does minus the transport; returns the answers and
/// adds the request and response payloads to `payload_bytes`.  Called
/// with the machine models themselves it runs the copies Session and
/// the fleet run; called with ExecHooks it runs the type-erased copies.
template <typename Client, typename Server>
std::uint64_t run_steps(Client& client, Server& server, Scheme s, bool data_at_client,
                        std::span<const rtree::Query> queries, std::uint64_t& payload_bytes) {
  std::uint64_t answers = 0;
  for (const rtree::Query& q : queries) {
    std::vector<std::uint32_t> cand;
    SchemeSteps steps(data(), q, s, data_at_client, cand);
    payload_bytes += steps.client_w1(client, answers);
    if (!uses_server(s)) continue;
    payload_bytes += steps.server_w2(server, answers);
    steps.client_w3(client, answers);
  }
  return answers;
}

void expect_cache_stats(const sim::CacheStats& a, const sim::CacheStats& b, const char* what) {
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

TEST(SchemeSteps, MachineModelCopiesMatchTypeErased) {
  // The kernels are compiled once per machine model (events call
  // ClientCpu / ServerCpu directly) and once for ExecHooks&.  One source
  // makes them the same events in the same order, so every simulated
  // number must agree bit for bit, over every scheme x query kind x
  // placement Session accepts.
  using test_support::expect_bits;
  for (const rtree::QueryKind kind :
       {rtree::QueryKind::Point, rtree::QueryKind::Range, rtree::QueryKind::NN,
        rtree::QueryKind::Knn, rtree::QueryKind::Route}) {
    workload::QueryGen gen(data(), 5);
    const std::vector<rtree::Query> queries = gen.batch(kind, 12);
    const bool nn = kind == rtree::QueryKind::NN || kind == rtree::QueryKind::Knn;
    for (const Scheme s : {Scheme::FullyAtClient, Scheme::FullyAtServer,
                           Scheme::FilterClientRefineServer, Scheme::FilterServerRefineClient}) {
      const bool hybrid =
          s == Scheme::FilterClientRefineServer || s == Scheme::FilterServerRefineClient;
      if (nn && hybrid) continue;
      for (const bool data_at_client : {true, false}) {
        if (s == Scheme::FullyAtClient && !data_at_client) continue;  // needs the data
        SCOPED_TRACE(std::string(name_of(kind)) + " " + name_of(s) +
                     (data_at_client ? " data@client" : " data@server"));
        const SessionConfig cfg = base_config();
        sim::ClientCpu client(cfg.client), erased_client(cfg.client);
        sim::ServerCpu server(cfg.server), erased_server(cfg.server);
        std::uint64_t bytes = 0, erased_bytes = 0;
        const std::uint64_t answers =
            run_steps(client, server, s, data_at_client, queries, bytes);
        const std::uint64_t erased_answers = run_steps<rtree::ExecHooks, rtree::ExecHooks>(
            erased_client, erased_server, s, data_at_client, queries, erased_bytes);

        EXPECT_EQ(answers, erased_answers);
        EXPECT_EQ(bytes, erased_bytes);
        const sim::EnergyBreakdown& e = client.energy();
        const sim::EnergyBreakdown& f = erased_client.energy();
        expect_bits(e.datapath_j, f.datapath_j, "datapath_j");
        expect_bits(e.clock_j, f.clock_j, "clock_j");
        expect_bits(e.icache_j, f.icache_j, "icache_j");
        expect_bits(e.dcache_j, f.dcache_j, "dcache_j");
        expect_bits(e.bus_j, f.bus_j, "bus_j");
        expect_bits(e.dram_j, f.dram_j, "dram_j");
        expect_bits(e.idle_j, f.idle_j, "idle_j");
        EXPECT_EQ(client.busy_cycles(), erased_client.busy_cycles());
        EXPECT_EQ(client.stall_cycles(), erased_client.stall_cycles());
        EXPECT_EQ(client.instructions(), erased_client.instructions());
        expect_cache_stats(client.icache_stats(), erased_client.icache_stats(), "client I-cache");
        expect_cache_stats(client.dcache_stats(), erased_client.dcache_stats(), "client D-cache");
        EXPECT_EQ(server.cycles(), erased_server.cycles());
        EXPECT_EQ(server.instructions(), erased_server.instructions());
        expect_cache_stats(server.l1d_stats(), erased_server.l1d_stats(), "server L1D");
        expect_cache_stats(server.l2_stats(), erased_server.l2_stats(), "server L2");
        EXPECT_EQ(server.tlb_misses(), erased_server.tlb_misses());
        // The batch did real work on the machine it ran on.
        if (s != Scheme::FullyAtServer) {
          EXPECT_GT(client.instructions(), 0u);
        }
        if (uses_server(s)) {
          EXPECT_GT(server.instructions(), 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mosaiq::core
