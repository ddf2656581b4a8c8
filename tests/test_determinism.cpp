// Determinism regression for the accounting paths (ISSUE 3 satellite):
// two identical runs must produce bit-identical stats::Outcome and
// byte-identical trace output.  This pins down the audit of the repo's
// two unordered_set sites — rtree/shipment.cpp's ship_hilbert_range
// (the `shipped` set is dedup-only and is sorted into a vector before
// any order-dependent work) and rtree/pmr_quadtree.cpp's nearest_k
// (`reported` is dedup-only; emission order comes from the heap) — and
// guards every future accounting path against nondeterminism creeping
// in (hash-set iteration, wall-clock reads, unseeded randomness).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/adaptive_session.hpp"
#include "core/broadcast_client.hpp"
#include "core/caching_client.hpp"
#include "core/fleet.hpp"
#include "core/pipelined_session.hpp"
#include "core/scheduler.hpp"
#include "core/session.hpp"
#include "figure_common.hpp"
#include "net/broadcast.hpp"
#include "net/fault.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "outcome_bits.hpp"
#include "perf/build_cache.hpp"
#include "perf/config_hash.hpp"
#include "rtree/buddy_tree.hpp"
#include "rtree/dynamic_rtree.hpp"
#include "rtree/hilbert_rtree.hpp"
#include "rtree/pmr_quadtree.hpp"
#include "rtree/rstar_tree.hpp"
#include "rtree/shipment.hpp"
#include "sim/dvfs.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq {
namespace {

using test_support::expect_bit_identical;
using test_support::expect_bits;
using test_support::expect_fleet_bit_identical;

/// The shared BuildCache holds the dataset, exactly as the figure
/// harnesses do since the perf layer landed — so every determinism pin
/// below also exercises the memoized-build path.
const workload::Dataset& data() {
  static std::shared_ptr<const workload::Dataset> d =
      perf::BuildCache::shared().dataset(workload::pa_spec(20000));
  return *d;
}

core::SessionConfig config(core::Scheme s) {
  core::SessionConfig cfg;
  cfg.scheme = s;
  cfg.channel = {4.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  return cfg;
}

struct RunResult {
  stats::Outcome outcome;
  std::string trace_json;
  std::string metrics_csv;
};

/// One full caching-client run: the HilbertRange policy drives
/// ship_hilbert_range and its `shipped` unordered_set on every fetch.
RunResult caching_run(rtree::ShipPolicy policy) {
  core::CachingClient cc(data(), config(core::Scheme::FullyAtClient),
                         {512 * 1024, policy});
  obs::TraceSink trace;
  cc.set_trace(&trace);
  workload::QueryGen gen(data(), /*seed=*/7);
  for (int i = 0; i < 30; ++i) cc.run_query(gen.range_query());
  RunResult r;
  r.outcome = cc.outcome();
  std::ostringstream tj;
  obs::write_chrome_trace(tj, trace);
  r.trace_json = tj.str();
  std::ostringstream mc;
  obs::write_metrics(mc, trace, &r.outcome);
  r.metrics_csv = mc.str();
  return r;
}

TEST(Determinism, CachingClientHilbertRangeBitIdentical) {
  const RunResult a = caching_run(rtree::ShipPolicy::HilbertRange);
  const RunResult b = caching_run(rtree::ShipPolicy::HilbertRange);
  expect_bit_identical(a.outcome, b.outcome);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_csv, b.metrics_csv);
}

TEST(Determinism, CachingClientWindowExpandBitIdentical) {
  const RunResult a = caching_run(rtree::ShipPolicy::WindowExpand);
  const RunResult b = caching_run(rtree::ShipPolicy::WindowExpand);
  expect_bit_identical(a.outcome, b.outcome);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

/// The shipment itself (segments, ids, node count, safe rect) must come
/// out identical: its contents feed wire-byte accounting directly.
TEST(Determinism, HilbertRangeShipmentContentsIdentical) {
  const geom::Rect q{{0.45, 0.45}, {0.55, 0.55}};
  const rtree::Shipment a = rtree::extract_shipment(
      data().tree, data().store, q, {512 * 1024}, rtree::ShipPolicy::HilbertRange,
      rtree::null_hooks());
  const rtree::Shipment b = rtree::extract_shipment(
      data().tree, data().store, q, {512 * 1024}, rtree::ShipPolicy::HilbertRange,
      rtree::null_hooks());
  ASSERT_EQ(a.ids.size(), b.ids.size());
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.node_count, b.node_count);
  expect_bits(a.safe_rect.lo.x, b.safe_rect.lo.x, "safe_rect.lo.x");
  expect_bits(a.safe_rect.hi.y, b.safe_rect.hi.y, "safe_rect.hi.y");
  for (std::size_t i = 0; i < a.ids.size(); ++i) {
    expect_bits(a.segments[i].a.x, b.segments[i].a.x, "segment.a.x");
    expect_bits(a.segments[i].b.y, b.segments[i].b.y, "segment.b.y");
  }
}

/// nearest_k dedups across cells through an unordered_set; result order
/// and distances must still be exactly reproducible.
TEST(Determinism, PmrQuadtreeNearestKBitIdentical) {
  const rtree::PmrQuadtree t = rtree::PmrQuadtree::build(data().store, {64, 12});
  for (const geom::Point p :
       {geom::Point{0.5, 0.5}, geom::Point{0.1, 0.9}, geom::Point{0.99, 0.01}}) {
    const auto a = t.nearest_k(p, 25, data().store, rtree::null_hooks());
    const auto b = t.nearest_k(p, 25, data().store, rtree::null_hooks());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].record, b[i].record);
      EXPECT_EQ(a[i].id, b[i].id);
      expect_bits(a[i].dist, b[i].dist, "nn distance");
    }
  }
}

/// Whole-session batches across all four schemes, traced.
TEST(Determinism, SessionBatchesBitIdentical) {
  using core::Scheme;
  for (const Scheme s : {Scheme::FullyAtClient, Scheme::FullyAtServer,
                         Scheme::FilterClientRefineServer, Scheme::FilterServerRefineClient}) {
    auto run = [&] {
      workload::QueryGen gen(data(), /*seed=*/11);
      const auto queries = gen.batch(rtree::QueryKind::Range, 20);
      obs::TraceSink trace;
      RunResult r;
      r.outcome = core::Session::run_batch(data(), config(s), queries, &trace);
      std::ostringstream tj;
      obs::write_chrome_trace(tj, trace);
      r.trace_json = tj.str();
      return r;
    };
    const RunResult a = run();
    const RunResult b = run();
    expect_bit_identical(a.outcome, b.outcome);
    EXPECT_EQ(a.trace_json, b.trace_json);
  }
}

/// Mixes every stats::Outcome field into `h`, in declaration order.
void mix_outcome(perf::ConfigHasher& h, const stats::Outcome& o) {
  h.mix(o.cycles.processor).mix(o.cycles.nic_tx).mix(o.cycles.nic_rx).mix(o.cycles.wait);
  h.mix(o.energy.processor_j)
      .mix(o.energy.nic_tx_j)
      .mix(o.energy.nic_rx_j)
      .mix(o.energy.nic_idle_j)
      .mix(o.energy.nic_sleep_j);
  const sim::EnergyBreakdown& p = o.processor_detail;
  h.mix(p.datapath_j)
      .mix(p.clock_j)
      .mix(p.icache_j)
      .mix(p.dcache_j)
      .mix(p.bus_j)
      .mix(p.dram_j)
      .mix(p.idle_j);
  h.mix(o.server_cycles)
      .mix(o.bytes_tx)
      .mix(o.bytes_rx)
      .mix(std::uint64_t{o.round_trips})
      .mix(o.answers)
      .mix(o.wall_seconds)
      .mix(std::uint64_t{o.retransmissions})
      .mix(std::uint64_t{o.timeouts})
      .mix(o.wasted_tx_j)
      .mix(o.wasted_rx_j)
      .mix(std::uint64_t{o.queries_degraded})
      .mix(std::uint64_t{o.queries_failed});
}

void mix_cache(perf::ConfigHasher& h, const sim::CacheStats& s) {
  h.mix(s.accesses).mix(s.hits).mix(s.misses).mix(s.writebacks);
}

/// Golden values for the Table-1 Session path.  The runs above only
/// compare a binary with itself, so a machine-model change that moved
/// every number the same way would pass them; these values were
/// recorded before the server TLB gained its slot index and pin the
/// simulated numbers themselves.  The cells are perfbench paper_sweep's
/// at 4 Mbps: every scheme x placement variant per query kind, the
/// hybrids only for point and range.
TEST(Determinism, TableOneSessionsMatchGoldenValues) {
  using core::Scheme;
  struct Variant {
    Scheme scheme;
    bool data_at_client;
  };
  perf::ConfigHasher h;
  std::uint64_t tlb_misses = 0, answers = 0;
  for (const rtree::QueryKind kind :
       {rtree::QueryKind::Point, rtree::QueryKind::Range, rtree::QueryKind::NN}) {
    workload::QueryGen gen(data(), /*seed=*/19);
    const auto queries = gen.batch(kind, 20);
    std::vector<Variant> variants = {
        {Scheme::FullyAtClient, true}, {Scheme::FullyAtServer, false}, {Scheme::FullyAtServer, true}};
    if (kind != rtree::QueryKind::NN) {
      variants.push_back({Scheme::FilterClientRefineServer, false});
      variants.push_back({Scheme::FilterClientRefineServer, true});
      variants.push_back({Scheme::FilterServerRefineClient, true});
    }
    for (const Variant& v : variants) {
      core::SessionConfig cfg = config(v.scheme);
      cfg.placement.data_at_client = v.data_at_client;
      core::Session session(data(), cfg);
      for (const rtree::Query& q : queries) session.run_query(q);
      const stats::Outcome o = session.outcome();
      mix_outcome(h, o);
      h.mix(session.server_cpu().tlb_misses());
      mix_cache(h, session.server_cpu().l1d_stats());
      mix_cache(h, session.server_cpu().l2_stats());
      mix_cache(h, session.client_cpu().dcache_stats());
      tlb_misses += session.server_cpu().tlb_misses();
      answers += o.answers;
    }
  }
  EXPECT_EQ(tlb_misses, 933u);
  EXPECT_EQ(answers, 14334u);
  EXPECT_EQ(h.value(), 0x7204f5759fd9f63eull);
}

/// Golden values for the region clients, which answer queries from a
/// client-resident store and index: the insufficient-memory
/// CachingClient and the BroadcastClient.  Their own suites check
/// relations between runs and the pins above compare a binary with
/// itself, so only this test holds their simulated numbers.  It covers
/// both ship policies at two budgets; a bursty-loss, traced client
/// (statuses, trace and metrics bytes); every consistency policy with
/// and without think time under an update stream with pushes; and
/// broadcast traffic at three hot shares with the bucket cache on and
/// off.  The value was recorded while a separate client class still ran
/// the consistency policies.
TEST(Determinism, RegionClientsMatchGoldenValues) {
  using core::ConsistencyPolicy;
  std::vector<rtree::RangeQuery> queries;
  for (const auto& b : workload::make_proximity_workload(data(), 3, 8, 0.003, /*seed=*/29)) {
    queries.insert(queries.end(), b.queries.begin(), b.queries.end());
  }
  const core::SessionConfig cfg = config(core::Scheme::FullyAtClient);
  perf::ConfigHasher h;

  for (const rtree::ShipPolicy policy :
       {rtree::ShipPolicy::WindowExpand, rtree::ShipPolicy::HilbertRange}) {
    for (const std::uint64_t budget : {std::uint64_t{512} << 10, std::uint64_t{2} << 20}) {
      core::CachingClient c(data(), cfg, {budget, policy});
      for (const rtree::RangeQuery& q : queries) c.run_query(q);
      mix_outcome(h, c.outcome());
      h.mix(std::uint64_t{c.fetches()}).mix(std::uint64_t{c.local_hits()}).mix(c.cached_bytes());
    }
  }

  // Bursty loss and two retries: a shipment fetch fails often enough
  // that queries fail before the first install and degrade after it.
  core::SessionConfig lossy = cfg;
  lossy.fault = net::bursty_loss_config(0.05, /*seed=*/5);
  lossy.retry.retry_budget = 2;
  core::CachingClient faulted(data(), lossy, {512u << 10, rtree::ShipPolicy::HilbertRange});
  obs::TraceSink trace;
  faulted.set_trace(&trace);
  for (const rtree::RangeQuery& q : queries) {
    h.mix(static_cast<std::uint64_t>(faulted.run_query(q)));
  }
  const stats::Outcome lossy_outcome = faulted.outcome();
  mix_outcome(h, lossy_outcome);
  std::ostringstream tj;
  obs::write_chrome_trace(tj, trace);
  std::ostringstream mc;
  obs::write_metrics(mc, trace, &lossy_outcome);
  h.mix(tj.str()).mix(mc.str());
  EXPECT_GT(lossy_outcome.queries_degraded, 0u);
  EXPECT_GT(lossy_outcome.queries_failed, 0u);

  std::uint32_t revalidations = 0, stale = 0, pushes = 0;
  for (const ConsistencyPolicy p : {ConsistencyPolicy::None, ConsistencyPolicy::Revalidate,
                                    ConsistencyPolicy::Ttl, ConsistencyPolicy::Lease}) {
    for (const double think : {0.0, 2.0}) {
      core::VersionedServer server(data());
      core::CachingConfig cc;
      cc.consistency = p;
      cc.ttl_queries = 3;
      cc.think_time_s = think;
      core::CachingClient c(server, cfg, cc);
      std::mt19937_64 rng(31);
      for (const rtree::RangeQuery& q : queries) {
        // One slot in four updates a street under the coming window.
        if (rng() % 4 == 0) {
          server.apply_update(q.window.center());
          c.notify_update(q.window.center());
        }
        c.run_query(q);
      }
      mix_outcome(h, c.outcome());
      h.mix(std::uint64_t{c.fetches()})
          .mix(std::uint64_t{c.local_hits()})
          .mix(std::uint64_t{c.revalidations()})
          .mix(std::uint64_t{c.stale_answers()})
          .mix(std::uint64_t{c.invalidation_pushes()});
      revalidations += c.revalidations();
      stale += c.stale_answers();
      pushes += c.invalidation_pushes();
    }
  }
  EXPECT_GT(revalidations, 0u);
  EXPECT_GT(stale, 0u);
  EXPECT_GT(pushes, 0u);

  const std::vector<geom::Rect> hot = {{{0.18, 0.25}, {0.26, 0.33}}, {{0.54, 0.22}, {0.60, 0.28}}};
  const net::BroadcastProgram program = net::make_broadcast_program(data().tree, hot, 2.0, 4);
  std::uint32_t tunes = 0, bucket_hits = 0, fallbacks = 0;
  for (const double hot_share : {0.0, 0.5, 1.0}) {
    for (const bool cache_bucket : {true, false}) {
      core::BroadcastClient c(data(), cfg, program, {cache_bucket});
      for (int i = 0; i < 24; ++i) {
        const double dx = 0.004 * (i % 5);
        if (i % 4 < hot_share * 4) {
          const geom::Point lo = hot[(i / 3) % 2].lo;
          c.run_query({geom::Rect{{lo.x + 0.005 + dx, lo.y + 0.01},
                                  {lo.x + 0.025 + dx, lo.y + 0.03}}});
        } else {
          c.run_query({geom::Rect{{0.70 + dx, 0.70}, {0.73 + dx, 0.74}}});
        }
      }
      mix_outcome(h, c.outcome());
      h.mix(std::uint64_t{c.broadcast_tunes()})
          .mix(std::uint64_t{c.cache_hits()})
          .mix(std::uint64_t{c.fallbacks()});
      tunes += c.broadcast_tunes();
      bucket_hits += c.cache_hits();
      fallbacks += c.fallbacks();
    }
  }
  EXPECT_GT(tunes, 0u);
  EXPECT_GT(bucket_hits, 0u);
  EXPECT_GT(fallbacks, 0u);

  EXPECT_EQ(h.value(), 0x6295efe9b7c1cf42ull) << "0x" << std::hex << h.value() << "ull";
}

/// Golden values for the pipelined session (w4 > 0), whose own suite
/// only compares it with the blocking scheme: point, range and route
/// queries at 2 and 11 Mbps, both placements and two batch sizes, plus
/// one query that finds no candidates.  The value was recorded while
/// the session still kept a radio and counters of its own.
TEST(Determinism, PipelinedSessionMatchesGoldenValues) {
  perf::ConfigHasher h;
  std::uint64_t batches = 0;
  for (const rtree::QueryKind kind :
       {rtree::QueryKind::Point, rtree::QueryKind::Range, rtree::QueryKind::Route}) {
    workload::QueryGen gen(data(), /*seed=*/41);
    const auto queries = gen.batch(kind, 10);
    for (const double mbps : {2.0, 11.0}) {
      for (const bool data_at_client : {true, false}) {
        for (const std::uint32_t batch_size : {4u, 128u}) {
          core::SessionConfig cfg = config(core::Scheme::FilterClientRefineServer);
          cfg.channel.bandwidth_mbps = mbps;
          cfg.placement.data_at_client = data_at_client;
          core::PipelinedSession pipe(data(), cfg, {batch_size});
          for (const rtree::Query& q : queries) pipe.run_query(q);
          mix_outcome(h, pipe.outcome());
          h.mix(std::uint64_t{pipe.batches()});
          batches += pipe.batches();
        }
      }
    }
  }
  // A window outside the extent: nothing to refine, the query stays local.
  core::PipelinedSession empty(data(), config(core::Scheme::FilterClientRefineServer), {});
  empty.run_query(rtree::RangeQuery{{{-10, -10}, {-9, -9}}});
  const stats::Outcome o = empty.outcome();
  mix_outcome(h, o);
  EXPECT_EQ(o.bytes_tx, 0u);
  EXPECT_GT(o.cycles.processor, 0u);
  EXPECT_GT(batches, 0u);

  EXPECT_EQ(h.value(), 0xe72dec67c1b954adull) << "0x" << std::hex << h.value() << "ull";
}

/// Mixes one planner prediction into `h`.
void mix_prediction(perf::ConfigHasher& h, const core::SchemePrediction& p) {
  h.mix(static_cast<std::uint64_t>(p.scheme))
      .mix(p.energy_j)
      .mix(p.latency_s)
      .mix(p.est_candidates)
      .mix(p.est_answers);
}

/// Golden values for the Section 4.1 planner and the battery-aware
/// scheduler that scores its options.  Their own suites check only
/// which scheme wins, so only this test holds the predictions, the
/// estimation work charged for them and an adaptive batch.  It covers
/// every scheme on every query kind at two bandwidths, two distances
/// and both placements; each point of the DVFS ladder; both objectives
/// with the data at the client; and scheduler choices over a charge
/// sweep with both placements.  The value was recorded while the
/// planner still read a private copy of six SessionConfig fields.
TEST(Determinism, PlannerMatchesGoldenValues) {
  using core::Scheme;
  const Scheme schemes[] = {Scheme::FullyAtClient, Scheme::FullyAtServer,
                            Scheme::FilterClientRefineServer, Scheme::FilterServerRefineClient};
  workload::QueryGen gen(data(), /*seed=*/37);
  std::vector<rtree::Query> queries;
  for (const rtree::QueryKind kind : {rtree::QueryKind::Point, rtree::QueryKind::Range,
                                      rtree::QueryKind::NN, rtree::QueryKind::Knn,
                                      rtree::QueryKind::Route}) {
    for (const rtree::Query& q : gen.batch(kind, 4)) queries.push_back(q);
  }
  perf::ConfigHasher h;
  auto mix_charge = [&h](const rtree::CountingHooks& c) {
    h.mix(c.mix().alu).mix(c.mix().mul).mix(c.mix().branch).mix(c.bytes_read());
  };

  for (const double mbps : {2.0, 11.0}) {
    for (const double distance_m : {100.0, 1000.0}) {
      for (const bool at_client : {true, false}) {
        core::SessionConfig cfg = config(Scheme::FullyAtClient);
        cfg.channel = {mbps, distance_m};
        cfg.placement.data_at_client = at_client;
        const core::Planner planner(data(), cfg);
        for (const rtree::Query& q : queries) {
          for (const Scheme s : schemes) mix_prediction(h, planner.predict(s, q));
        }
        if (!at_client) continue;
        rtree::CountingHooks charge;
        for (const rtree::Query& q : queries) {
          for (const core::Objective o : {core::Objective::Energy, core::Objective::Latency}) {
            h.mix(static_cast<std::uint64_t>(planner.choose(q, o, charge)));
          }
        }
        mix_charge(charge);
      }
    }
  }

  for (const sim::OperatingPoint& opp : sim::default_opp_ladder()) {
    core::SessionConfig cfg = config(Scheme::FullyAtClient);
    cfg.client = sim::client_at_opp(opp);
    const core::Planner planner(data(), cfg);
    for (const rtree::Query& q : queries) {
      for (const Scheme s : schemes) mix_prediction(h, planner.predict(s, q));
    }
  }

  core::SchedulerConfig sc;
  sc.enabled = true;
  for (const bool at_client : {true, false}) {
    core::SessionConfig cfg = config(Scheme::FullyAtServer);
    cfg.placement.data_at_client = at_client;
    core::BatteryScheduler sched(data(), cfg, sc, 2);
    sched.admit(0, false, 1.0, 10.0);
    sched.admit(1, false, 1.0, 10.0);
    sched.observe_draw(1, 0.5, 1.0);  // dead in 20 s at full charge
    rtree::CountingHooks charge;
    for (int step = 20; step >= 0; --step) {
      for (std::uint32_t k = 0; k < 2; ++k) {
        sched.report_charge(k, step / 20.0);
        h.mix(sched.client_work_bias(k));
        for (const rtree::Query& q : queries) {
          h.mix(static_cast<std::uint64_t>(sched.choose(k, q, charge)));
        }
      }
    }
    mix_charge(charge);
  }

  core::AdaptiveSession adaptive(data(), config(Scheme::FullyAtClient), core::Objective::Energy);
  for (const rtree::Query& q : queries) adaptive.run_query(q);
  mix_outcome(h, adaptive.outcome());
  for (const std::uint32_t c : adaptive.choices()) h.mix(std::uint64_t{c});

  EXPECT_EQ(h.value(), 0x66259307fba591baull) << "0x" << std::hex << h.value() << "ull";
}

/// ExecHooks that fold every event, in order, into an FNV-1a digest;
/// query results are mixed into the same digest.
struct DigestHooks final : rtree::ExecHooks {
  perf::ConfigHasher h;
  void instr(const rtree::InstrMix& m) override {
    h.mix(std::uint64_t{0}).mix(m.alu).mix(m.mul).mix(m.branch);
  }
  void read(std::uint64_t addr, std::uint32_t bytes) override {
    h.mix(std::uint64_t{1}).mix(addr).mix(std::uint64_t{bytes});
  }
  void write(std::uint64_t addr, std::uint32_t bytes) override {
    h.mix(std::uint64_t{2}).mix(addr).mix(std::uint64_t{bytes});
  }
  void mix(const rtree::NNResult& r) {
    h.mix(std::uint64_t{r.record}).mix(std::uint64_t{r.id}).mix(r.dist);
  }
};

struct IndexQueries {
  std::vector<geom::Point> points;
  std::vector<geom::Rect> windows;
  std::vector<geom::Point> nn;
  std::vector<rtree::KnnQuery> knn;
};

/// Point, range, NN and kNN digests of one index over `q`.
template <typename Index>
std::array<std::uint64_t, 4> index_digests(const Index& t, const rtree::SegmentStore& store,
                                           const IndexQueries& q) {
  DigestHooks point, range, nn, knn;
  std::vector<std::uint32_t> out;
  for (const geom::Point& p : q.points) {
    out.clear();
    t.filter_point(p, point, out);
    for (const std::uint32_t r : out) point.h.mix(std::uint64_t{r});
  }
  for (const geom::Rect& w : q.windows) {
    out.clear();
    t.filter_range(w, range, out);
    for (const std::uint32_t r : out) range.h.mix(std::uint64_t{r});
  }
  for (const geom::Point& p : q.nn) {
    const std::optional<rtree::NNResult> r = t.nearest(p, store, nn);
    if (r) nn.mix(*r);
  }
  for (const rtree::KnnQuery& k : q.knn) {
    for (const rtree::NNResult& r : t.nearest_k(k.p, k.k, store, knn)) knn.mix(r);
  }
  return {point.h.value(), range.h.value(), nn.h.value(), knn.h.value()};
}

/// Golden cost streams for every index structure.  No other test pins
/// what the five secondary structures charge: their own tests check
/// only that work is positive or that one tree does less than another,
/// and ext_index_structures prints it to four significant digits.  The
/// digests were recorded before the R-trees shared one filter DFS and
/// one best-first k-NN; a traversal rewrite must leave them unchanged.
TEST(Determinism, IndexCostStreamsMatchGoldenValues) {
  const workload::Dataset d = workload::make_pa(4000);
  workload::QueryGen gen(d, /*seed=*/23);
  IndexQueries q;
  for (const rtree::Query& x : gen.batch(rtree::QueryKind::Point, 40)) {
    q.points.push_back(std::get<rtree::PointQuery>(x).p);
  }
  for (const rtree::Query& x : gen.batch(rtree::QueryKind::Range, 20)) {
    q.windows.push_back(std::get<rtree::RangeQuery>(x).window);
  }
  for (const rtree::Query& x : gen.batch(rtree::QueryKind::NN, 40)) {
    q.nn.push_back(std::get<rtree::NNQuery>(x).p);
  }
  for (const rtree::Query& x : gen.knn_batch(20, 8)) {
    q.knn.push_back(std::get<rtree::KnnQuery>(x));
  }

  const rtree::SegmentStore empty;
  struct Golden {
    const char* index;
    std::array<std::uint64_t, 4> actual;
    std::array<std::uint64_t, 4> expected;
  };
  const std::uint64_t nothing = perf::ConfigHasher{}.value();
  const std::array<std::uint64_t, 4> none = {nothing, nothing, nothing, nothing};
  const Golden golden[] = {
      {"packed", index_digests(d.tree, d.store, q),
       {0x62d09e3f006c1c97ull, 0x9741d1c751643c70ull, 0xe029b89a8ecf721full,
        0xb03f3b3f44582965ull}},
      {"guttman", index_digests(rtree::DynamicRTree::build(d.store), d.store, q),
       {0xafdd28478af0444bull, 0x39e613b3ac0c3a95ull, 0x73df9982cb81bd96ull,
        0x7071e7de261fe3b4ull}},
      {"rstar", index_digests(rtree::RStarTree::build(d.store), d.store, q),
       {0x2bfb81faf2f4e7abull, 0xf9f2dcbf232f31b8ull, 0x551741628520a2bbull,
        0xf91e013c92cbe6acull}},
      {"hilbert", index_digests(rtree::HilbertRTree::build(d.store), d.store, q),
       {0x2b2ba97f670d380aull, 0xebe06ade8061aeb8ull, 0x2ed35872b1c15532ull,
        0x6cc9e8d22a8b7d35ull}},
      {"pmr", index_digests(rtree::PmrQuadtree::build(d.store), d.store, q),
       {0x17142093c1588d90ull, 0xfc4908fd68be33f5ull, 0xfad099842810602aull,
        0xe3a73bb5715e689cull}},
      {"buddy", index_digests(rtree::BuddyTree::build(d.store), d.store, q),
       {0x51e97a2053bb42caull, 0x697a494ef315c5e1ull, 0x8d2f3107021c2e22ull,
        0x1b5baf81d974c9b3ull}},
      // An empty tree charges nothing and answers nothing.
      {"guttman-empty", index_digests(rtree::DynamicRTree{}, empty, q), none},
      {"rstar-empty", index_digests(rtree::RStarTree{}, empty, q), none},
      {"hilbert-empty", index_digests(rtree::HilbertRTree::build(empty), empty, q), none},
  };
  const char* kinds[] = {"point", "range", "nn", "knn"};
  for (const Golden& g : golden) {
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(g.actual[k], g.expected[k])
          << g.index << " " << kinds[k] << ": 0x" << std::hex << g.actual[k] << "ull";
    }
  }

  // Route filtering runs the packed tree's DFS with a per-leg predicate.
  DigestHooks route;
  std::vector<std::uint32_t> out;
  for (const rtree::Query& x : gen.batch(rtree::QueryKind::Route, 10)) {
    const rtree::RouteQuery& r = std::get<rtree::RouteQuery>(x);
    std::vector<geom::Segment> legs;
    for (std::size_t i = 0; i < r.legs(); ++i) legs.push_back(r.leg(i));
    out.clear();
    d.tree.filter_route(legs, route, out);
    for (const std::uint32_t rec : out) route.h.mix(std::uint64_t{rec});
  }
  EXPECT_EQ(route.h.value(), 0x74021d1e09b9a9d9ull)
      << "route: 0x" << std::hex << route.h.value() << "ull";
}

/// Faulty-link runs: the seeded loss process, timeout/backoff stalls,
/// retransmission energy, and degraded-query fallbacks must all replay
/// bit-identically — the fault RNG is consumed strictly in simulation
/// order and nothing reads a wall clock.
TEST(Determinism, FaultyLinkBatchesBitIdentical) {
  using core::Scheme;
  for (const Scheme s : {Scheme::FullyAtServer, Scheme::FilterServerRefineClient}) {
    auto run = [&] {
      workload::QueryGen gen(data(), /*seed=*/13);
      const auto queries = gen.batch(rtree::QueryKind::Range, 25);
      core::SessionConfig cfg = config(s);
      cfg.fault = net::bursty_loss_config(0.3, /*seed=*/5);
      cfg.fault.outage_rate_per_s = 1.0;
      cfg.fault.outage_duration_s = 0.01;
      cfg.retry.retry_budget = 3;
      obs::TraceSink trace;
      RunResult r;
      r.outcome = core::Session::run_batch(data(), cfg, queries, &trace);
      std::ostringstream tj;
      obs::write_chrome_trace(tj, trace);
      r.trace_json = tj.str();
      std::ostringstream mc;
      obs::write_metrics(mc, trace, &r.outcome);
      r.metrics_csv = mc.str();
      return r;
    };
    const RunResult a = run();
    const RunResult b = run();
    expect_bit_identical(a.outcome, b.outcome);
    EXPECT_GT(a.outcome.retransmissions + a.outcome.timeouts, 0u);
    EXPECT_EQ(a.trace_json, b.trace_json);
    EXPECT_EQ(a.metrics_csv, b.metrics_csv);
  }
}

/// FNV-1a over every FleetOutcome field, as bits for the doubles, the
/// death log and the per-client energies included.
std::uint64_t fleet_digest(const core::FleetOutcome& o) {
  perf::ConfigHasher h;
  h.mix(o.makespan_s)
      .mix(o.mean_latency_s)
      .mix(o.p95_latency_s)
      .mix(o.mean_client_energy_j)
      .mix(o.medium_utilization)
      .mix(o.server_utilization)
      .mix(o.answers)
      .mix(std::uint64_t{o.queries_degraded})
      .mix(std::uint64_t{o.queries_failed})
      .mix(o.retransmissions)
      .mix(o.timeouts)
      .mix(o.wasted_tx_j)
      .mix(o.wasted_rx_j)
      .mix(std::uint64_t{o.clients_alive})
      .mix(o.units_total)
      .mix(o.units_answered)
      .mix(o.units_lost)
      .mix(o.duplicate_answers)
      .mix(o.reassignments)
      .mix(o.energy_fairness)
      .mix(o.answer_completeness);
  for (const core::ClientDeath& d : o.deaths) {
    h.mix(d.time_s)
        .mix(std::uint64_t{d.client})
        .mix(std::uint64_t{d.cause == core::DeathCause::Battery});
  }
  for (const double j : o.client_energy_j) h.mix(j);
  return h.value();
}

/// Three small fleets with the robustness stack on — heterogeneous
/// batteries draining per leg, scheduled churn killing clients,
/// replicated units racing to first answer, reassignment after timeout
/// detection, and (per scenario) the battery-aware scheduler, a bursty
/// lossy link with its retry ladder, and Zipf hotspots — each replayed
/// twice must agree bit for bit on every FleetOutcome field (every
/// death time and per-client joule total), every trace byte and every
/// metrics byte.  The fault RNGs are pure functions of (seed, client)
/// and the event heap breaks time ties deterministically.  Each
/// scenario's digest also pins the simulated numbers themselves; the
/// values were recorded when the fleet began running Session's Table-1
/// executor.
TEST(Determinism, FleetScenariosBitIdentical) {
  struct Scenario {
    const char* label;
    core::SessionConfig cfg;
    core::FleetConfig fleet;
    std::uint64_t digest;
  };
  std::vector<Scenario> scenarios;
  {
    // 1. The full robustness stack: batteries, churn, replication 2,
    // battery-aware scheduler.
    Scenario s{"robust-stack", config(core::Scheme::FullyAtServer), {}, 0x124125870b6a4ff8ull};
    s.fleet.clients = 8;
    s.fleet.queries_per_client = 8;
    s.fleet.think_time_s = 0.3;
    s.fleet.battery.enabled = true;
    s.fleet.battery.pack.capacity_mah = 0.1;
    s.fleet.battery.min_initial_charge = 0.02;
    s.fleet.battery.max_initial_charge = 0.2;
    s.fleet.churn.departure_rate_per_s = 0.12;
    s.fleet.churn.seed = 7;
    s.fleet.replication = 2;
    s.fleet.scheduler.enabled = true;
    scenarios.push_back(std::move(s));
  }
  {
    // 2. Link faults on top of client faults: the bursty-loss RNG, the
    // retry ladder, and degraded/failed exchanges must replay in the
    // same order.
    Scenario s{"link-faults", config(core::Scheme::FilterServerRefineClient), {},
               0x7c8dc9a583f278a6ull};
    s.cfg.fault = net::bursty_loss_config(0.3, /*seed=*/5);
    s.cfg.retry.retry_budget = 3;
    s.fleet.clients = 6;
    s.fleet.queries_per_client = 12;
    s.fleet.think_time_s = 0.6;
    s.fleet.battery.enabled = true;
    s.fleet.battery.pack.capacity_mah = 0.05;
    s.fleet.battery.min_initial_charge = 0.02;
    s.fleet.battery.max_initial_charge = 0.2;
    s.fleet.battery.plugged_fraction = 0.25;
    s.fleet.churn.departure_rate_per_s = 0.15;
    s.fleet.churn.seed = 3;
    s.fleet.replication = 3;
    scenarios.push_back(std::move(s));
  }
  {
    // 3. Zipf hotspots with churn + replication: the shared-stream
    // draw happens at setup, before any event runs.
    Scenario s{"zipf-hotspots", config(core::Scheme::FullyAtServer), {}, 0x09889598a9772b24ull};
    s.fleet.clients = 12;
    s.fleet.queries_per_client = 4;
    s.fleet.think_time_s = 0.15;
    s.fleet.hotspots = 4;
    s.fleet.zipf_theta = 1.0;
    s.fleet.battery.enabled = true;
    s.fleet.battery.pack.capacity_mah = 0.12;
    s.fleet.battery.min_initial_charge = 0.03;
    s.fleet.battery.max_initial_charge = 0.25;
    s.fleet.churn.departure_rate_per_s = 0.1;
    s.fleet.churn.seed = 11;
    s.fleet.replication = 2;
    scenarios.push_back(std::move(s));
  }

  for (Scenario& s : scenarios) {
    auto run = [&] {
      obs::TraceSink trace;
      core::FleetConfig fleet = s.fleet;
      fleet.trace = &trace;
      RunResult r;
      const core::FleetOutcome o = core::run_fleet(data(), s.cfg, fleet);
      std::ostringstream tj;
      obs::write_chrome_trace(tj, trace);
      r.trace_json = tj.str();
      std::ostringstream mc;
      obs::write_metrics(mc, trace, nullptr);
      r.metrics_csv = mc.str();
      return std::pair<core::FleetOutcome, RunResult>(o, std::move(r));
    };
    const auto [a_out, a_run] = run();
    const auto [b_out, b_run] = run();
    SCOPED_TRACE(s.label);
    expect_fleet_bit_identical(a_out, b_out);
    EXPECT_EQ(a_run.trace_json, b_run.trace_json);
    EXPECT_EQ(a_run.metrics_csv, b_run.metrics_csv);
    // The scenario exercises what it claims to pin.
    EXPECT_GT(a_out.deaths.size(), 0u) << s.label;
    EXPECT_GT(a_out.units_total, 0u) << s.label;
    EXPECT_EQ(fleet_digest(a_out), s.digest) << s.label;
  }
}

/// A cache-held build must be indistinguishable from a direct
/// make_pa(): the memoization layer may never change the artifact.
TEST(Determinism, BuildCacheMatchesDirectBuild) {
  const workload::Dataset direct = workload::make_pa(20000);
  const workload::Dataset& cached = data();
  ASSERT_EQ(direct.store.size(), cached.store.size());
  EXPECT_EQ(direct.tree.node_count(), cached.tree.node_count());
  EXPECT_EQ(direct.tree.height(), cached.tree.height());
  for (std::uint32_t i = 0; i < direct.store.size(); i += 997) {
    expect_bits(direct.store.segment(i).a.x, cached.store.segment(i).a.x, "segment.a.x");
    expect_bits(direct.store.segment(i).b.y, cached.store.segment(i).b.y, "segment.b.y");
  }
}

/// One figure harness end-to-end (ISSUE 5 acceptance): the full
/// bench::run_sweep table — thread pool fan-out, cached dataset,
/// every adequate-memory scheme variant across the bandwidth axis —
/// printed twice must be byte-identical.
TEST(Determinism, FigureSweepByteIdentical) {
  workload::QueryGen gen(data(), /*seed=*/17);
  const auto queries = gen.batch(rtree::QueryKind::Range, 10);
  auto run = [&] {
    std::ostringstream os;
    bench::run_sweep(data(), queries, /*hybrids=*/true, 1.0 / 8.0, 1000.0, os);
    return os.str();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mosaiq
