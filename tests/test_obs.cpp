// Observability layer (obs/): span nesting, counter aggregation, Chrome
// trace_event JSON well-formedness, and the conservation oracle — the
// per-phase spans recorded during a run must reconcile exactly with the
// cumulative stats::Outcome, for every scheme, for the caching client,
// and for the fleet simulator.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "core/adaptive_session.hpp"
#include "core/caching_client.hpp"
#include "core/fleet.hpp"
#include "core/session.hpp"
#include "net/fault.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "outcome_bits.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::obs {
namespace {

// --- a minimal JSON syntax checker (values, objects, arrays) -----------

struct JsonChecker {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool string() {
    ws();
    if (i >= s.size() || s[i] != '"') return false;
    for (++i; i < s.size(); ++i) {
      if (s[i] == '\\') {
        ++i;
        continue;
      }
      if (s[i] == '"') {
        ++i;
        return true;
      }
    }
    return false;
  }
  bool number() {
    ws();
    const std::size_t start = i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
                            s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E')) {
      ++i;
    }
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    if (s[i] == '{') return object();
    if (s[i] == '[') return array();
    if (s[i] == '"') return string();
    if (s.compare(i, 4, "true") == 0) return i += 4, true;
    if (s.compare(i, 5, "false") == 0) return i += 5, true;
    if (s.compare(i, 4, "null") == 0) return i += 4, true;
    return number();
  }
  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool document() {
    if (!value()) return false;
    ws();
    return i == s.size();
  }
};

bool valid_json(const std::string& text) {
  JsonChecker c{text};
  return c.document();
}

// --- fixtures ----------------------------------------------------------

const workload::Dataset& data() {
  static workload::Dataset d = workload::make_pa(20000);
  return d;
}

core::SessionConfig config(core::Scheme s, bool at_client = true) {
  core::SessionConfig cfg;
  cfg.scheme = s;
  cfg.placement.data_at_client = at_client;
  cfg.channel = {4.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  return cfg;
}

// --- TraceSink basics --------------------------------------------------

TEST(TraceSink, SpanNestingDepths) {
  TraceSink t;
  t.begin("outer", 0.0);
  EXPECT_EQ(t.open_depth(), 1u);
  t.begin("inner", 1.0);
  EXPECT_EQ(t.open_depth(), 2u);
  t.phase("leaf", 1.0, 2.0, 0.5, 100);
  t.end(3.0);  // inner
  t.end(4.0);  // outer
  EXPECT_EQ(t.open_depth(), 0u);

  ASSERT_EQ(t.spans().size(), 3u);
  const Span& leaf = t.spans()[0];
  EXPECT_EQ(leaf.name, "leaf");
  EXPECT_EQ(leaf.depth, 2u);  // recorded under outer+inner
  EXPECT_EQ(leaf.category, SpanCategory::Phase);
  const Span& inner = t.spans()[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner.category, SpanCategory::Wrapper);
  const Span& outer = t.spans()[2];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_DOUBLE_EQ(outer.start_s, 0.0);
  EXPECT_DOUBLE_EQ(outer.end_s, 4.0);
}

TEST(TraceSink, TracksNestIndependently) {
  TraceSink t;
  t.begin("a", 0.0, /*track=*/0);
  t.begin("b", 0.0, /*track=*/1);
  EXPECT_EQ(t.open_depth(0), 1u);
  EXPECT_EQ(t.open_depth(1), 1u);
  t.end(1.0, /*track=*/0);
  EXPECT_EQ(t.open_depth(0), 0u);
  EXPECT_EQ(t.open_depth(1), 1u);
  t.end(2.0, /*track=*/1);
  EXPECT_EQ(t.spans()[0].name, "a");
  EXPECT_EQ(t.spans()[1].name, "b");
}

TEST(TraceSink, EndWithoutBeginThrows) {
  TraceSink t;
  EXPECT_THROW(t.end(1.0), std::logic_error);
  t.begin("only-track-0", 0.0, 0);
  EXPECT_THROW(t.end(1.0, /*track=*/7), std::logic_error);
}

TEST(TraceSink, CounterAggregation) {
  TraceSink t;
  t.counter("round-trips", 1);
  t.counter("round-trips", 1);
  t.counter("bytes-tx", 1500);
  t.counter("bytes-tx", 40);
  EXPECT_DOUBLE_EQ(t.counters().at("round-trips"), 2.0);
  EXPECT_DOUBLE_EQ(t.counters().at("bytes-tx"), 1540.0);
}

TEST(Metrics, AggregatesPhasesNotWrappers) {
  TraceSink t;
  t.begin("query", 0.0);
  t.phase("tx", 0.0, 1.0, 2.0, 10);
  t.phase("tx", 1.0, 3.0, 4.0, 20);
  t.phase("rx", 3.0, 4.0, 1.0, 5);
  t.end(4.0);
  const auto agg = aggregate_phases(t);
  ASSERT_EQ(agg.size(), 2u);  // "query" wrapper excluded
  EXPECT_DOUBLE_EQ(agg.at("tx").seconds, 3.0);
  EXPECT_DOUBLE_EQ(agg.at("tx").joules, 6.0);
  EXPECT_EQ(agg.at("tx").cycles, 30u);
  EXPECT_EQ(agg.at("tx").count, 2u);
  EXPECT_EQ(agg.at("rx").count, 1u);
}

// --- Chrome JSON -------------------------------------------------------

TEST(ChromeTrace, WellFormedJson) {
  TraceSink t;
  t.begin("query \"quoted\"\n", 0.0);  // exercises escaping
  t.phase("tx", 0.0, 1e-3, 1e-4, 1234);
  t.phase("server-wait", 1e-3, 2e-3, 2e-4, 0, /*track=*/1);
  t.end(2e-3);
  t.counter("round-trips", 1);

  std::ostringstream os;
  write_chrome_trace(os, t, "unit \\ test");
  const std::string json = os.str();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(ChromeTrace, EmptyAndMultiSink) {
  TraceSink empty;
  TraceSink full;
  full.phase("tx", 0.0, 1.0);
  const NamedTrace traces[] = {{"empty", &empty}, {"full", &full}, {"null", nullptr}};
  std::ostringstream os;
  write_chrome_trace(os, traces);
  EXPECT_TRUE(valid_json(os.str())) << os.str();
}

TEST(ChromeTrace, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\001b", 3)), "a\\u0001b");
}

// --- conservation oracle ----------------------------------------------

struct SchemeCase {
  core::Scheme scheme;
  rtree::QueryKind kind;
  bool data_at_client;
};

class ObsConservation : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(ObsConservation, TraceReconcilesWithOutcome) {
  const SchemeCase c = GetParam();
  workload::QueryGen gen(data(), 77);
  const auto queries = gen.batch(c.kind, 8);

  TraceSink trace;
  core::Session s(data(), config(c.scheme, c.data_at_client));
  s.set_trace(&trace);
  for (const auto& q : queries) s.run_query(q);
  const stats::Outcome o = s.outcome();

  const Reconciliation r = reconcile(trace, o);
  EXPECT_NEAR(r.trace_joules, o.energy.total_j(), 1e-9);
  EXPECT_NEAR(r.trace_seconds, o.wall_seconds, 1e-9);
  EXPECT_EQ(r.trace_cycles, o.cycles.total());
  EXPECT_TRUE(r.ok());

  // Every query contributed one wrapper span, and all wrappers closed.
  std::size_t wrappers = 0;
  for (const Span& sp : trace.spans()) {
    EXPECT_GE(sp.end_s, sp.start_s);
    if (sp.category == SpanCategory::Wrapper) ++wrappers;
  }
  EXPECT_EQ(wrappers, queries.size());
  EXPECT_EQ(trace.open_depth(), 0u);

  if (c.scheme != core::Scheme::FullyAtClient) {
    // Remote schemes must show every Figure-1 phase.
    const auto agg = aggregate_phases(trace);
    for (const char* phase :
         {"protocol-tx", "sleep-exit", "tx", "server-wait", "rx", "protocol-rx"}) {
      ASSERT_TRUE(agg.contains(phase)) << phase;
      EXPECT_EQ(agg.at(phase).count, queries.size()) << phase;
    }
    EXPECT_DOUBLE_EQ(trace.counters().at("round-trips"),
                     static_cast<double>(queries.size()));
    EXPECT_DOUBLE_EQ(trace.counters().at("bytes-tx"), static_cast<double>(o.bytes_tx));
    EXPECT_DOUBLE_EQ(trace.counters().at("bytes-rx"), static_cast<double>(o.bytes_rx));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ObsConservation,
    ::testing::Values(
        SchemeCase{core::Scheme::FullyAtClient, rtree::QueryKind::Range, true},
        SchemeCase{core::Scheme::FullyAtClient, rtree::QueryKind::NN, true},
        SchemeCase{core::Scheme::FullyAtServer, rtree::QueryKind::Range, true},
        SchemeCase{core::Scheme::FullyAtServer, rtree::QueryKind::Range, false},
        SchemeCase{core::Scheme::FullyAtServer, rtree::QueryKind::Knn, true},
        SchemeCase{core::Scheme::FilterClientRefineServer, rtree::QueryKind::Range, true},
        SchemeCase{core::Scheme::FilterClientRefineServer, rtree::QueryKind::Point, false},
        SchemeCase{core::Scheme::FilterServerRefineClient, rtree::QueryKind::Range, true},
        SchemeCase{core::Scheme::FilterServerRefineClient, rtree::QueryKind::Route, true}));

TEST(ObsConservation, TracingDoesNotChangeTheNumbers) {
  // A sink only watches.  Every Outcome field of every Table-1 cell
  // Session accepts must be bit-identical with and without one attached,
  // on a clean link and on a lossy one (retransmissions, stalls and
  // degraded reruns included).
  workload::QueryGen gen(data(), 78);
  for (const bool lossy : {false, true}) {
    for (const double mbps : {2.0, 11.0}) {
      for (const rtree::QueryKind kind :
           {rtree::QueryKind::Point, rtree::QueryKind::Range, rtree::QueryKind::NN,
            rtree::QueryKind::Knn, rtree::QueryKind::Route}) {
        const auto queries = gen.batch(kind, 20);
        const bool nn = kind == rtree::QueryKind::NN || kind == rtree::QueryKind::Knn;
        for (const core::Scheme s :
             {core::Scheme::FullyAtClient, core::Scheme::FullyAtServer,
              core::Scheme::FilterClientRefineServer, core::Scheme::FilterServerRefineClient}) {
          if (nn && (s == core::Scheme::FilterClientRefineServer ||
                     s == core::Scheme::FilterServerRefineClient)) {
            continue;
          }
          for (const bool at_client : {true, false}) {
            core::SessionConfig cfg = config(s, at_client);
            cfg.channel.bandwidth_mbps = mbps;
            if (lossy) cfg.fault = net::bursty_loss_config(0.1, /*seed=*/5);
            const stats::Outcome plain = core::Session::run_batch(data(), cfg, queries);
            TraceSink trace;
            const stats::Outcome traced = core::Session::run_batch(data(), cfg, queries, &trace);
            SCOPED_TRACE(std::string(lossy ? "lossy " : "clean ") + std::to_string(mbps) +
                         " Mbps " + rtree::name_of(kind) + " " + core::name_of(s) +
                         (at_client ? " data@client" : " data@server"));
            test_support::expect_bit_identical(plain, traced);
          }
        }
      }
    }
    // The adaptive planner's estimate is client compute pending when a
    // query starts; it must settle the same way with a sink attached.
    const auto mixed = gen.batch(rtree::QueryKind::Range, 20);
    auto adaptive = [&](TraceSink* trace) {
      core::SessionConfig cfg = config(core::Scheme::FullyAtClient);
      if (lossy) cfg.fault = net::bursty_loss_config(0.1, /*seed=*/5);
      core::AdaptiveSession s(data(), cfg, core::Objective::Latency);
      s.set_trace(trace);
      for (const auto& q : mixed) s.run_query(q);
      return s.outcome();
    };
    TraceSink trace;
    SCOPED_TRACE(lossy ? "lossy adaptive" : "clean adaptive");
    test_support::expect_bit_identical(adaptive(nullptr), adaptive(&trace));
  }
}

TEST(ObsConservation, CachingClientReconciles) {
  workload::QueryGen gen(data(), 79);
  core::CachingConfig caching;
  caching.budget_bytes = 256u << 10;

  TraceSink trace;
  core::CachingClient cc(data(), config(core::Scheme::FullyAtClient), caching);
  cc.set_trace(&trace);
  geom::Point center = data().extent.center();
  for (int i = 0; i < 6; ++i) {
    cc.run_query(gen.range_query_near(center, 0.0, 1e-3, 1e-3));
  }
  const stats::Outcome o = cc.outcome();

  const Reconciliation r = reconcile(trace, o);
  EXPECT_TRUE(r.ok()) << "energy err " << r.energy_error_j() << " wall err "
                      << r.wall_error_s();
  EXPECT_DOUBLE_EQ(trace.counters().at("cache-fetches"), static_cast<double>(cc.fetches()));
  EXPECT_DOUBLE_EQ(trace.counters().at("cache-local-hits"),
                   static_cast<double>(cc.local_hits()));
  EXPECT_GT(cc.local_hits(), 0u);  // tight cluster: the cache must hit
}

TEST(ObsFleet, EmitsStageSpansAndQueueCounters) {
  core::FleetConfig fleet;
  fleet.clients = 4;
  fleet.queries_per_client = 3;
  fleet.think_time_s = 0.05;
  TraceSink trace;
  fleet.trace = &trace;

  auto cfg = config(core::Scheme::FullyAtServer);
  const core::FleetOutcome out = core::run_fleet(data(), cfg, fleet);
  EXPECT_GT(out.answers, 0u);

  ASSERT_FALSE(trace.spans().empty());
  bool saw[4] = {false, false, false, false};
  double total_j = 0;
  for (const Span& sp : trace.spans()) {
    EXPECT_GE(sp.duration_s(), 0.0);
    ASSERT_LT(sp.track, fleet.clients);
    saw[sp.track] = true;
    total_j += sp.joules;
  }
  for (const bool b : saw) EXPECT_TRUE(b);  // every client has a timeline

  const auto agg = aggregate_phases(trace);
  for (const char* phase : {"w1-compute", "tx", "server-work", "rx", "w3-unpack"}) {
    EXPECT_TRUE(agg.contains(phase)) << phase;
  }
  EXPECT_TRUE(trace.counters().contains("medium-wait-s"));
  EXPECT_TRUE(trace.counters().contains("server-queue-wait-s"));

  // Fleet spans carry each client's full energy: their sum matches the
  // per-client average the outcome reports.
  EXPECT_NEAR(total_j, out.mean_client_energy_j * fleet.clients, 1e-9);
}

TEST(Metrics, WriteMetricsEmitsReconcileFooter) {
  workload::QueryGen gen(data(), 80);
  const auto queries = gen.batch(rtree::QueryKind::Range, 4);
  TraceSink trace;
  const stats::Outcome o =
      core::Session::run_batch(data(), config(core::Scheme::FullyAtServer), queries, &trace);

  std::ostringstream os;
  write_metrics(os, trace, &o);
  const std::string text = os.str();
  EXPECT_NE(text.find("phase,spans,seconds,joules,cycles"), std::string::npos) << text;
  EXPECT_NE(text.find("reconcile,ok,1"), std::string::npos) << text;
}

}  // namespace
}  // namespace mosaiq::obs
