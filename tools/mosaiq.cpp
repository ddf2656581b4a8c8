// mosaiq — command-line driver for the work-partitioning simulator.
//
//   mosaiq dataset --dataset pa                  dataset/index statistics
//   mosaiq run --query range --scheme server ... one configuration, one row
//   mosaiq sweep --query range ...               scheme x bandwidth table
//   mosaiq fleet --clients 1,4,16 ...            multi-client fleet table
//   mosaiq advise --bandwidth 4 ...              planner recommendations
//
// Every experiment the figure benches run can be reproduced (and varied)
// from here without recompiling.
#include <iostream>
#include <sstream>

#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "cli/args.hpp"
#include "core/adaptive_session.hpp"
#include "core/fleet.hpp"
#include "core/query_exec.hpp"
#include "core/session.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "stats/recorder.hpp"
#include "stats/table.hpp"
#include "workload/query_gen.hpp"
#include "workload/trace.hpp"

using namespace mosaiq;

namespace {

workload::Dataset load_dataset(const std::string& name, std::uint32_t segments) {
  if (name == "pa") return workload::make_pa(segments > 0 ? segments : 139006);
  if (name == "nyc") return workload::make_nyc(segments > 0 ? segments : 38778);
  throw std::invalid_argument("unknown dataset '" + name + "' (expected pa|nyc)");
}

rtree::QueryKind parse_query_kind(const std::string& s) {
  if (s == "point") return rtree::QueryKind::Point;
  if (s == "range") return rtree::QueryKind::Range;
  if (s == "nn") return rtree::QueryKind::NN;
  if (s == "knn") return rtree::QueryKind::Knn;
  if (s == "route") return rtree::QueryKind::Route;
  throw std::invalid_argument("unknown query kind '" + s +
                              "' (expected point|range|nn|knn|route)");
}

core::Scheme parse_scheme(const std::string& s) {
  if (s == "client") return core::Scheme::FullyAtClient;
  if (s == "server") return core::Scheme::FullyAtServer;
  if (s == "filter-client") return core::Scheme::FilterClientRefineServer;
  if (s == "filter-server") return core::Scheme::FilterServerRefineClient;
  throw std::invalid_argument("unknown scheme '" + s +
                              "' (expected client|server|filter-client|filter-server)");
}

sim::WaitPolicy parse_wait(const std::string& s) {
  if (s == "poll") return sim::WaitPolicy::BusyPoll;
  if (s == "block") return sim::WaitPolicy::Block;
  if (s == "lowpower") return sim::WaitPolicy::BlockLowPower;
  throw std::invalid_argument("unknown wait policy '" + s + "' (expected poll|block|lowpower)");
}

net::LossModel parse_loss_model(const std::string& s) {
  if (s == "none") return net::LossModel::None;
  if (s == "ber") return net::LossModel::IndependentBer;
  if (s == "gilbert") return net::LossModel::GilbertElliott;
  throw std::invalid_argument("unknown loss model '" + s + "' (expected none|ber|gilbert)");
}

void add_common_options(cli::ArgParser& p) {
  cli::add_observability_options(p);
  p.option("dataset", "dataset: pa|nyc", "pa")
      .option("segments", "override dataset cardinality (0 = paper size)", "0")
      .option("query", "query kind: point|range|nn|knn|route", "range")
      .option("n", "queries per batch", "100")
      .option("seed", "workload seed", "42")
      .option("bandwidth", "wireless bandwidth, Mbps", "4")
      .option("distance", "client<->base-station distance, m", "1000")
      .option("ratio", "client/server clock ratio (e.g. 0.125)", "0.125")
      .option("wait", "CPU wait policy: poll|block|lowpower", "lowpower")
      .option("workload", "replay queries from a trace file instead of generating", "-")
      .option("save-workload", "write the generated queries to a trace file", "-")
      .flag("data-at-server", "dataset NOT replicated at the client")
      .flag("csv", "emit CSV instead of an aligned table");
  // Link-fault injection (all off by default: fault-free runs are
  // bit-identical to the pre-fault simulator).
  p.option("loss-model", "frame loss model: none|ber|gilbert", "none")
      .option("fault-seed", "fault model RNG seed", "1")
      .option("link-ber", "bit error rate for --loss-model ber", "1e-5")
      .option("burst-loss", "stationary loss fraction of a bursty (Gilbert-Elliott) link;"
                            " >0 implies --loss-model gilbert", "0")
      .option("outage-rate", "scheduled link outages per second (0 = none)", "0")
      .option("outage-duration", "duration of each scheduled outage, seconds", "0.05")
      .option("retry-budget", "max retransmissions of one frame before giving up", "6")
      .option("timeout-mult", "loss-detection timeout as a multiple of the frame RTT", "2");
}

core::SessionConfig config_from(const cli::ArgParser& p) {
  core::SessionConfig cfg;
  cfg.channel = {p.get_double("bandwidth"), p.get_double("distance")};
  cfg.client = sim::client_at_ratio(p.get_double("ratio"));
  cfg.placement.data_at_client = !p.get_flag("data-at-server");
  cfg.wait_policy = parse_wait(p.get("wait"));

  const auto fault_seed = static_cast<std::uint64_t>(p.get_int("fault-seed"));
  const double burst_loss = p.get_double("burst-loss");
  if (burst_loss > 0) {
    cfg.fault = net::bursty_loss_config(burst_loss, fault_seed);
  } else {
    cfg.fault.model = parse_loss_model(p.get("loss-model"));
    cfg.fault.seed = fault_seed;
    cfg.fault.ber = p.get_double("link-ber");
  }
  cfg.fault.outage_rate_per_s = p.get_double("outage-rate");
  cfg.fault.outage_duration_s = p.get_double("outage-duration");
  cfg.retry.retry_budget = p.get_u32("retry-budget");
  cfg.retry.timeout_mult = p.get_double("timeout-mult");
  return cfg;
}

std::vector<rtree::Query> workload_from(const cli::ArgParser& p, const workload::Dataset& d) {
  std::vector<rtree::Query> queries;
  if (p.get("workload") != "-") {
    queries = workload::load_trace_file(p.get("workload"));
  } else {
    workload::QueryGen gen(d, static_cast<std::uint64_t>(p.get_int("seed")));
    queries = gen.batch(parse_query_kind(p.get("query")), p.get_u32("n"));
  }
  if (p.get("save-workload") != "-") {
    workload::save_trace_file(queries, p.get("save-workload"));
  }
  return queries;
}

void emit(const stats::Table& t, bool csv) {
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
}

/// Writes the requested trace/metrics artifacts for one or more
/// recorded timelines.  `oracle` (when given, single-trace case) adds
/// the trace-vs-Outcome reconciliation footer to the metrics file.
void write_obs_outputs(const cli::ObsPaths& paths, std::span<const obs::NamedTrace> traces,
                       const stats::Outcome* oracle) {
  auto open = [](const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    return out;
  };
  if (!paths.trace_path.empty()) {
    std::ofstream out = open(paths.trace_path);
    obs::write_chrome_trace(out, traces);
    std::cout << "trace written to " << paths.trace_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!paths.metrics_path.empty()) {
    std::ofstream out = open(paths.metrics_path);
    for (const obs::NamedTrace& nt : traces) {
      if (traces.size() > 1) out << "# " << nt.name << "\n";
      obs::write_metrics(out, *nt.trace, traces.size() == 1 ? oracle : nullptr);
    }
    std::cout << "metrics written to " << paths.metrics_path << "\n";
  }
}

int cmd_dataset(int argc, const char* const* argv) {
  cli::ArgParser p("mosaiq dataset", "Print dataset and index statistics.");
  p.option("dataset", "dataset: pa|nyc", "pa")
      .option("segments", "override dataset cardinality (0 = paper size)", "0");
  p.parse(argc, argv);
  const workload::Dataset d = load_dataset(p.get("dataset"), p.get_u32("segments"));
  std::cout << "dataset:  " << d.name << "\n"
            << "segments: " << d.store.size() << "\n"
            << "data:     " << stats::fmt_bytes(d.data_bytes()) << "\n"
            << "index:    " << stats::fmt_bytes(d.index_bytes()) << " ("
            << d.tree.node_count() << " nodes, height " << d.tree.height() << ")\n"
            << "extent:   [" << d.extent.lo.x << "," << d.extent.lo.y << "] - ["
            << d.extent.hi.x << "," << d.extent.hi.y << "]\n";
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  cli::ArgParser p("mosaiq run", "Run one scheme/configuration and print its profile.");
  add_common_options(p);
  p.option("scheme", "client|server|filter-client|filter-server|adaptive", "client")
      .option("objective", "adaptive objective: energy|latency", "energy")
      .option("per-query", "write per-query CSV deltas to this path", "-");
  p.parse(argc, argv);

  const workload::Dataset d = load_dataset(p.get("dataset"), p.get_u32("segments"));
  const auto queries = workload_from(p, d);
  const core::SessionConfig cfg = config_from(p);

  stats::Recorder recorder;
  const bool want_per_query = p.get("per-query") != "-";
  const cli::ObsPaths obs_paths = cli::obs_paths_from(p);
  obs::TraceSink sink;
  obs::TraceSink* trace = obs_paths.enabled() ? &sink : nullptr;
  stats::Outcome final_outcome;

  // Runs the workload on a Session or an AdaptiveSession, recording
  // per-query deltas when asked; returns the totals.
  auto run_all = [&](auto& s) {
    s.set_trace(trace);
    stats::Outcome prev = s.outcome();
    for (const auto& q : queries) {
      s.run_query(q);
      if (want_per_query) {
        const stats::Outcome now = s.outcome();
        recorder.record(name_of(rtree::kind_of(q)), prev, now);
        prev = now;
      }
    }
    return s.outcome();
  };
  stats::Table t(stats::outcome_header());
  if (p.get("scheme") == "adaptive") {
    const core::Objective obj = p.get("objective") == "latency" ? core::Objective::Latency
                                                                : core::Objective::Energy;
    core::AdaptiveSession s(d, cfg, obj);
    final_outcome = run_all(s);
    t.row(stats::outcome_row("adaptive(" + p.get("objective") + ")", final_outcome));
  } else {
    core::SessionConfig run_cfg = cfg;
    run_cfg.scheme = parse_scheme(p.get("scheme"));
    core::Session s(d, run_cfg);
    final_outcome = run_all(s);
    t.row(stats::outcome_row(p.get("scheme"), final_outcome));
  }
  emit(t, p.get_flag("csv"));
  if (cfg.fault.enabled()) {
    std::cout << "faults: retransmissions=" << final_outcome.retransmissions
              << " timeouts=" << final_outcome.timeouts
              << " wasted-tx=" << stats::fmt_joules(final_outcome.wasted_tx_j)
              << " wasted-rx=" << stats::fmt_joules(final_outcome.wasted_rx_j)
              << " degraded=" << final_outcome.queries_degraded
              << " failed=" << final_outcome.queries_failed << "\n";
  }
  if (trace != nullptr) {
    const obs::NamedTrace nt{"mosaiq run " + p.get("scheme"), &sink};
    write_obs_outputs(obs_paths, {&nt, 1}, &final_outcome);
  }
  if (want_per_query) {
    std::ofstream out(p.get("per-query"));
    if (!out) throw std::runtime_error("cannot open " + p.get("per-query"));
    recorder.write_csv(out);
    std::cout << "per-query CSV written to " << p.get("per-query") << "\n";
  }
  return 0;
}

int cmd_sweep(int argc, const char* const* argv) {
  cli::ArgParser p("mosaiq sweep",
                   "Sweep every Table-1 scheme over a bandwidth list (the figure harness,"
                   " parameterized).");
  add_common_options(p);
  p.option("bandwidths", "comma-separated Mbps list", "2,4,6,8,11")
      .option("ratios", "comma-separated client/server clock ratios (Figure 8 axis)", "-")
      .option("distances", "comma-separated distances in m (Figure 9 axis)", "-");
  p.parse(argc, argv);

  const workload::Dataset d = load_dataset(p.get("dataset"), p.get_u32("segments"));
  const auto queries = workload_from(p, d);
  const auto qk = parse_query_kind(p.get("query"));
  const bool data_at_client = config_from(p).placement.data_at_client;

  auto parse_list = [](const std::string& csv) {
    std::vector<double> out;
    std::stringstream ss(csv);
    for (std::string tok; std::getline(ss, tok, ',');) out.push_back(std::stod(tok));
    return out;
  };
  // The swept axis: ratios and distances override the bandwidth list.
  enum class Axis { Bandwidth, Ratio, Distance };
  Axis axis = Axis::Bandwidth;
  std::vector<double> values = parse_list(p.get("bandwidths"));
  if (p.get("ratios") != "-") {
    axis = Axis::Ratio;
    values = parse_list(p.get("ratios"));
  } else if (p.get("distances") != "-") {
    axis = Axis::Distance;
    values = parse_list(p.get("distances"));
  }

  stats::Table t(stats::outcome_header());
  for (const core::Scheme s : {core::Scheme::FullyAtClient, core::Scheme::FullyAtServer,
                               core::Scheme::FilterClientRefineServer,
                               core::Scheme::FilterServerRefineClient}) {
    if (!core::scheme_runs(s, qk, data_at_client)) continue;
    for (const double v : values) {
      core::SessionConfig cfg = config_from(p);
      cfg.scheme = s;
      std::string suffix;
      switch (axis) {
        case Axis::Bandwidth:
          cfg.channel.bandwidth_mbps = v;
          suffix = " @" + stats::fmt_fixed(v, 0) + "Mbps";
          break;
        case Axis::Ratio:
          cfg.client = sim::client_at_ratio(v);
          suffix = " C/S=" + stats::fmt_fixed(v, 3);
          break;
        case Axis::Distance:
          cfg.channel.distance_m = v;
          suffix = " @" + stats::fmt_fixed(v, 0) + "m";
          break;
      }
      t.row(stats::outcome_row(std::string(name_of(s)) + suffix,
                               core::Session::run_batch(d, cfg, queries)));
      // Fully-at-client only varies along the ratio axis.
      if (s == core::Scheme::FullyAtClient && axis != Axis::Ratio) break;
    }
  }
  emit(t, p.get_flag("csv"));
  return 0;
}

int cmd_fleet(int argc, const char* const* argv) {
  cli::ArgParser p("mosaiq fleet",
                   "Simulate K clients sharing one medium and one server.");
  add_common_options(p);
  cli::add_fleet_robustness_options(p);
  cli::add_fleet_scale_options(p);
  p.option("scheme", "client|server|filter-client|filter-server", "server")
      .option("clients", "comma-separated fleet sizes", "1,2,4,8,16")
      .option("think", "inter-query think time, seconds", "1.0");
  p.parse(argc, argv);

  const workload::Dataset d = load_dataset(p.get("dataset"), p.get_u32("segments"));
  core::SessionConfig cfg = config_from(p);
  cfg.scheme = parse_scheme(p.get("scheme"));

  core::FleetConfig proto;  // the per-size configs below copy this
  proto.queries_per_client = p.get_u32("n");
  proto.think_time_s = p.get_double("think");
  proto.query_kind = parse_query_kind(p.get("query"));
  proto.workload_seed = static_cast<std::uint64_t>(p.get_int("seed"));
  proto.battery.enabled = p.get_flag("fleet-battery");
  proto.battery.pack.capacity_mah = p.get_double("battery-capacity-mah");
  proto.battery.capacity_spread = p.get_double("battery-spread");
  proto.battery.min_initial_charge = p.get_double("battery-min-charge");
  proto.battery.plugged_fraction = p.get_double("plugged-fraction");
  proto.battery.seed = static_cast<std::uint64_t>(p.get_int("battery-seed"));
  proto.battery.deaths = !p.get_flag("no-battery-deaths");
  proto.churn.departure_rate_per_s = p.get_double("churn-rate");
  proto.churn.seed = static_cast<std::uint64_t>(p.get_int("churn-seed"));
  proto.churn.min_uptime_s = p.get_double("churn-min-uptime");
  proto.replication = p.get_u32("replication");
  proto.scheduler.enabled = p.get_flag("battery-sched");
  proto.scheduler.low_charge = p.get_double("sched-low-charge");
  proto.scheduler.high_charge = p.get_double("sched-high-charge");
  proto.scheduler.horizon_s = p.get_double("sched-horizon");
  proto.hotspots = p.get_u32("hotspots");
  proto.zipf_theta = p.get_double("zipf-theta");
  const bool robust = proto.battery.enabled || proto.churn.enabled() ||
                      proto.replication > 1 || proto.scheduler.enabled;

  const cli::ObsPaths obs_paths = cli::obs_paths_from(p);
  std::vector<std::unique_ptr<obs::TraceSink>> sinks;
  std::vector<obs::NamedTrace> named;

  // Fault/churn columns only appear when the matching injection is on,
  // so fault-free output stays identical to the pre-fault driver.
  std::vector<std::string> headers = {"clients",     "mean latency(s)", "p95(s)", "E/client(J)",
                                      "medium util", "server util",     "answers"};
  if (cfg.fault.enabled()) {
    headers.insert(headers.end(), {"degraded", "failed", "retx", "wasted(J)"});
  }
  if (robust) {
    headers.insert(headers.end(), {"alive", "lost", "dup", "complete", "fairness"});
  }
  stats::Table t(headers);
  std::ofstream survival_out;
  if (p.get("survival-out") != "-") {
    survival_out.open(p.get("survival-out"));
    if (!survival_out) throw std::runtime_error("cannot open " + p.get("survival-out"));
    survival_out << "clients,time_s,alive,client,cause\n";
  }
  // --fleet-size N runs one fleet of exactly N clients (for 10^5-client
  // runs); otherwise --clients sweeps sizes.
  const std::uint32_t fleet_size = p.get_u32("fleet-size");
  std::stringstream ss(fleet_size > 0 ? std::to_string(fleet_size) : p.get("clients"));
  for (std::string tok; std::getline(ss, tok, ',');) {
    core::FleetConfig fleet = proto;
    fleet.clients = fleet_size > 0 ? fleet_size : cli::parse_u32("clients", tok);
    if (obs_paths.enabled()) {
      sinks.push_back(std::make_unique<obs::TraceSink>());
      fleet.trace = sinks.back().get();
      named.push_back({"fleet " + tok + " clients", sinks.back().get()});
    }
    const core::FleetOutcome o = core::run_fleet(d, cfg, fleet);
    std::vector<std::string> row = {
        tok, stats::fmt_fixed(o.mean_latency_s, 3), stats::fmt_fixed(o.p95_latency_s, 3),
        stats::fmt_joules(o.mean_client_energy_j), stats::fmt_pct(o.medium_utilization),
        stats::fmt_pct(o.server_utilization), std::to_string(o.answers)};
    if (cfg.fault.enabled()) {
      row.insert(row.end(), {std::to_string(o.queries_degraded), std::to_string(o.queries_failed),
                             std::to_string(o.retransmissions),
                             stats::fmt_joules(o.wasted_tx_j + o.wasted_rx_j)});
    }
    if (robust) {
      row.insert(row.end(), {std::to_string(o.clients_alive), std::to_string(o.units_lost),
                             std::to_string(o.duplicate_answers),
                             stats::fmt_pct(o.answer_completeness),
                             stats::fmt_fixed(o.energy_fairness, 3)});
    }
    t.row(row);
    if (survival_out.is_open()) {
      std::uint32_t alive = fleet.clients;
      for (const core::ClientDeath& death : o.deaths) {
        --alive;
        survival_out << tok << "," << stats::fmt_sci(death.time_s, 6) << "," << alive << ","
                     << death.client << "," << name_of(death.cause) << "\n";
      }
    }
  }
  emit(t, p.get_flag("csv"));
  if (survival_out.is_open()) {
    std::cout << "survival curve written to " << p.get("survival-out") << "\n";
  }
  if (obs_paths.enabled()) write_obs_outputs(obs_paths, named, nullptr);
  return 0;
}

int cmd_advise(int argc, const char* const* argv) {
  cli::ArgParser p("mosaiq advise",
                   "Planner recommendations per query type for one channel/device config.");
  add_common_options(p);
  p.parse(argc, argv);

  const workload::Dataset d = load_dataset(p.get("dataset"), p.get_u32("segments"));
  const core::Planner planner(d, config_from(p));

  workload::QueryGen gen(d, static_cast<std::uint64_t>(p.get_int("seed")));
  stats::Table t({"query", "energy choice", "latency choice", "est candidates"});
  rtree::NullHooks sink;
  const std::vector<std::pair<std::string, rtree::Query>> samples = {
      {"point", rtree::Query{gen.point_query()}},
      {"small range", rtree::Query{gen.range_query_near(gen.range_query().window.center(),
                                                        0.0, 1e-4, 1e-4)}},
      {"large range", rtree::Query{gen.range_query_near(gen.range_query().window.center(),
                                                        0.0, 1e-2, 1e-2)}},
      {"nn", rtree::Query{gen.nn_query()}},
  };
  for (const auto& [label, q] : samples) {
    const core::Scheme e = planner.choose(q, core::Objective::Energy, sink);
    const core::Scheme l = planner.choose(q, core::Objective::Latency, sink);
    const auto pred = planner.predict(e, q);
    t.row({label, name_of(e), name_of(l), stats::fmt_fixed(pred.est_candidates, 0)});
  }
  emit(t, p.get_flag("csv"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: mosaiq <dataset|run|sweep|fleet|advise> [options]\n"
      "run 'mosaiq <command> --help' for command options\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "dataset") return cmd_dataset(argc - 1, argv + 1);
    if (cmd == "run") return cmd_run(argc - 1, argv + 1);
    if (cmd == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (cmd == "fleet") return cmd_fleet(argc - 1, argv + 1);
    if (cmd == "advise") return cmd_advise(argc - 1, argv + 1);
    std::cerr << "unknown command '" << cmd << "'\n" << usage;
    return 2;
  } catch (const cli::ArgParser::HelpRequested& h) {
    std::cout << h.what();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
