// Extension experiment (paper Section 7, "incorporation of broadcast
// (widely shared information) into our framework"): broadcast
// dissemination of hot regions vs on-demand request/response, range
// queries on PA, sweeping the fraction of queries that fall in the hot
// regions.
//
// Expected shape: the broadcast client's energy advantage grows with
// hot-query share — hot queries never touch the ~3 W transmitter — at a
// latency price set by the broadcast cycle (tune-in + doze waits).
#include <iostream>
#include <random>

#include "core/broadcast_client.hpp"
#include "figure_common.hpp"

using namespace mosaiq;

int main() {
  std::cout << "=== Extension: broadcast dissemination of hot regions (PA, 2 Mbps) ===\n";
  const workload::Dataset& pa = bench::load_pa();
  bench::print_dataset_banner(pa, std::cout);

  // Two downtown-core hot regions around the heaviest PA clusters
  // (kept small: broadcast buckets are received whole, so region size
  // directly prices a tune-in).
  const std::vector<geom::Rect> hot = {{{0.20, 0.27}, {0.26, 0.33}},
                                       {{0.54, 0.22}, {0.60, 0.28}}};
  const net::BroadcastProgram program = net::make_broadcast_program(pa.tree, hot, 2.0, 4);
  std::cout << "program: " << program.regions.size() << " regions, cycle "
            << stats::fmt_fixed(program.cycle_s, 2) << " s, "
            << program.index_replicas << " index replicas";
  std::uint64_t prog_bytes = program.index_bytes * program.index_replicas;
  for (const auto& r : program.regions) prog_bytes += r.bucket_bytes;
  std::cout << ", " << stats::fmt_bytes(prog_bytes) << " on air per cycle\n\n";

  core::SessionConfig cfg;
  cfg.channel = {2.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);

  stats::Table t({"hot-query share", "bc E/query(J)", "srv E/query(J)", "E winner",
                  "bc wall/query(s)", "srv wall/query(s)", "tunes", "cache hits",
                  "fallbacks"});
  for (const double share : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    // Workload: bursts alternate between hot-region pans and cold spots.
    // Queries arrive in bursts of 10 (a user works one area at a time,
    // as in Section 6.2); a burst is hot with probability `share`.
    std::mt19937_64 rng(4242);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<rtree::RangeQuery> queries;
    workload::QueryGen gen(pa, 777);
    for (int burst = 0; burst < 10; ++burst) {
      const bool is_hot = burst < static_cast<int>(share * 10 + 0.5);
      const geom::Rect& h = hot[burst % hot.size()];
      for (int i = 0; i < 10; ++i) {
        if (is_hot) {
          const double w = 0.015 + 0.020 * u(rng);
          const double x = h.lo.x + u(rng) * (h.width() - w);
          const double y = h.lo.y + u(rng) * (h.height() - w);
          queries.push_back({{{x, y}, {x + w, y + w}}});
        } else {
          queries.push_back(gen.range_query());
        }
      }
    }

    core::BroadcastClient bc(pa, cfg, program);
    core::SessionConfig srv_cfg = cfg;
    srv_cfg.scheme = core::Scheme::FullyAtServer;
    srv_cfg.placement.data_at_client = false;
    core::Session srv(pa, srv_cfg);
    for (const auto& q : queries) {
      bc.run_query(q);
      srv.run_query(rtree::Query{q});
    }
    const stats::Outcome ob = bc.outcome();
    const stats::Outcome os = srv.outcome();
    t.row({stats::fmt_pct(share), stats::fmt_joules(ob.energy.total_j() / 100),
           stats::fmt_joules(os.energy.total_j() / 100),
           ob.energy.total_j() < os.energy.total_j() ? "broadcast" : "on-demand",
           stats::fmt_fixed(ob.wall_seconds / 100, 4),
           stats::fmt_fixed(os.wall_seconds / 100, 4), std::to_string(bc.broadcast_tunes()),
           std::to_string(bc.cache_hits()), std::to_string(bc.fallbacks())});
  }
  t.print(std::cout);

  // Operator view: derive the program from the request log instead of
  // hand-picking regions, and serve the same all-hot workload.
  {
    std::mt19937_64 rng(4242);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<rtree::RangeQuery> traffic;
    for (int burst = 0; burst < 10; ++burst) {
      const geom::Rect& h = hot[burst % hot.size()];
      for (int i = 0; i < 10; ++i) {
        const double w = 0.015 + 0.020 * u(rng);
        const double x = h.lo.x + u(rng) * (h.width() - w);
        const double y = h.lo.y + u(rng) * (h.height() - w);
        traffic.push_back({{{x, y}, {x + w, y + w}}});
      }
    }
    std::vector<geom::Rect> log;
    for (const auto& q : traffic) log.push_back(q.window);
    const auto derived = net::hot_regions_from_history(log, pa.extent, 4, 0.8);
    const auto derived_prog = net::make_broadcast_program(pa.tree, derived, 2.0, 4);

    core::BroadcastClient handpicked(pa, cfg, program);
    core::BroadcastClient learned(pa, cfg, derived_prog);
    for (const auto& q : traffic) {
      handpicked.run_query(q);
      learned.run_query(q);
    }
    stats::Table t2({"program", "regions", "E/query(J)", "tunes+hits", "fallbacks"});
    t2.row({"hand-picked", std::to_string(program.regions.size()),
            stats::fmt_joules(handpicked.outcome().energy.total_j() / 100),
            std::to_string(handpicked.broadcast_tunes() + handpicked.cache_hits()),
            std::to_string(handpicked.fallbacks())});
    t2.row({"derived from request log", std::to_string(derived_prog.regions.size()),
            stats::fmt_joules(learned.outcome().energy.total_j() / 100),
            std::to_string(learned.broadcast_tunes() + learned.cache_hits()),
            std::to_string(learned.fallbacks())});
    std::cout << "\nprogramming the cycle from the request log (all-hot workload):\n";
    t2.print(std::cout);
  }

  std::cout << "\nShape check: at share 0 the two columns match (everything falls back);\n"
               "as the hot share grows the broadcast client's per-query energy collapses\n"
               "(receive-only + bucket cache) while its latency carries the cycle waits;\n"
               "the log-derived program serves the traffic about as well as hand-picked\n"
               "regions — the base station can learn its own schedule.\n";
  return 0;
}
