// Extension experiment (paper Section 7, "examining issues when data is
// frequently modified"): consistency policies for the cached
// insufficient-memory client under an update stream, sweeping the
// update rate.
//
// Workload: proximity bursts (as in Figure 10) with 2 s of user think
// time between queries; updates arrive Bernoulli per query slot,
// density-weighted over the map.  Policies under test:
//   none        cheapest, but serves stale answers;
//   revalidate  always fresh, pays a transmitter probe per local query;
//   ttl(10)     bounded staleness, amortized probes;
//   lease       always fresh, zero probes, pays NIC idle listening.
#include <iostream>
#include <random>

#include "core/caching_client.hpp"
#include "figure_common.hpp"

using namespace mosaiq;

int main() {
  std::cout << "=== Extension: cache consistency under updates (PA, 4 Mbps, 1 km) ===\n";
  const workload::Dataset& pa = bench::load_pa();
  bench::print_dataset_banner(pa, std::cout);

  const auto bursts =
      workload::make_proximity_workload(pa, /*n_bursts=*/3, /*proximity=*/40,
                                        /*jitter_radius=*/0.002, /*seed=*/31,
                                        /*follow_area_lo=*/1e-5, /*follow_area_hi=*/1e-4);
  std::size_t n_queries = 0;
  for (const auto& b : bursts) n_queries += b.queries.size();
  std::cout << n_queries << " queries in 3 proximity bursts, 2 s think time between queries\n\n";

  core::SessionConfig cfg;
  cfg.channel = {4.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);

  for (const double update_rate : {0.02, 0.2, 1.0}) {
    std::cout << "--- " << update_rate << " updates per query slot ---\n";
    stats::Table t({"policy", "E/query(J)", "E_nicTx(J)", "E_nicIdle(J)", "fetches",
                    "revalidations", "pushes", "stale answers"});
    for (const core::ConsistencyPolicy policy :
         {core::ConsistencyPolicy::None, core::ConsistencyPolicy::Revalidate,
          core::ConsistencyPolicy::Ttl, core::ConsistencyPolicy::Lease}) {
      core::VersionedServer server(pa);
      core::CachingConfig cc;
      cc.consistency = policy;
      cc.ttl_queries = 10;
      cc.think_time_s = 2.0;
      core::CachingClient client(server, cfg, cc);

      std::mt19937_64 rng(99);
      std::uniform_real_distribution<double> u(0.0, 1.0);
      std::uniform_int_distribution<std::uint32_t> pick(
          0, static_cast<std::uint32_t>(pa.store.size() - 1));
      for (const auto& b : bursts) {
        for (const auto& q : b.queries) {
          // Updates land on existing streets (density-weighted).
          double budget = update_rate;
          while (budget > 0 && (budget >= 1.0 || u(rng) < budget)) {
            const geom::Point where = pa.store.segment(pick(rng)).midpoint();
            server.apply_update(where);
            client.notify_update(where);
            budget -= 1.0;
          }
          client.run_query(q);
        }
      }
      const stats::Outcome o = client.outcome();
      t.row({name_of(policy), stats::fmt_joules(o.energy.total_j() / n_queries),
             stats::fmt_joules(o.energy.nic_tx_j), stats::fmt_joules(o.energy.nic_idle_j),
             std::to_string(client.fetches()), std::to_string(client.revalidations()),
             std::to_string(client.invalidation_pushes()),
             std::to_string(client.stale_answers())});
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "Shape check: 'none' is cheapest but stale; 'revalidate' buys freshness\n"
               "with per-query transmitter probes; 'ttl' sits between; 'lease' is fresh\n"
               "with zero probes but its idle-listening bill grows with think time and\n"
               "its refetch count with the update rate.\n";
  return 0;
}
