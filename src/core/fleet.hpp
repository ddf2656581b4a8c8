// Multi-client fleet simulation: K mobile clients sharing ONE wireless
// medium and ONE server.
//
// The paper models a single client with a dedicated channel and an
// uncontended server (Section 5.3 explicitly assumes requests are
// served from memory "either from the same client or across clients").
// This extension measures what happens to each partitioning scheme as
// the fleet grows: the half-duplex medium serializes airtime across
// clients, the server serializes query processing (its caches now see
// the *cross-client* access stream — the locality the paper appeals
// to), and every wait is paid by the waiting client's NIC in IDLE.
//
// The simulation is a deterministic discrete-event loop over one binary
// heap of pending events ordered by (time, kind, id): each client is a
// small state machine (think → compute+protocol → medium grant →
// transmit → server grant → serve → medium grant → receive → unpack),
// and the medium/server are FIFO resources granted in event-time order.
// The stages run Session's Table-1 executor (core/query_exec.hpp) and
// price their medium legs with the Session transport's price_leg /
// book_leg (core/transport.hpp), so one client with no think time and
// no faults reproduces Session::run_batch, which the K=1 oracle in
// tests/test_fleet.cpp pins.
//
// On top of the PR 4 link faults, the fleet models CLIENT faults: each
// client can carry a heterogeneous sim::Battery that every query leg
// drains, clients go dark on battery exhaustion or a scheduled
// departure (net::ChurnConfig), the server detects silent clients via
// the same timeout ladder the transport uses, and work units are
// replicated across clients (first answer wins, duplicates discarded)
// or reassigned to survivors so a dying fleet keeps answering.  A
// battery-aware scheduler (core/scheduler.hpp) can bias the per-query
// partitioning by reported charge.  With every extension disabled the
// loop is bit-identical to the classic fleet.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheduler.hpp"
#include "core/session.hpp"
#include "sim/battery.hpp"

namespace mosaiq::core {

/// Deterministic heterogeneous battery provisioning for the fleet.
/// Each client draws a capacity multiplier, an initial state of
/// charge, and a plugged-in flag from a per-client seeded stream, so
/// the fleet is a mix of full, half-drained, and wall-powered devices
/// and the draw is independent of event interleaving.
struct FleetBatteryConfig {
  bool enabled = false;
  /// Nominal pack; per-client capacity is jittered around it.
  sim::BatteryConfig pack;
  /// Capacity multiplier is uniform in [1-spread, 1+spread].
  double capacity_spread = 0.25;
  /// Initial state of charge is uniform in [min, max].
  double min_initial_charge = 0.35;
  double max_initial_charge = 1.0;
  /// Probability a client is on wall power (its battery never drains
  /// and it cannot die of exhaustion).
  double plugged_fraction = 0.0;
  std::uint64_t seed = 2003;
  /// Battery exhaustion kills the client (the dramatic option); off,
  /// batteries only track charge for the scheduler and the report.
  bool deaths = true;
};

struct FleetConfig {
  std::uint32_t clients = 8;
  std::uint32_t queries_per_client = 20;
  /// User think time between a query's completion and the next issue.
  double think_time_s = 1.0;
  std::uint64_t workload_seed = 99;
  rtree::QueryKind query_kind = rtree::QueryKind::Range;
  /// Optional span/counter sink: each client becomes one track, with
  /// per-stage spans (w1-compute, medium-wait, tx, server-queue,
  /// server-work, rx, w3-unpack, think) in global simulation time — the
  /// contention the utilization numbers summarize, made visible.
  obs::TraceSink* trace = nullptr;

  // --- client-fault extensions (all off by default = classic fleet) --
  /// Per-client batteries drained by every leg of every query.
  FleetBatteryConfig battery;
  /// Scheduled departures (clients leave even with charge to spare).
  net::ChurnConfig churn;
  /// Live copies of each work unit, placed on distinct clients
  /// (origin, origin+1, ... mod K).  1 = no replication: a dead
  /// client's unanswered units are simply lost.  >= 2 additionally
  /// re-hands a unit to the least-loaded survivor when every replica
  /// holder has died, after the timeout-ladder detection delay.
  std::uint32_t replication = 1;
  /// Battery-aware scheme biasing (overrides base.scheme per query).
  SchedulerConfig scheduler;

  /// Zipf-skewed query hotspots: with hotspots > 0 each client draws
  /// one of `hotspots` SHARED query streams (popularity ~ rank^-theta)
  /// instead of its own private stream, so a few popular streams are
  /// asked by most of the fleet and the server's caches see skewed
  /// cross-client locality.  0 = classic per-client streams.
  std::uint32_t hotspots = 0;
  /// Zipf exponent for the hotspot popularity distribution.
  double zipf_theta = 0.9;
};

enum class DeathCause : std::uint8_t { Battery, Departure };

inline const char* name_of(DeathCause c) {
  return c == DeathCause::Battery ? "battery" : "departed";
}

/// One client going dark, in simulation time.  The sequence of these
/// IS the fleet survival curve: alive(t) = clients - #{deaths <= t}.
struct ClientDeath {
  double time_s = 0;
  std::uint32_t client = 0;
  DeathCause cause = DeathCause::Battery;
};

struct FleetOutcome {
  double makespan_s = 0;            ///< last query completion
  double mean_latency_s = 0;        ///< per-query, issue -> answer
  double p95_latency_s = 0;
  double mean_client_energy_j = 0;  ///< full per-client energy, averaged
  /// Airtime (both directions) over the later of the makespan and the
  /// medium's last release; at most 1.
  double medium_utilization = 0;
  /// Server busy time over the later of the makespan and the server's
  /// last release; at most 1.
  double server_utilization = 0;
  std::uint64_t answers = 0;

  // Link-fault accounting (all zero on a fault-free medium; see
  // base.fault / base.retry on the SessionConfig).
  std::uint32_t queries_degraded = 0;  ///< fell back to local execution
  std::uint32_t queries_failed = 0;    ///< no data to fall back on
  std::uint64_t retransmissions = 0;   ///< frames re-sent fleet-wide
  std::uint64_t timeouts = 0;          ///< timeout expiries fleet-wide
  double wasted_tx_j = 0;              ///< TX energy of undelivered frames
  double wasted_rx_j = 0;              ///< RX energy of undelivered frames

  // Client-fault accounting (defaults describe a fleet with every
  // robustness extension disabled: everyone survives, every unit is
  // answered exactly once).
  std::uint32_t clients_alive = 0;      ///< still up at the end
  std::uint32_t deaths_battery = 0;
  std::uint32_t deaths_departed = 0;
  std::uint64_t units_total = 0;        ///< distinct work units issued
  std::uint64_t units_answered = 0;     ///< units somebody answered
  std::uint64_t units_lost = 0;         ///< units nobody ever answered
  std::uint64_t duplicate_answers = 0;  ///< answers discarded by dedup
  std::uint64_t reassignments = 0;      ///< units re-handed to survivors
  /// Jain's fairness index over per-client energy: 1 = perfectly even
  /// spend, 1/K = one client paid for everything.
  double energy_fairness = 1.0;
  /// units_answered / units_total (1.0 for an empty fleet).
  double answer_completeness = 1.0;
  /// Deaths in time order (the survival curve's steps).
  std::vector<ClientDeath> deaths;
  /// Per-client total energy (CPU + NIC), for fairness analysis and
  /// the per-track conservation oracle.
  std::vector<double> client_energy_j;
};

/// Runs the fleet under `base.scheme` (FullyAtClient runs contention-free
/// by construction and serves as the scaling baseline).  When
/// `base.fault` is enabled, every uplink/downlink leg runs against one
/// shared seeded fault model (it is one shared medium): a leg that
/// exhausts `base.retry`'s budget degrades the query to local execution
/// (data at the client) or drops it, and the fleet keeps serving.
/// Client faults (fleet.battery / fleet.churn) additionally let whole
/// clients die mid-run; fleet.replication controls how much of their
/// work the survivors can still answer.  Throws std::invalid_argument,
/// as Session does, for a nearest-neighbor query kind under a hybrid
/// scheme.
FleetOutcome run_fleet(const workload::Dataset& dataset, const SessionConfig& base,
                       const FleetConfig& fleet);

}  // namespace mosaiq::core
