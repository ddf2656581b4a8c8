// The fleet simulation (see core/fleet.hpp): one discrete-event loop.
//
// Pending events sit in a binary heap ordered by (time, kind, id), so
// equal-time events always dequeue the same way: client stages before
// departures before reassignments, lower ids first.  Every rng draw,
// fault-model consult, resource grant and battery settle therefore
// happens in one fixed order, which tests/test_determinism.cpp pins.
//
// A client is one compact record with no heap block of its own: its
// machines by value, sharing their constants with every other client;
// its pending units a list threaded through one fleet-wide link pool;
// and the state only some fleets read (batteries, the scheduler's
// samples, the hybrid schemes' candidates, settle marks) in side
// vectors sized only when that feature is on.
#include "core/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <utility>
#include <variant>
#include <vector>

#include "core/query_exec.hpp"
#include "perf/thread_pool.hpp"
#include "rng/lazy_mt19937_64.hpp"
#include "workload/query_gen.hpp"

namespace mosaiq::core {

namespace {

/// One query somebody must answer.  With replication the same unit
/// sits in several clients' queues; the first completion wins and
/// every later one is discarded (the server already has the answer).
struct WorkUnit {
  rtree::Query query;
  std::uint32_t origin = 0;       ///< client whose workload generated it
  bool answered = false;
  bool lost = false;              ///< permanently unanswerable
  std::uint32_t live_replicas = 0;  ///< clients currently holding it
  std::uint32_t reassigns = 0;      ///< re-hands consumed (capped)
};

constexpr std::uint32_t kNoLink = ~std::uint32_t{0};

/// A client's pending unit ids in FIFO order: a list threaded through
/// the fleet's WorkLinks, so a queue is three words in its client.
struct WorkQueue {
  std::uint32_t head = kNoLink;
  std::uint32_t tail = kNoLink;
  std::uint32_t size = 0;
  bool empty() const { return size == 0; }
};

/// The one pool of (unit, next) links that every client's WorkQueue
/// threads through.  A popped link is reused by the next push.
class WorkLinks {
 public:
  explicit WorkLinks(std::size_t capacity) { links_.reserve(capacity); }

  std::uint32_t front(const WorkQueue& q) const { return links_[q.head].unit; }

  void push_back(WorkQueue& q, std::uint32_t unit) {
    std::uint32_t i = free_;
    if (i == kNoLink) {
      i = static_cast<std::uint32_t>(links_.size());
      links_.push_back({unit, kNoLink});
    } else {
      free_ = links_[i].next;
      links_[i] = {unit, kNoLink};
    }
    (q.tail == kNoLink ? q.head : links_[q.tail].next) = i;
    q.tail = i;
    ++q.size;
  }

  void pop_front(WorkQueue& q) {
    const std::uint32_t i = q.head;
    q.head = links_[i].next;
    if (q.head == kNoLink) q.tail = kNoLink;
    links_[i].next = free_;
    free_ = i;
    --q.size;
  }

 private:
  struct Link {
    std::uint32_t unit;
    std::uint32_t next;
  };
  std::vector<Link> links_;
  std::uint32_t free_ = kNoLink;  ///< popped links, last popped first
};

/// One client's state machine, a record with no heap block of its own.
struct Client {
  Client(std::shared_ptr<const sim::ClientConstants> constants,
         std::shared_ptr<const net::NicProfile> profile)
      : cpu(std::move(constants)), nic(std::move(profile)) {}

  sim::ClientCpu cpu;
  net::Nic nic;
  WorkQueue work;                  ///< pending unit ids, front = next
  std::uint32_t current = 0;       ///< unit in flight (valid while active)
  double issue_time = 0;           ///< when the in-flight unit was issued
  std::uint64_t request_bytes = 0;     ///< in-flight request payload
  std::uint64_t response_bytes = 0;    ///< in-flight response payload
  std::uint64_t answers = 0;
  std::uint64_t answers_at_issue = 0;  ///< rollback point for a lost exchange
  double parked_since = 0;
  double departs_at = 0;           ///< scheduled departure (inf = never)
  std::uint8_t stage = 0;          ///< progress within the in-flight unit
  Scheme scheme = Scheme::FullyAtClient;  ///< scheme for the in-flight unit
  bool active = false;             ///< a unit is issued and unresolved
  bool dead = false;
  bool idle = false;               ///< parked: out of pending work
  bool wake_pending = false;       ///< a wake event is already queued
};

/// A client's battery, in fleets that have batteries.
struct ClientBattery {
  sim::Battery battery;
  double empty_at = -1;  ///< first time consume() hit the cutoff
  bool plugged = false;
};

/// A client's energy and busy cycles at its last settle(), in fleets
/// that are traced or have batteries.
struct SettleMark {
  double j = 0;
  std::uint64_t cycles = 0;
};

/// Clients per job of the pool that builds the fleet's inputs: enough
/// query draws per job that the pool's one grab per job does not show.
constexpr std::size_t kInputChunk = 1024;

/// kClientStage events drive a client's state machine (and double as
/// wake-ups for parked clients); kDeparture fires a scheduled churn
/// departure; kReassign re-hands an orphaned work unit.  With all
/// client faults disabled only kClientStage events exist and the
/// ordering reduces to the classic (time, client) tie-break.
enum : std::uint8_t { kClientStage = 0, kDeparture = 1, kReassign = 2 };

struct Event {
  double time;
  std::uint32_t id;  ///< client (stage/departure) or unit (reassign)
  std::uint8_t kind = kClientStage;
  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    if (kind != o.kind) return kind > o.kind;
    return id > o.id;
  }
};

/// Min tournament tree over one key per client, every key kNone until
/// set: leaves at [n, 2n), each inner node the smaller of its two
/// children, so the root is the smallest key and changing one key
/// replays only its path, O(log K).
class SurvivorIndex {
 public:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  explicit SurvivorIndex(std::size_t n) : n_(n), tree_(2 * n, kNone) {}

  /// The smallest key; kNone when every leaf holds kNone.
  std::uint64_t min() const { return n_ == 0 ? kNone : tree_[1]; }

  void set(std::uint32_t leaf, std::uint64_t key) {
    std::size_t i = n_ + leaf;
    tree_[i] = key;
    for (i /= 2; i >= 1; i /= 2) {
      const std::uint64_t m = std::min(tree_[2 * i], tree_[2 * i + 1]);
      if (tree_[i] == m) break;  // ancestors already agree
      tree_[i] = m;
    }
  }

 private:
  std::size_t n_;
  std::vector<std::uint64_t> tree_;
};

/// Normalized Zipf CDF over `n` hotspot ranks: weight(r) ~ (r+1)^-theta.
/// Clients invert a uniform draw against this to pick a shared query
/// stream, so a few streams serve most of the fleet.
std::vector<double> zipf_cdf(std::uint32_t n, double theta) {
  std::vector<double> cdf(n);
  double sum = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    sum += std::pow(static_cast<double>(r) + 1.0, -theta);
    cdf[r] = sum;
  }
  for (double& x : cdf) x /= sum;
  return cdf;
}

}  // namespace

FleetOutcome run_fleet(const workload::Dataset& dataset, const SessionConfig& base,
                       const FleetConfig& fleet) {
  validate_config(base);
  const double bits_per_s = base.channel.bandwidth_mbps * 1e6;

  // One seeded fault process for the one shared medium; legs consult it
  // in event order, which the queue's (time, client) tie-break makes
  // deterministic.
  std::optional<net::LinkFaultModel> fault;
  if (base.fault.enabled()) fault.emplace(base.fault);
  std::uint32_t degraded = 0;
  std::uint32_t failed = 0;
  LinkFaultTally link_faults;

  const bool batteries_on = fleet.battery.enabled;
  const bool deaths_on = batteries_on && fleet.battery.deaths;
  const std::uint32_t replication =
      std::min(std::max(fleet.replication, 1u), std::max(fleet.clients, 1u));
  // How long the server needs to notice a client went silent: the full
  // timeout + backoff ladder for a nominal full frame, unanswered.
  const double t_frame_s =
      static_cast<double>(base.protocol.mtu_bytes) * 8.0 / bits_per_s;
  const double t_ack_s =
      static_cast<double>(base.protocol.header_bytes) * 8.0 / bits_per_s;
  const double detection_s = net::dead_client_detection_s(t_frame_s + t_ack_s, base.retry);
  constexpr std::uint32_t kMaxReassigns = 4;

  sim::ServerCpu server(base.server);  // shared: caches see all clients
  double medium_free = 0;
  double server_free = 0;
  double medium_busy = 0;
  double server_busy = 0;

  // Battery-aware scheduler (server side): built only when asked for,
  // so disabled fleets never pay the density-grid construction.
  std::optional<BatteryScheduler> sched;
  if (fleet.scheduler.enabled) {
    sched.emplace(dataset, base, fleet.scheduler, fleet.clients);
  }

  // Every client runs the same machine and radio: one copy of their
  // constants.
  const auto client_constants = std::make_shared<const sim::ClientConstants>(base.client);
  const auto nic_profile = std::make_shared<const net::NicProfile>(
      net::NicProfile{base.nic_power, base.channel.distance_m});
  std::vector<Client> clients(fleet.clients, Client(client_constants, nic_profile));

  // Per-client state that only some fleets read, sized only when its
  // feature is on.
  const bool hybrid = sched || base.scheme == Scheme::FilterClientRefineServer ||
                      base.scheme == Scheme::FilterServerRefineClient;
  std::vector<ClientBattery> batteries(batteries_on ? fleet.clients : 0);
  /// CPU + NIC energy when the in-flight unit was issued: the
  /// scheduler's discharge sample.
  std::vector<double> energy_at_issue_j(sched ? fleet.clients : 0);
  /// The in-flight unit's candidates, kept between a hybrid scheme's
  /// steps.  The fully-at schemes never fill a list, so they share one.
  std::vector<std::vector<std::uint32_t>> candidates(hybrid ? fleet.clients : 0);
  std::vector<std::uint32_t> no_candidates;

  // Tracing: one track per client; spans carry the energy delta accrued
  // by that client's CPU + NIC since its previous span on the track.
  // The same deltas drain the client's battery, so settle() runs for
  // every completed activity whether or not a trace is attached.
  obs::TraceSink* trace = fleet.trace;
  std::vector<SettleMark> marks(trace != nullptr || batteries_on ? fleet.clients : 0);
  auto settle = [&](std::uint32_t k, const char* name, double t0, double t1) {
    const bool span = trace != nullptr && t1 > t0;
    // mosaiq-lint: allow(rng-stream-balance) — the only engines in scope are
    // build_inputs' per-client engines below, freshly seeded per client; no
    // shared stream crosses this early return.
    if (!span && !batteries_on) return;
    const Client& c = clients[k];
    SettleMark& mark = marks[k];
    const double j = c.cpu.energy().total_j() + c.nic.total_joules();
    const std::uint64_t cyc = c.cpu.busy_cycles();
    const double delta_j = j - mark.j;
    if (batteries_on && !batteries[k].plugged && delta_j > 0) {
      // The activity's average power sets its Peukert derating.
      const bool charged = batteries[k].battery.consume(delta_j, t1 - t0);
      if (!charged && deaths_on && batteries[k].empty_at < 0) batteries[k].empty_at = t1;
    }
    if (span) {
      // mosaiq-lint: allow(unsigned-wrap) — busy_cycles() is cumulative; cyc >= mark.cycles
      trace->phase(name, t0, t1, delta_j, cyc - mark.cycles, k);
    }
    mark = {j, cyc};
  };

  // Zipf-skewed hotspots: with fleet.hotspots > 0 each client inverts a
  // seeded uniform draw against this CDF to pick one of a few SHARED
  // query streams, so popular streams are asked by many clients at once
  // (the server's caches see the skewed cross-client locality real
  // point-of-interest traffic produces).  Empty = classic per-client
  // streams, bit-identical to every pre-hotspot run.
  const std::vector<double> hotspot_cdf =
      fleet.hotspots > 0 ? zipf_cdf(fleet.hotspots, fleet.zipf_theta)
                         : std::vector<double>{};

  // The shared work-unit pool: client k's own workload at ids
  // [k * queries_per_client, (k + 1) * queries_per_client), then
  // (replication-1) backup copies of its neighbours' units queued
  // behind it.  Backups whose original was already answered cost
  // nothing at issue time (the server says "done, skip").
  std::vector<WorkUnit> units(std::size_t{fleet.clients} * fleet.queries_per_client);
  /// Each battery's starting charge, kept for the scheduler's admit.
  std::vector<double> initial_charge(sched && batteries_on ? fleet.clients : 0);

  // A client's inputs (query stream, hotspot draw, departure time and
  // battery provisioning) are pure functions of (seed, k), independent
  // of fleet size and event order, so the shared pool builds them
  // straight into their places, kInputChunk clients per job.
  auto build_inputs = [&](std::uint32_t k) {
    std::uint64_t stream = k;
    // mosaiq-lint: allow(rng-stream-balance) — the engine lives inside the
    // branch and is re-seeded from (seed, k) for every client; skipping it
    // cannot desynchronize any stream that outlives the branch.
    if (!hotspot_cdf.empty()) {
      rng::LazyMt19937_64 rng(fleet.workload_seed * 0x9e3779b97f4a7c15ULL + k);
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      const auto it =
          std::upper_bound(hotspot_cdf.begin(), hotspot_cdf.end(), uniform(rng));
      stream = static_cast<std::uint64_t>(it - hotspot_cdf.begin());
    }
    workload::QueryGen gen(dataset, fleet.workload_seed * 1000 + stream);
    for (std::uint32_t i = 0; i < fleet.queries_per_client; ++i) {
      units[std::size_t{k} * fleet.queries_per_client + i] =
          WorkUnit{gen.query(fleet.query_kind), k, false, false, 1, 0};
    }
    clients[k].departs_at = net::scheduled_departure_s(fleet.churn, k);
    // mosaiq-lint: allow(rng-stream-balance) — the engine lives inside the
    // branch and is re-seeded from (seed, k) for every client; skipping it
    // cannot desynchronize any stream that outlives the branch.
    if (batteries_on) {
      rng::LazyMt19937_64 rng(fleet.battery.seed * 0x9e3779b97f4a7c15ULL + k + 1);
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      sim::BatteryConfig pack = fleet.battery.pack;
      const double spread = std::clamp(fleet.battery.capacity_spread, 0.0, 0.95);
      pack.capacity_mah *= 1.0 - spread + 2.0 * spread * uniform(rng);
      const double lo = std::clamp(fleet.battery.min_initial_charge, 0.0, 1.0);
      const double hi = std::clamp(fleet.battery.max_initial_charge, lo, 1.0);
      const double charge = lo + (hi - lo) * uniform(rng);
      ClientBattery& b = batteries[k];
      b.plugged = uniform(rng) < fleet.battery.plugged_fraction;
      b.battery = sim::Battery(pack, charge);
      if (sched) initial_charge[k] = charge;
    }
  };
  perf::ThreadPool::shared().run(
      (std::size_t{fleet.clients} + kInputChunk - 1) / kInputChunk, [&](std::size_t chunk) {
        const std::size_t end = std::min<std::size_t>(fleet.clients, (chunk + 1) * kInputChunk);
        for (std::size_t k = chunk * kInputChunk; k < end; ++k) {
          build_inputs(static_cast<std::uint32_t>(k));
        }
      });

  // Pending events, earliest first under Event's (time, kind, id) order.
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint32_t alive = fleet.clients;
  std::vector<ClientDeath> deaths;
  std::uint64_t duplicate_answers = 0;
  std::uint64_t reassignments = 0;

  // Wire the clients up in k order: queue their own units, admit them
  // to the scheduler, settle the start-up stagger and push their first
  // events.
  WorkLinks links(units.size() * replication);
  for (std::uint32_t k = 0; k < fleet.clients; ++k) {
    Client& c = clients[k];
    for (std::uint32_t i = 0; i < fleet.queries_per_client; ++i) {
      links.push_back(c.work, k * fleet.queries_per_client + i);
    }
    if (sched && batteries_on) {
      const ClientBattery& b = batteries[k];
      sched->admit(k, b.plugged, initial_charge[k], b.battery.config().rated_joules());
    }
    // Clients start staggered by a fraction of the think time so the
    // first round does not collide artificially.
    const double start =
        fleet.think_time_s * static_cast<double>(k) / std::max(1u, fleet.clients);
    c.nic.spend(net::NicState::Sleep, start);
    settle(k, "stagger", 0.0, start);
    events.push(Event{start, k, kClientStage});
    if (std::isfinite(c.departs_at)) events.push(Event{c.departs_at, k, kDeparture});
  }
  for (std::uint32_t k = 0; replication > 1 && k < fleet.clients; ++k) {
    for (std::uint32_t j = 1; j < replication; ++j) {
      const std::uint32_t peer = (k + j) % fleet.clients;
      for (std::uint32_t i = 0; i < fleet.queries_per_client; ++i) {
        const std::uint32_t id = peer * fleet.queries_per_client + i;
        units[id].live_replicas += 1;
        links.push_back(clients[k].work, id);
      }
    }
  }

  // Client k's in-flight unit's Table-1 steps: the same executor the
  // Session runs, with the candidates parked between stages.
  auto steps_of = [&](std::uint32_t k, Scheme scheme) {
    return SchemeSteps(dataset, units[clients[k].current].query, scheme,
                       base.placement.data_at_client, hybrid ? candidates[k] : no_candidates);
  };

  // --- event loop -------------------------------------------------------
  // Stages: 0 issue (after think), 1 medium-for-tx, 2 server, 3
  // medium-for-rx, 4 completion/unpack.
  double makespan = 0;
  std::vector<double> latencies;  ///< one per answered unit, fleet-wide
  latencies.reserve(units.size());
  // Clients neither dead nor parked.  The mission is over once every
  // unit is resolved and this reaches zero.
  std::uint32_t busy = fleet.clients;

  // Drops one replica of unit `u`; when that was the last live copy of
  // an unanswered unit, re-hand it to a survivor at `when` (the server
  // only learns of the loss after the timeout ladder) — unless
  // replication is off, the unit is out of re-hands, or nobody is
  // left, in which case the unit is lost.
  std::uint64_t unresolved = units.size();
  auto release_replica = [&](std::uint32_t u, double when) {
    WorkUnit& w = units[u];
    if (w.live_replicas > 0) --w.live_replicas;
    if (w.answered || w.lost || w.live_replicas > 0) return;
    if (replication <= 1 || w.reassigns >= kMaxReassigns || alive == 0) {
      w.lost = true;
      --unresolved;
      return;
    }
    ++w.reassigns;
    events.push(Event{when, u, kReassign});
  };

  // A client goes dark: its in-flight exchange is abandoned (the server
  // rolls back any answers it counted — the client never heard them),
  // its queue is orphaned, and the survivors inherit what replication
  // allows.
  auto kill_client = [&](std::uint32_t k, double now, DeathCause cause) {
    Client& c = clients[k];
    if (c.dead) return;
    c.dead = true;
    if (!c.idle) --busy;
    --alive;
    deaths.push_back({now, k, cause});
    if (trace != nullptr) trace->counter("client-deaths", 1);
    if (c.active) {
      c.answers = c.answers_at_issue;
      c.active = false;
      release_replica(c.current, now + detection_s);
    }
    for (; !c.work.empty(); links.pop_front(c.work)) {
      release_replica(links.front(c.work), now + detection_s);
    }
  };

  // Completes the in-flight unit at `done`: first answer wins, later
  // finishers are rolled back (the server already has the result and
  // must not count it twice).
  auto complete_unit = [&](std::uint32_t k, double done) {
    Client& c = clients[k];
    WorkUnit& w = units[c.current];
    const std::uint64_t delta = c.answers - c.answers_at_issue;
    if (w.answered) {
      duplicate_answers += delta;
      if (trace != nullptr && delta > 0) trace->counter("duplicate-answers", delta);
      c.answers = c.answers_at_issue;
    } else {
      w.answered = true;
      --unresolved;
      latencies.push_back(done - c.issue_time);
    }
    if (w.live_replicas > 0) --w.live_replicas;
    c.active = false;
    if (sched) {
      const double spent_j =
          c.cpu.energy().total_j() + c.nic.total_joules() - energy_at_issue_j[k];
      sched->observe_draw(k, spent_j, done - c.issue_time);
    }
    makespan = std::max(makespan, done);
  };

  // Parks a live, busy client out of pending work at `since`.
  auto park = [&](Client& c, double since) {
    c.idle = true;
    c.parked_since = since;
    --busy;
  };

  // Schedules the client's next pop: think then issue when work is
  // pending, otherwise park (a reassignment can wake it later).
  auto next_or_park = [&](std::uint32_t k, double done) {
    Client& c = clients[k];
    c.stage = 0;
    if (!c.work.empty()) {
      c.nic.spend(net::NicState::Sleep, fleet.think_time_s);
      settle(k, "think", done, done + fleet.think_time_s);
      events.push(Event{done + fleet.think_time_s, k, kClientStage});
    } else {
      park(c, done);
    }
  };

  // A leg whose retry budget ran out: the query leaves the network
  // path.  Data-holding clients re-execute locally (degraded); others
  // drop the query (failed, no latency sample) — unless replication
  // can re-hand it to another holder.  Either way the client schedules
  // its next unit — a dead link must never stall the fleet.
  auto finish_off_network = [&](std::uint32_t k, double now) {
    Client& c = clients[k];
    // Discard answers the server may have counted during this exchange
    // (stage 2 runs before a downlink loss is known): the client never
    // received them, and the local re-run below recounts from scratch.
    c.answers = c.answers_at_issue;
    double done = now;
    if (base.placement.data_at_client) {
      ++degraded;
      if (trace != nullptr) trace->counter("degraded-queries", 1);
      const double busy0 = c.cpu.busy_seconds();
      steps_of(k, Scheme::FullyAtClient).client_w1(c.cpu, c.answers);
      const double dt = c.cpu.busy_seconds() - busy0;
      c.nic.spend(net::NicState::Sleep, dt);
      done = now + dt;
      settle(k, "degraded-local", now, done);
      complete_unit(k, done);
    } else {
      ++failed;
      if (trace != nullptr) trace->counter("failed-queries", 1);
      c.active = false;
      // The timeout ladder already ran inside the transfer plan, so
      // the server knows NOW that this replica is gone.
      release_replica(c.current, now);
      makespan = std::max(makespan, done);
    }
    next_or_park(k, done);
  };

  // Stage 1 (uplink) or 3 (downlink): the leg claims the half-duplex
  // medium, a FIFO resource, and holds it until the message and its
  // delayed ACKs are through.  The leg is priced and booked exactly as
  // the Session transport prices and books it.
  auto medium_leg = [&](std::uint32_t k, double now) {
    Client& c = clients[k];
    const bool up = c.stage == 1;
    const double start = std::max(now, medium_free);
    c.nic.spend(net::NicState::Idle, start - now);
    c.cpu.wait_seconds(start - now, base.wait_policy);
    settle(k, "medium-wait", now, start);
    if (trace != nullptr) trace->counter("medium-wait-s", start - now);
    // The radio wakes to send; as in the transport, the CPU is not
    // charged for the wake-up.
    const double air_from = up ? start + c.nic.sleep_exit() : start;
    const MessageLeg leg =
        price_leg(up, up ? c.request_bytes : c.response_bytes, base.protocol, bits_per_s,
                  fault ? &*fault : nullptr, base.retry, air_from);
    const double end = air_from + book_leg(leg, c.nic, c.cpu, base.wait_policy);
    medium_free = end;  // the retransmission episode holds the channel
    medium_busy += leg.air_s + leg.ack_s;
    settle(k, up ? "tx" : "rx", start, end);
    link_faults.add(leg, c.nic, trace);
    if (!leg.plan.delivered) {
      finish_off_network(k, end);
      return;
    }
    c.stage += 1;
    events.push(Event{end, k, kClientStage});
  };

  // The reassignment survivor is the live client with the least load
  // (queued plus in-flight units), ties to the lowest id: the smallest
  // `load << 32 | id` key, with dead clients keyed out.  Only
  // replication > 1 ever reassigns, so only then is the index built.  A
  // key changes only in its own client's events and in a re-hand, so
  // the loop refreshes it at exactly those two points.
  auto survivor_key = [&](std::uint32_t k) {
    const Client& c = clients[k];
    if (c.dead) return SurvivorIndex::kNone;
    const std::uint64_t load = c.work.size + (c.active ? 1 : 0);
    return load << 32 | k;
  };
  std::optional<SurvivorIndex> survivors;
  if (replication > 1) {
    survivors.emplace(fleet.clients);
    for (std::uint32_t k = 0; k < fleet.clients; ++k) survivors->set(k, survivor_key(k));
  }

  // Re-hand an orphaned unit to the survivor above; with nobody left,
  // the unit is lost.
  auto handle_reassign = [&](std::uint32_t u, double now) {
    WorkUnit& w = units[u];
    if (w.answered || w.lost || w.live_replicas > 0) return;
    const std::uint64_t key = survivors->min();
    if (key == SurvivorIndex::kNone) {
      w.lost = true;
      --unresolved;
      return;
    }
    const auto best = static_cast<std::uint32_t>(key);  // the low 32 bits
    ++w.live_replicas;
    ++reassignments;
    if (trace != nullptr) trace->counter("reassignments", 1);
    Client& c = clients[best];
    links.push_back(c.work, u);
    survivors->set(best, survivor_key(best));
    if (c.idle && !c.wake_pending) {
      c.wake_pending = true;
      events.push(Event{std::max(now, c.parked_since), best, kClientStage});
    }
  };

  // True once client k's battery hit its cutoff, which kills it.
  auto battery_died = [&](std::uint32_t k) {
    return deaths_on && batteries[k].empty_at >= 0;
  };

  // One client event: drop it if stale, fire a death that is due,
  // wake a parked client, or advance the client one stage.
  auto handle_client_event = [&](const Event& ev) {
    Client& c = clients[ev.id];
    if (c.dead) return;  // stale event for a departed client
    if (battery_died(ev.id)) {
      kill_client(ev.id, batteries[ev.id].empty_at, DeathCause::Battery);
      return;
    }
    if (ev.kind == kDeparture || ev.time >= c.departs_at) {
      kill_client(ev.id, c.departs_at, DeathCause::Departure);
      return;
    }
    if (c.idle) {
      // Wake-up from a reassignment: account the parked stretch, then
      // fall through to issue.
      c.wake_pending = false;
      if (c.work.empty()) return;  // answered in the meantime
      c.nic.spend(net::NicState::Sleep, ev.time - c.parked_since);
      settle(ev.id, "parked", c.parked_since, ev.time);
      c.idle = false;
      ++busy;
      c.stage = 0;
    }

    switch (c.stage) {
      case 0: {
        // Units answered by another replica are skipped for free: the
        // issue handshake learns "already done" before any work runs.
        while (!c.work.empty() && units[links.front(c.work)].answered) {
          release_replica(links.front(c.work), ev.time);
          links.pop_front(c.work);
        }
        if (c.work.empty()) {
          park(c, ev.time);
          break;
        }
        c.current = links.front(c.work);
        links.pop_front(c.work);
        c.active = true;
        c.issue_time = ev.time;
        c.answers_at_issue = c.answers;
        if (sched) {
          energy_at_issue_j[ev.id] = c.cpu.energy().total_j() + c.nic.total_joules();
          // The request piggybacks the current charge; the server
          // answers with the scheme, spending its own cycles on the
          // planner probe (the decision moved off-device).
          sched->report_charge(
              ev.id, batteries_on ? batteries[ev.id].battery.remaining_fraction() : 1.0);
          c.scheme = sched->choose(ev.id, units[c.current].query, server);
        } else {
          c.scheme = base.scheme;
        }
        // w1, then (remote schemes) the request's protocol work.
        const double busy0 = c.cpu.busy_seconds();
        c.request_bytes = steps_of(ev.id, c.scheme).client_w1(c.cpu, c.answers);
        if (uses_server(c.scheme)) {
          net::charge_protocol_tx(net::wire_cost(c.request_bytes, base.protocol), c.cpu);
        }
        const double dt = c.cpu.busy_seconds() - busy0;
        c.nic.spend(net::NicState::Sleep, dt);
        settle(ev.id, "w1-compute", ev.time, ev.time + dt);
        if (!uses_server(c.scheme)) {
          // Fully at client: the query is done.
          complete_unit(ev.id, ev.time + dt);
          next_or_park(ev.id, ev.time + dt);
          break;
        }
        c.stage = 1;
        events.push(Event{ev.time + dt, ev.id, kClientStage});
        break;
      }
      case 1:  // claim the medium for the uplink
      case 3:  // claim the medium for the downlink
        medium_leg(ev.id, ev.time);
        break;
      case 2: {  // claim the server
        const double start = std::max(ev.time, server_free);
        settle(ev.id, "server-queue", ev.time, start);
        if (trace != nullptr) trace->counter("server-queue-wait-s", start - ev.time);
        const double dt = serve(
            server, base.protocol, c.request_bytes,
            [&](sim::ServerCpu& s) { return steps_of(ev.id, c.scheme).server_w2(s, c.answers); },
            c.response_bytes);
        const double end = start + dt;
        server_free = end;
        server_busy += dt;
        c.nic.spend(net::NicState::Idle, end - ev.time);
        c.cpu.wait_seconds(end - ev.time, base.wait_policy);
        settle(ev.id, "server-work", start, end);
        c.stage = 3;
        events.push(Event{end, ev.id, kClientStage});
        break;
      }
      case 4: {  // unpack, w3, complete
        const double busy0 = c.cpu.busy_seconds();
        net::charge_protocol_rx(net::wire_cost(c.response_bytes, base.protocol), c.cpu);
        steps_of(ev.id, c.scheme).client_w3(c.cpu, c.answers);
        const double dt = c.cpu.busy_seconds() - busy0;
        c.nic.spend(net::NicState::Sleep, dt);
        const double done = ev.time + dt;
        settle(ev.id, "w3-unpack", ev.time, done);
        complete_unit(ev.id, done);
        next_or_park(ev.id, done);
        break;
      }
      default: break;
    }

    // A battery that hit the cutoff during this stage kills the client
    // now, so its queue is orphaned at the death time rather than at
    // whenever its next event would have popped.
    if (!c.dead && battery_died(ev.id)) {
      kill_client(ev.id, batteries[ev.id].empty_at, DeathCause::Battery);
    }
  };

  // Mission over: every unit is answered or lost and every live client
  // is parked.  Stop before draining the remaining (departure) events —
  // a client leaving AFTER the fleet's work is done is retirement, not a
  // death the survival curve should chart.
  while (!events.empty() && (unresolved > 0 || busy > 0)) {
    const Event ev = events.top();
    events.pop();
    if (ev.kind == kReassign) {
      handle_reassign(ev.id, ev.time);
    } else {
      handle_client_event(ev);
      if (survivors) survivors->set(ev.id, survivor_key(ev.id));
    }
  }

  // --- aggregate ----------------------------------------------------------
  FleetOutcome out;
  out.makespan_s = makespan;
  out.client_energy_j.reserve(clients.size());
  double energy = 0;
  for (const Client& c : clients) {
    const double client_j = c.cpu.energy().total_j() + c.nic.total_joules();
    out.client_energy_j.push_back(client_j);
    energy += client_j;
    out.answers += c.answers;
  }
  // Sorted before summing, so the order units were answered in cannot
  // move a bit.
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    double sum = 0;
    for (const double l : latencies) sum += l;
    out.mean_latency_s = sum / static_cast<double>(latencies.size());
    out.p95_latency_s = latencies[static_cast<std::size_t>(0.95 * (latencies.size() - 1))];
  }
  out.mean_client_energy_j = energy / std::max<std::size_t>(1, clients.size());
  // Busy time also counts legs and server work of units that later
  // failed or were lost, so each resource is measured until its last
  // release when that comes after the last completion: at most 100%.
  const double medium_span_s = std::max(makespan, medium_free);
  const double server_span_s = std::max(makespan, server_free);
  if (medium_span_s > 0) out.medium_utilization = medium_busy / medium_span_s;
  if (server_span_s > 0) out.server_utilization = server_busy / server_span_s;
  out.queries_degraded = degraded;
  out.queries_failed = failed;
  out.retransmissions = link_faults.retransmissions;
  out.timeouts = link_faults.timeouts;
  out.wasted_tx_j = link_faults.wasted_tx_j;
  out.wasted_rx_j = link_faults.wasted_rx_j;

  out.clients_alive = alive;
  std::sort(deaths.begin(), deaths.end(),
            [](const ClientDeath& a, const ClientDeath& b) {
              return a.time_s != b.time_s ? a.time_s < b.time_s : a.client < b.client;
            });
  for (const ClientDeath& d : deaths) {
    (d.cause == DeathCause::Battery ? out.deaths_battery : out.deaths_departed) += 1;
  }
  out.deaths = std::move(deaths);
  out.units_total = units.size();
  for (const WorkUnit& w : units) out.units_answered += w.answered ? 1 : 0;
  out.units_lost = out.units_total - out.units_answered;
  out.duplicate_answers = duplicate_answers;
  out.reassignments = reassignments;
  out.answer_completeness =
      out.units_total > 0
          ? static_cast<double>(out.units_answered) / static_cast<double>(out.units_total)
          : 1.0;
  // Jain's index over per-client energy: (sum x)^2 / (n * sum x^2).
  double sum_j = 0;
  double sum_sq = 0;
  for (const double x : out.client_energy_j) {
    sum_j += x;
    sum_sq += x * x;
  }
  out.energy_fairness =
      sum_sq > 0 ? sum_j * sum_j /
                       (static_cast<double>(out.client_energy_j.size()) * sum_sq)
                 : 1.0;
  // Fleet-health summary counters for --metrics-out.  Gated on the
  // robustness extensions so the classic fleet's metrics export stays
  // byte-identical.
  if (trace != nullptr &&
      (batteries_on || fleet.churn.enabled() || replication > 1 || sched)) {
    trace->counter("fleet-clients-alive", out.clients_alive);
    trace->counter("fleet-units-lost", static_cast<double>(out.units_lost));
    trace->counter("fleet-duplicate-answers", static_cast<double>(out.duplicate_answers));
    trace->counter("fleet-answer-completeness", out.answer_completeness);
    trace->counter("fleet-energy-fairness", out.energy_fairness);
  }
  return out;
}

}  // namespace mosaiq::core
