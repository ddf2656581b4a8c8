// Transport: the client's one account, shared by every driver of the
// Table-1 schemes.
//
// A Transport owns the machines of one SessionConfig: the client and
// server models, the client's radio and, on a lossy link, the fault
// model.  It books every second, joule, cycle and byte the client
// spends, in three kinds of time:
//
//   - exchanges.  One exchange() performs the full Figure-1 round trip
//     with the Section-5.2 NIC/CPU state schedule:
//
//       protocol-tx (CPU busy, NIC sleeping)
//       sleep-exit -> TRANSMIT (CPU blocked)
//       IDLE while the server computes (CPU blocked)
//       RECEIVE (CPU blocked) -> back to SLEEP
//       protocol-rx (CPU busy, NIC sleeping)
//
//   - time off the exchanges: think time, pushes the client hears and
//     broadcast reception.  It books on a second NIC and wall-time sum
//     of its own, so the exchanges' per-state sums keep their order, and
//     snapshot() adds them in.
//   - the pipelined session's overlapped trip (core/pipelined_session.hpp).
//
// snapshot() is the only code that fills a client stats::Outcome, and
// the trace marks cover all three kinds of time, so a traced run's
// phase spans tile it exactly.
//
// Each message leg is priced once by price_leg(): data and control
// airtime, the peer's delayed ACKs and, on a lossy link,
// net::plan_transfer's retransmission episode, in which a lost frame
// costs its real NIC energy and airtime, the sender stalls for a
// timeout plus deterministic exponential backoff, and a bounded retry
// budget turns a dead link into an ExchangeStatus the caller can
// degrade on instead of a hang.  A clean link is a lossless plan priced
// in the fault-free simulator's arithmetic order, so its accounting is
// bit-identical to it.  The transport and the fleet's medium legs book
// the same priced legs through book_leg(), and the server's turn of
// every round trip is serve().
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>

#include "core/scheme.hpp"
#include "net/fault.hpp"
#include "net/nic.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"
#include "sim/client_cpu.hpp"
#include "sim/server_cpu.hpp"
#include "stats/breakdown.hpp"

namespace mosaiq::core {

struct SessionConfig {
  Scheme scheme = Scheme::FullyAtClient;
  DataPlacement placement{};
  net::Channel channel{};
  net::NicPowerModel nic_power{};
  net::ProtocolConfig protocol{};
  sim::ClientConfig client{};
  sim::ServerConfig server{};
  sim::WaitPolicy wait_policy = sim::WaitPolicy::BlockLowPower;
  net::FaultConfig fault{};  ///< link-fault injection; disabled by default
  net::RetryConfig retry{};  ///< timeout/backoff/budget when fault.enabled()
};

/// Rejects non-physical configurations (zero bandwidth, inverted MTU,
/// non-positive clocks) with std::invalid_argument.
void validate_config(const SessionConfig& cfg);

/// How one exchange() ended under a fault model.  A fault-free
/// transport always reports Delivered.
enum class ExchangeStatus : std::uint8_t {
  Delivered,     ///< request and response both arrived
  RequestLost,   ///< retry budget exhausted on the uplink; server never ran
  ResponseLost,  ///< server computed, but the response never arrived
};

/// One message leg on the half-duplex link: the sender's data and
/// control frames (every retransmission included), any timeout/backoff
/// stall between them, and the receiver's delayed ACKs.
struct MessageLeg {
  bool up = true;          ///< client -> server: the client transmits the frames
  net::TransferPlan plan;  ///< the data frames; lossless on a clean link
  double air_s = 0;        ///< data + control airtime in the leg's direction
  double ack_s = 0;        ///< the peer's delayed ACKs (0 when undelivered)
  std::uint64_t air_bytes = 0;  ///< data + control bytes put on the air
  std::uint64_t ack_bytes = 0;  ///< the peer's ACK bytes (0 when undelivered)

  /// Medium time: airtime both ways, then the stalls (0 on a clean link).
  double seconds() const { return air_s + ack_s + plan.wait_s; }
};

/// ACK share of one side's control traffic: total control minus the
/// connection-control floor (SYN/FIN).  control_bytes() is monotone in
/// its packet argument, so the subtraction cannot wrap; the assert
/// documents (and in debug builds enforces) the invariant the
/// unsigned-wrap lint rule guards against.
inline std::uint64_t ack_share(std::uint64_t total_ctrl_bytes, std::uint64_t floor_ctrl_bytes) {
  assert(total_ctrl_bytes >= floor_ctrl_bytes);
  return total_ctrl_bytes - floor_ctrl_bytes;
}

/// Prices one leg carrying `payload_bytes`.  Under `fault` the data
/// frames run a plan_transfer episode offered from `start_s`.  A clean
/// link (nullptr) is a lossless plan, every frame delivered first time,
/// with data and control airtime priced in one division.
inline MessageLeg price_leg(bool up, std::uint64_t payload_bytes,
                            const net::ProtocolConfig& protocol, double bits_per_s,
                            net::LinkFaultModel* fault, const net::RetryConfig& retry,
                            double start_s) {
  const net::WireCost msg = net::wire_cost(payload_bytes, protocol);
  const std::uint64_t ctrl = net::control_bytes(0, protocol);  // SYN/FIN etc.
  MessageLeg leg;
  leg.up = up;
  if (fault == nullptr) {
    leg.plan.frames = msg.packets;
    leg.plan.transmissions = msg.packets;
    leg.plan.air_bytes = msg.wire_bytes;
    leg.air_s = static_cast<double>((msg.wire_bytes + ctrl) * 8) / bits_per_s;
  } else {
    leg.plan = net::plan_transfer(*fault, payload_bytes, protocol.mtu_bytes,
                                  protocol.header_bytes, bits_per_s, retry, start_s);
    leg.air_s = leg.plan.air_s + static_cast<double>(ctrl * 8) / bits_per_s;
  }
  leg.air_bytes = leg.plan.air_bytes + ctrl;
  if (leg.plan.delivered) {
    leg.ack_bytes = ack_share(net::control_bytes(msg.packets, protocol), ctrl);
    leg.ack_s = static_cast<double>(leg.ack_bytes * 8) / bits_per_s;
  }
  return leg;
}

/// Books a priced leg on one client: its own frames in TRANSMIT (uplink)
/// or RECEIVE (downlink), the peer's ACKs in the other state, stalls in
/// IDLE, and the CPU blocked throughout.  Returns the leg's seconds.
inline double book_leg(const MessageLeg& leg, net::Nic& nic, sim::ClientCpu& cpu,
                       sim::WaitPolicy policy) {
  nic.spend(leg.up ? net::NicState::Transmit : net::NicState::Receive, leg.air_s);
  nic.spend(leg.up ? net::NicState::Receive : net::NicState::Transmit, leg.ack_s);
  nic.spend(net::NicState::Idle, leg.plan.wait_s);
  const double seconds = leg.seconds();
  cpu.wait_seconds(seconds, policy);
  return seconds;
}

/// The server's turn of a round trip: unpack the `request_bytes`
/// payload, run `w2(server)`, which returns the response payload size
/// (stored in `response_bytes`), and pack the response.  Returns the
/// server seconds.
template <typename W2>
double serve(sim::ServerCpu& server, const net::ProtocolConfig& protocol,
             std::uint64_t request_bytes, W2&& w2, std::uint64_t& response_bytes) {
  const std::uint64_t s0 = server.cycles();
  net::charge_protocol_rx(net::wire_cost(request_bytes, protocol), server);
  response_bytes = w2(server);
  net::charge_protocol_tx(net::wire_cost(response_bytes, protocol), server);
  // mosaiq-lint: allow(unsigned-wrap) — cycles() is a cumulative counter; it only grows
  return static_cast<double>(server.cycles() - s0) / server.config().clock_hz();
}

/// What a lossy link cost so far, summed over legs (all zero on a clean
/// link).  The wasted energies are memos: subsets of the NIC's TRANSMIT
/// and RECEIVE joules spent on frames that never arrived.
struct LinkFaultTally {
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  double wasted_tx_j = 0;
  double wasted_rx_j = 0;

  void add(const MessageLeg& leg, const net::Nic& nic, obs::TraceSink* trace) {
    const double air_w = 1e-3 * (leg.up ? nic.power().tx_mw(nic.distance_m())
                                        : nic.power().rx_mw);
    const double waste_j = air_w * leg.plan.wasted_air_s;
    (leg.up ? wasted_tx_j : wasted_rx_j) += waste_j;
    retransmissions += leg.plan.retransmissions;
    timeouts += leg.plan.timeouts;
    if (trace != nullptr && leg.plan.timeouts > 0) {
      trace->counter("retransmissions", leg.plan.retransmissions);
      trace->counter("timeouts", leg.plan.timeouts);
      trace->counter(leg.up ? "wasted-tx-j" : "wasted-rx-j", waste_j);
    }
  }
};

/// One pipelined trip as the pipelined session scheduled it: over
/// `wall_s` the client's compute since the last settle overlapped
/// `tx_s` of transmission and `rx_s` of reception; the radio held
/// reachable for `window_s`, from its first frame to its last, of which
/// `air_s` were on the air.
struct OverlappedTrip {
  double wall_s = 0;
  double window_s = 0;
  double air_s = 0;
  double tx_s = 0;
  double rx_s = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
};

class Transport {
 public:
  /// Validates `cfg` (validate_config) and builds its machines; a config
  /// with link faults enabled gets its seeded fault model.
  explicit Transport(const SessionConfig& cfg)
      : cfg_((validate_config(cfg), cfg)),
        client_(cfg.client),
        server_(cfg.server),
        nic_(cfg.nic_power, cfg.channel.distance_m),
        off_nic_(nic_.profile()) {
    if (cfg.fault.enabled()) fault_.emplace(cfg.fault);
  }

  /// One request/response round trip.  `server_work(server)` runs
  /// between the protocol phases on the server model and returns the
  /// response payload size in bytes.  Only runs when the request leg
  /// delivers; on a clean link it always runs and the status is always
  /// Delivered.
  template <typename ServerWork>
  ExchangeStatus exchange(std::uint64_t tx_payload_bytes, ServerWork&& server_work) {
    // Compute pending from before the exchange settles together with
    // the protocol work below, traced or not, so a trace cannot move a
    // bit; the trace only splits the span in two for display.
    if (trace_ != nullptr) emit_pending_sleep();
    net::charge_protocol_tx(net::wire_cost(tx_payload_bytes, cfg_.protocol), client_);
    settle_sleep_as("protocol-tx");

    wall_seconds_ += nic_.sleep_exit();
    emit_phase("sleep-exit");
    const MessageLeg up = price(true, tx_payload_bytes);
    book(up);
    if (!up.plan.delivered) return ExchangeStatus::RequestLost;

    std::uint64_t rx_payload_bytes = 0;
    const double t_server =
        serve(server_, cfg_.protocol, tx_payload_bytes, server_work, rx_payload_bytes);
    nic_.spend(net::NicState::Idle, t_server);
    client_.wait_seconds(t_server, cfg_.wait_policy);
    cycles_.wait += to_cycles(t_server);
    wall_seconds_ += t_server;
    emit_phase("server-wait");

    const MessageLeg down = price(false, rx_payload_bytes);
    book(down);
    if (!down.plan.delivered) return ExchangeStatus::ResponseLost;

    net::charge_protocol_rx(net::wire_cost(rx_payload_bytes, cfg_.protocol), client_);
    settle_sleep_as("protocol-rx");

    ++round_trips_;
    if (trace_ != nullptr) {
      trace_->counter("round-trips", 1);
      trace_->counter("bytes-tx", static_cast<double>(up.air_bytes + down.ack_bytes));
      trace_->counter("bytes-rx", static_cast<double>(down.air_bytes + up.ack_bytes));
    }
    return ExchangeStatus::Delivered;
  }

  /// User think time off the exchanges: the radio sleeps, or holds IDLE
  /// while `listening` for pushes, and the CPU blocks at low power.
  /// Think time is not a Section-4.1 cycle term, so it books no cycles.
  void think(double seconds, bool listening) {
    if (!(seconds > 0)) return;
    off_nic_.spend(listening ? net::NicState::Idle : net::NicState::Sleep, seconds);
    client_.wait_seconds(seconds, sim::WaitPolicy::BlockLowPower);
    off_wall_s_ += seconds;
    emit_phase("think");
  }

  /// A pushed message of `payload_bytes` arrives on the listening radio
  /// off the exchanges, and the client unpacks it.
  void receive_push(std::uint64_t payload_bytes) {
    const net::WireCost push = net::wire_cost(payload_bytes, cfg_.protocol);
    const double t_rx = static_cast<double>(push.wire_bits()) / bits_per_s();
    off_nic_.spend(net::NicState::Receive, t_rx);
    cycles_.nic_rx += to_cycles(t_rx);
    off_wall_s_ += t_rx;
    bytes_rx_ += push.wire_bytes;
    emit_phase("push-rx");
    net::charge_protocol_rx(push, client_);
    settle_sleep();
  }

  /// Broadcast reception of `payload_bytes` off the exchanges: the radio
  /// wakes, holds IDLE `wait_s` for the next index, receives it for
  /// `index_s`, dozes `doze_s` and receives the bucket for `bucket_s`,
  /// with the CPU blocked throughout.  The client never transmits.
  void receive_broadcast(double wait_s, double index_s, double doze_s, double bucket_s,
                         std::uint64_t payload_bytes) {
    off_wall_s_ += off_nic_.sleep_exit();
    off_nic_.spend(net::NicState::Idle, wait_s);
    off_nic_.spend(net::NicState::Receive, index_s);
    off_nic_.spend(net::NicState::Sleep, doze_s);
    off_nic_.spend(net::NicState::Receive, bucket_s);
    const double seconds = wait_s + index_s + doze_s + bucket_s;
    client_.wait_seconds(seconds, cfg_.wait_policy);
    off_wall_s_ += seconds;
    cycles_.wait += to_cycles(wait_s + doze_s);
    cycles_.nic_rx += to_cycles(index_s + bucket_s);
    bytes_rx_ += payload_bytes;
    emit_phase("broadcast-rx");
  }

  /// Books one pipelined trip: the radio wakes, then spends the trip's
  /// TRANSMIT and RECEIVE time, holds IDLE through the rest of its
  /// window and sleeps outside it; the CPU blocks whenever it is not
  /// busy.  The client's busy time so far counts as settled.
  void book_overlapped(const OverlappedTrip& trip) {
    const double busy = client_.busy_seconds() - settled_busy_seconds_;
    client_.wait_seconds(std::max(0.0, trip.wall_s - busy), cfg_.wait_policy);
    nic_.sleep_exit();  // inside the trip's wall time
    nic_.spend(net::NicState::Transmit, trip.tx_s);
    nic_.spend(net::NicState::Receive, trip.rx_s);
    nic_.spend(net::NicState::Idle, std::max(0.0, trip.window_s - trip.air_s));
    nic_.spend(net::NicState::Sleep,
               std::max(0.0, trip.wall_s - trip.window_s - cfg_.nic_power.sleep_exit_s));
    cycles_.nic_tx += to_cycles(trip.tx_s);
    cycles_.nic_rx += to_cycles(trip.rx_s);
    cycles_.wait += to_cycles(std::max(0.0, trip.wall_s - busy - trip.tx_s - trip.rx_s));
    bytes_tx_ += trip.bytes_tx;
    bytes_rx_ += trip.bytes_rx;
    wall_seconds_ += trip.wall_s;
    ++round_trips_;
    settled_busy_seconds_ = client_.busy_seconds();
  }

  /// Attribute client busy time since the last call as NIC-sleep wall
  /// time.  Call after local compute phases and before reading totals.
  void settle_sleep() { settle_sleep_as("sleep"); }

  /// Tallies a query that ended in `status` (a degraded or failed one
  /// also bumps its trace counter) and returns it.
  QueryStatus count(QueryStatus status) {
    if (status == QueryStatus::Ok) return status;
    const bool degraded = status == QueryStatus::DegradedLocal;
    ++(degraded ? degraded_ : failed_);
    if (trace_ != nullptr) trace_->counter(degraded ? "degraded-queries" : "failed-queries", 1);
    return status;
  }

  /// Attaches (or detaches, with nullptr) a span/counter sink.  With no
  /// sink the accounting is bit-identical and the only cost per phase
  /// is this pointer's null check.
  void set_trace(obs::TraceSink* trace) {
    trace_ = trace;
    if (trace_ != nullptr) reset_mark();
  }
  obs::TraceSink* trace() const { return trace_; }

  /// Wall-clock seconds accumulated so far, off the exchanges included
  /// (compute advances it on settle).
  double wall_seconds() const { return wall_seconds_ + off_wall_s_; }

  /// Settles, then assembles every total the client has booked into an
  /// Outcome.
  stats::Outcome snapshot() {
    settle_sleep();
    stats::Outcome o;
    o.cycles = cycles_;
    o.cycles.processor = client_.busy_cycles();
    o.energy.processor_j = client_.energy().total_j();
    o.energy.nic_tx_j = nic_joules(net::NicState::Transmit);
    o.energy.nic_rx_j = nic_joules(net::NicState::Receive);
    o.energy.nic_idle_j = nic_joules(net::NicState::Idle);
    o.energy.nic_sleep_j = nic_joules(net::NicState::Sleep);
    o.processor_detail = client_.energy();
    o.server_cycles = server_.cycles();
    o.bytes_tx = bytes_tx_;
    o.bytes_rx = bytes_rx_;
    o.round_trips = round_trips_;
    o.answers = answers_;
    o.wall_seconds = wall_seconds();
    o.retransmissions = static_cast<std::uint32_t>(faults_.retransmissions);
    o.timeouts = static_cast<std::uint32_t>(faults_.timeouts);
    o.wasted_tx_j = faults_.wasted_tx_j;
    o.wasted_rx_j = faults_.wasted_rx_j;
    o.queries_degraded = degraded_;
    o.queries_failed = failed_;
    return o;
  }

  const SessionConfig& config() const { return cfg_; }
  sim::ClientCpu& client() { return client_; }
  const sim::ClientCpu& client() const { return client_; }
  sim::ServerCpu& server() { return server_; }
  const sim::ServerCpu& server() const { return server_; }
  /// The radio the exchanges book on.
  const net::Nic& nic() const { return nic_; }
  /// Answers the client has received so far; the Table-1 steps add to it.
  std::uint64_t& answers() { return answers_; }

 private:
  double bits_per_s() const { return cfg_.channel.bandwidth_mbps * 1e6; }

  std::uint64_t to_cycles(double seconds) const {
    return static_cast<std::uint64_t>(std::llround(seconds * client_.config().clock_hz()));
  }

  /// Both radios' joules in `state`, the exchanges' first.
  double nic_joules(net::NicState state) const {
    return nic_.joules_in(state) + off_nic_.joules_in(state);
  }

  /// Prices a leg from the exchanges' clock, through the fault model
  /// when there is one.
  MessageLeg price(bool up, std::uint64_t payload_bytes) {
    return price_leg(up, payload_bytes, cfg_.protocol, bits_per_s(),
                     fault_ ? &*fault_ : nullptr, cfg_.retry, wall_seconds_);
  }

  /// Books a priced leg on this client's radio, CPU, cycle and byte
  /// counts and wall clock.
  void book(const MessageLeg& leg) {
    wall_seconds_ += book_leg(leg, nic_, client_, cfg_.wait_policy);
    (leg.up ? cycles_.nic_tx : cycles_.nic_rx) += to_cycles(leg.air_s);
    (leg.up ? cycles_.nic_rx : cycles_.nic_tx) += to_cycles(leg.ack_s);
    cycles_.wait += to_cycles(leg.plan.wait_s);
    (leg.up ? bytes_tx_ : bytes_rx_) += leg.air_bytes;
    (leg.up ? bytes_rx_ : bytes_tx_) += leg.ack_bytes;
    emit_phase(leg.up ? "tx" : "rx");
    faults_.add(leg, nic_, trace_);
  }

  /// settle_sleep with an explicit span name: exchange() uses it to
  /// label the busy delta as protocol work instead of plain compute.
  void settle_sleep_as(const char* phase_name) {
    const double busy = client_.busy_seconds();
    const double delta = busy - settled_busy_seconds_;
    if (delta > 0) {
      nic_.spend(net::NicState::Sleep, delta);
      wall_seconds_ += delta;
      settled_busy_seconds_ = busy;
      emit_phase(phase_name);
    }
  }

  /// Emits the compute pending since the last settle as a "sleep" span
  /// without booking it: the mark moves to where a settle would have
  /// left it, and the next settle books the whole stretch at once.
  void emit_pending_sleep() {
    const double delta = client_.busy_seconds() - settled_busy_seconds_;
    if (!(delta > 0)) return;
    const Mark now = current_mark();
    const double sleep_j = nic_.power().sleep_mw * 1e-3 * delta;
    emit_span("sleep", {now.wall_s + delta, now.joules + sleep_j, now.cycles});
  }

  // Tracing marks: every joule lands in client_.energy(), nic_ or
  // off_nic_, and every cycle in client busy cycles or cycles_, so spans
  // recorded as deltas between consecutive marks tile the run and
  // telescope to the snapshot() totals — the conservation property
  // obs::reconcile checks.  With nothing off the exchanges the off_*
  // terms are exact zeros.
  struct Mark {
    double wall_s = 0;
    double joules = 0;
    std::uint64_t cycles = 0;
  };

  Mark current_mark() const {
    return {wall_seconds_ + off_wall_s_,
            client_.energy().total_j() + nic_.total_joules() + off_nic_.total_joules(),
            client_.busy_cycles() + cycles_.nic_tx + cycles_.nic_rx + cycles_.wait};
  }

  void reset_mark() { mark_ = current_mark(); }

  void emit_phase(const char* name) {
    if (trace_ != nullptr) emit_span(name, current_mark());
  }

  void emit_span(const char* name, const Mark& now) {
    trace_->phase(name, mark_.wall_s, now.wall_s, now.joules - mark_.joules,
                  now.cycles - mark_.cycles);  // mosaiq-lint: allow(unsigned-wrap) — marks are cumulative-counter snapshots, now >= mark_ componentwise
    mark_ = now;
  }

  SessionConfig cfg_;
  sim::ClientCpu client_;
  sim::ServerCpu server_;
  net::Nic nic_;      ///< the exchanges' radio
  net::Nic off_nic_;  ///< the same radio's time off the exchanges
  std::optional<net::LinkFaultModel> fault_;

  stats::CycleBreakdown cycles_;  ///< NIC and wait cycles (processor: client_)
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t bytes_rx_ = 0;
  std::uint32_t round_trips_ = 0;
  double wall_seconds_ = 0;  ///< exchanges, settled compute and pipelined trips
  double off_wall_s_ = 0;    ///< time off the exchanges
  double settled_busy_seconds_ = 0;
  LinkFaultTally faults_;

  std::uint64_t answers_ = 0;
  std::uint32_t degraded_ = 0;
  std::uint32_t failed_ = 0;

  obs::TraceSink* trace_ = nullptr;
  Mark mark_;
};

}  // namespace mosaiq::core
