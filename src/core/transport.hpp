// Transport: the client<->server round trip shared by every driver of
// the Table-1 schemes.
//
// One exchange() performs the full Figure-1 round trip with the
// Section-5.2 NIC/CPU state schedule:
//
//   protocol-tx (CPU busy, NIC sleeping)
//   sleep-exit -> TRANSMIT (CPU blocked)
//   IDLE while the server computes (CPU blocked)
//   RECEIVE (CPU blocked) -> back to SLEEP
//   protocol-rx (CPU busy, NIC sleeping)
//
// Each message leg is priced once by price_leg(): data and control
// airtime, the peer's delayed ACKs and, with a LinkFaultModel attached
// (set_fault), net::plan_transfer's retransmission episode, in which a
// lost frame costs its real NIC energy and airtime, the sender stalls
// for a timeout plus deterministic exponential backoff, and a bounded
// retry budget turns a dead link into an ExchangeStatus the caller can
// degrade on instead of a hang.  A clean link is a lossless plan priced
// in the fault-free simulator's arithmetic order, so its accounting is
// bit-identical to it.  The Session transport and the fleet's medium
// legs book the same priced legs through book_leg().
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

#include "core/scheme.hpp"
#include "net/fault.hpp"
#include "net/nic.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"
#include "sim/client_cpu.hpp"
#include "sim/server_cpu.hpp"
#include "stats/breakdown.hpp"

namespace mosaiq::core {

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

/// What a client spends outside Transport::exchange(): think time,
/// pushes it hears, broadcast reception.  It books on a NIC of its own,
/// so the transport's per-state sums keep their order, and add_to()
/// folds it into an Outcome; an empty ledger leaves every bit as it was.
struct OffExchangeLedger {
  OffExchangeLedger(const net::NicPowerModel& power, double distance_m)
      : nic(power, distance_m) {}

  net::Nic nic;
  stats::CycleBreakdown cycles;
  double wall_s = 0;
  std::uint64_t bytes_rx = 0;

  void add_to(stats::Outcome& o) const {
    o.cycles += cycles;
    o.energy.nic_tx_j += nic.joules_in(net::NicState::Transmit);
    o.energy.nic_rx_j += nic.joules_in(net::NicState::Receive);
    o.energy.nic_idle_j += nic.joules_in(net::NicState::Idle);
    o.energy.nic_sleep_j += nic.joules_in(net::NicState::Sleep);
    o.bytes_rx += bytes_rx;
    o.wall_seconds += wall_s;
  }
};

class Transport {
 public:
  Transport(const net::Channel& channel, const net::NicPowerModel& nic_power,
            const net::ProtocolConfig& protocol, sim::WaitPolicy wait_policy,
            sim::ClientCpu& client, sim::ServerCpu& server)
      : channel_(channel),
        protocol_(protocol),
        wait_policy_(wait_policy),
        client_(client),
        server_(server),
        nic_(nic_power, channel.distance_m) {}

  /// One request/response round trip.  `server_work()` runs between the
  /// protocol phases on the server model and returns the response
  /// payload size in bytes.  Only runs when the request leg delivers;
  /// with no fault model attached it always runs and the status is
  /// always Delivered.
  template <typename ServerWork>
  ExchangeStatus exchange(std::uint64_t tx_payload_bytes, ServerWork&& server_work) {
    // Compute pending from before the exchange settles together with
    // the protocol work below, traced or not, so a trace cannot move a
    // bit; the trace only splits the span in two for display.
    if (trace_ != nullptr) emit_pending_sleep();
    const net::WireCost tx = net::wire_cost(tx_payload_bytes, protocol_);
    net::charge_protocol_tx(tx, client_);
    settle_sleep_as("protocol-tx");

    wall_seconds_ += nic_.sleep_exit();
    emit_phase("sleep-exit");
    const MessageLeg up =
        price_leg(true, tx_payload_bytes, protocol_, bits_per_s(), fault_, retry_, wall_seconds_);
    book(up);
    if (!up.plan.delivered) return ExchangeStatus::RequestLost;

    const std::uint64_t s0 = server_.cycles();
    net::charge_protocol_rx(tx, server_);
    const std::uint64_t rx_payload_bytes = server_work();
    const net::WireCost rx = net::wire_cost(rx_payload_bytes, protocol_);
    net::charge_protocol_tx(rx, server_);
    const std::uint64_t s1 = server_.cycles();
    // mosaiq-lint: allow(unsigned-wrap) — cycles() is a cumulative counter; s1 >= s0
    const double t_server = static_cast<double>(s1 - s0) / server_.config().clock_hz();
    nic_.spend(net::NicState::Idle, t_server);
    client_.wait_seconds(t_server, wait_policy_);
    cycles_.wait += to_cycles(t_server);
    wall_seconds_ += t_server;
    emit_phase("server-wait");

    const MessageLeg down =
        price_leg(false, rx_payload_bytes, protocol_, bits_per_s(), fault_, retry_, wall_seconds_);
    book(down);
    if (!down.plan.delivered) return ExchangeStatus::ResponseLost;

    net::charge_protocol_rx(rx, client_);
    settle_sleep_as("protocol-rx");

    ++round_trips_;
    if (trace_ != nullptr) {
      trace_->counter("round-trips", 1);
      trace_->counter("bytes-tx", static_cast<double>(up.air_bytes + down.ack_bytes));
      trace_->counter("bytes-rx", static_cast<double>(down.air_bytes + up.ack_bytes));
    }
    return ExchangeStatus::Delivered;
  }

  /// Attaches (or detaches, with nullptr) a link-fault model; the
  /// retry policy governs timeout/backoff/budget.
  void set_fault(net::LinkFaultModel* fault, const net::RetryConfig& retry = {}) {
    fault_ = fault;
    retry_ = retry;
  }
  const net::LinkFaultModel* fault() const { return fault_; }

  /// Attribute client busy time since the last call as NIC-sleep wall
  /// time.  Call after local compute phases and before reading totals.
  void settle_sleep() { settle_sleep_as("sleep"); }

  /// Attaches (or detaches, with nullptr) a span/counter sink.  With no
  /// sink the accounting is bit-identical and the only cost per phase
  /// is this pointer's null check.
  void set_trace(obs::TraceSink* trace) {
    trace_ = trace;
    if (trace_ != nullptr) reset_mark();
  }
  obs::TraceSink* trace() const { return trace_; }

  /// Wall-clock seconds accumulated so far (advanced on settle).
  double wall_seconds() const { return wall_seconds_; }

  /// Assembles the communication + CPU totals into an Outcome (the
  /// caller fills in answer counts).
  stats::Outcome snapshot() {
    settle_sleep();
    stats::Outcome o;
    o.cycles = cycles_;
    o.cycles.processor = client_.busy_cycles();
    o.energy.processor_j = client_.energy().total_j();
    o.energy.nic_tx_j = nic_.joules_in(net::NicState::Transmit);
    o.energy.nic_rx_j = nic_.joules_in(net::NicState::Receive);
    o.energy.nic_idle_j = nic_.joules_in(net::NicState::Idle);
    o.energy.nic_sleep_j = nic_.joules_in(net::NicState::Sleep);
    o.processor_detail = client_.energy();
    o.server_cycles = server_.cycles();
    o.bytes_tx = bytes_tx_;
    o.bytes_rx = bytes_rx_;
    o.round_trips = round_trips_;
    o.wall_seconds = wall_seconds_;
    o.retransmissions = static_cast<std::uint32_t>(faults_.retransmissions);
    o.timeouts = static_cast<std::uint32_t>(faults_.timeouts);
    o.wasted_tx_j = faults_.wasted_tx_j;
    o.wasted_rx_j = faults_.wasted_rx_j;
    return o;
  }

  const net::Nic& nic() const { return nic_; }

 private:
  double bits_per_s() const { return channel_.bandwidth_mbps * 1e6; }

  std::uint64_t to_cycles(double seconds) const {
    return static_cast<std::uint64_t>(std::llround(seconds * client_.config().clock_hz()));
  }

  /// Books a priced leg on this client's radio, CPU, cycle and byte
  /// counts and wall clock.
  void book(const MessageLeg& leg) {
    wall_seconds_ += book_leg(leg, nic_, client_, wait_policy_);
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

  // Tracing marks: every joule lands in client_.energy() or nic_, and
  // every cycle in client busy cycles or cycles_, so spans recorded as
  // deltas between consecutive marks tile the run and telescope to the
  // snapshot() totals — the conservation property obs::reconcile checks.
  struct Mark {
    double wall_s = 0;
    double joules = 0;
    std::uint64_t cycles = 0;
  };

  Mark current_mark() const {
    return {wall_seconds_, client_.energy().total_j() + nic_.total_joules(),
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

  net::Channel channel_;
  net::ProtocolConfig protocol_;
  sim::WaitPolicy wait_policy_;
  sim::ClientCpu& client_;
  sim::ServerCpu& server_;
  net::Nic nic_;

  stats::CycleBreakdown cycles_;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t bytes_rx_ = 0;
  std::uint32_t round_trips_ = 0;
  double wall_seconds_ = 0;
  double settled_busy_seconds_ = 0;

  net::LinkFaultModel* fault_ = nullptr;
  net::RetryConfig retry_;
  LinkFaultTally faults_;

  obs::TraceSink* trace_ = nullptr;
  Mark mark_;
};

}  // namespace mosaiq::core
