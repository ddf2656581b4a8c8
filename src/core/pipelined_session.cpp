#include "core/pipelined_session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/query_exec.hpp"

namespace mosaiq::core {

PipelinedSession::PipelinedSession(const workload::Dataset& dataset, const SessionConfig& base,
                                   const PipelineConfig& pipeline)
    : data_(dataset),
      cfg_(base),
      pipe_(pipeline),
      client_((validate_config(base), base.client)),
      server_(base.server),
      nic_(base.nic_power, base.channel.distance_m) {
  if (cfg_.fault.enabled()) {
    throw std::invalid_argument("PipelinedSession: link faults are not modeled");
  }
}

void PipelinedSession::run_query(const rtree::Query& q) {
  if (!is_filterable(q)) {
    throw std::invalid_argument("pipelined execution requires a filter/refinement split");
  }

  const double client_hz = cfg_.client.clock_hz();
  const double bits_per_s = cfg_.channel.bandwidth_mbps * 1e6;

  // --- w1: filtering on the client, measured as one block -------------
  const double busy_f0 = client_.busy_seconds();
  std::vector<std::uint32_t> cand;
  filter_query(data_, q, client_, cand);
  const double filter_time = client_.busy_seconds() - busy_f0;

  if (cand.empty()) {
    // Nothing to refine: the query completes locally.
    nic_.spend(net::NicState::Sleep, filter_time);
    wall_seconds_ += filter_time;
    return;
  }

  const std::uint32_t n_batches =
      static_cast<std::uint32_t>((cand.size() + pipe_.batch_size - 1) / pipe_.batch_size);
  const double filter_chunk = filter_time / n_batches;

  // --- per-batch work: protocol charges, server refinement ------------
  struct Batch {
    double ptx = 0;     // client protocol-tx seconds
    double prx = 0;     // client protocol-rx seconds
    double tx = 0;      // airtime, uplink
    double rx = 0;      // airtime, downlink
    double srv = 0;     // server seconds (refine + its protocol work)
  };
  std::vector<Batch> batches(n_batches);

  // TCP control packets once per query; delayed ACKs per batch.
  const std::uint64_t ctrl = net::control_bytes(0, cfg_.protocol);
  bool first = true;

  for (std::uint32_t b = 0; b < n_batches; ++b) {
    Batch& bt = batches[b];
    const std::size_t lo = static_cast<std::size_t>(b) * pipe_.batch_size;
    const std::size_t hi = std::min(cand.size(), lo + pipe_.batch_size);

    std::vector<std::uint32_t> batch(cand.begin() + lo, cand.begin() + hi);
    SchemeSteps steps(data_, q, Scheme::FilterClientRefineServer, cfg_.placement.data_at_client,
                      batch);

    const net::WireCost tx = net::wire_cost(steps.request_bytes(), cfg_.protocol);
    const double busy0 = client_.busy_seconds();
    net::charge_protocol_tx(tx, client_);
    bt.ptx = client_.busy_seconds() - busy0;

    const std::uint64_t s0 = server_.cycles();
    net::charge_protocol_rx(tx, server_);
    const net::WireCost rx = net::wire_cost(steps.server_w2(server_, answers_), cfg_.protocol);
    net::charge_protocol_tx(rx, server_);
    bt.srv = static_cast<double>(server_.cycles() - s0) / cfg_.server.clock_hz();

    const double busy1 = client_.busy_seconds();
    net::charge_protocol_rx(rx, client_);
    bt.prx = client_.busy_seconds() - busy1;

    const std::uint64_t acks_up = net::control_bytes(rx.packets, cfg_.protocol) - ctrl;
    const std::uint64_t acks_down = net::control_bytes(tx.packets, cfg_.protocol) - ctrl;
    const std::uint64_t tx_bytes = tx.wire_bytes + acks_up + (first ? ctrl : 0);
    const std::uint64_t rx_bytes = rx.wire_bytes + acks_down + (first ? ctrl : 0);
    first = false;
    bt.tx = static_cast<double>(tx_bytes * 8) / bits_per_s;
    bt.rx = static_cast<double>(rx_bytes * 8) / bits_per_s;
    bytes_tx_ += tx_bytes;
    bytes_rx_ += rx_bytes;
  }

  // --- schedule the three resources ------------------------------------
  // Client CPU runs tasks FIFO: filter chunk b, protocol-tx b, and the
  // protocol-rx of each response when it has arrived.  The half-duplex
  // radio serializes airtime; the server refines batches in order.
  double t_cpu = 0;
  double t_radio = 0;
  double t_srv = 0;
  double first_tx_start = -1;
  double last_rx_end = 0;
  double air_time = 0;

  std::vector<double> rx_done(n_batches, 0.0);
  for (std::uint32_t b = 0; b < n_batches; ++b) {
    const Batch& bt = batches[b];
    t_cpu += filter_chunk + bt.ptx;

    const double tx_start = std::max(t_cpu, t_radio) + (b == 0 ? nic_.sleep_exit() : 0.0);
    if (first_tx_start < 0) first_tx_start = tx_start;
    const double tx_end = tx_start + bt.tx;
    t_radio = tx_end;
    air_time += bt.tx;

    const double srv_start = std::max(tx_end, t_srv);
    const double srv_end = srv_start + bt.srv;
    t_srv = srv_end;

    const double rx_start = std::max(srv_end, t_radio);
    const double rx_end = rx_start + bt.rx;
    t_radio = rx_end;
    air_time += bt.rx;
    rx_done[b] = rx_end;
    last_rx_end = rx_end;
  }
  // Unpack responses on the client as they land.
  for (std::uint32_t b = 0; b < n_batches; ++b) {
    t_cpu = std::max(t_cpu, rx_done[b]) + batches[b].prx;
  }
  const double wall = std::max(t_cpu, last_rx_end);

  // --- accounting -------------------------------------------------------
  const double busy_this_query = client_.busy_seconds() - busy_f0;
  const double cpu_gap = std::max(0.0, wall - busy_this_query);
  client_.wait_seconds(cpu_gap, cfg_.wait_policy);
  cpu_gap_seconds_ += cpu_gap;

  double tx_total = 0;
  double rx_total = 0;
  for (const Batch& bt : batches) {
    tx_total += bt.tx;
    rx_total += bt.rx;
  }
  nic_.spend(net::NicState::Transmit, tx_total);
  nic_.spend(net::NicState::Receive, rx_total);
  // Active window: from first transmission to last reception, the NIC
  // must stay reachable (IDLE in every radio gap — this is the energy
  // price of pipelining).  Before that it sleeps under the filter.
  const double active_window = last_rx_end - first_tx_start;
  nic_.spend(net::NicState::Idle, std::max(0.0, active_window - air_time));
  nic_.spend(net::NicState::Sleep, std::max(0.0, wall - active_window));

  cycles_.processor += static_cast<std::uint64_t>(std::llround(busy_this_query * client_hz));
  cycles_.nic_tx += static_cast<std::uint64_t>(std::llround(tx_total * client_hz));
  cycles_.nic_rx += static_cast<std::uint64_t>(std::llround(rx_total * client_hz));
  const double wait = std::max(0.0, wall - busy_this_query - tx_total - rx_total);
  cycles_.wait += static_cast<std::uint64_t>(std::llround(wait * client_hz));

  wall_seconds_ += wall;
  batches_ += n_batches;
  ++round_trips_;
}

stats::Outcome PipelinedSession::outcome() {
  stats::Outcome o;
  o.cycles = cycles_;
  // Processor cycles tracked per query already include everything.
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
  o.answers = answers_;
  o.wall_seconds = wall_seconds_;
  return o;
}

}  // namespace mosaiq::core
