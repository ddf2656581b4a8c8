#include "core/pipelined_session.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/query_exec.hpp"

namespace mosaiq::core {

PipelinedSession::PipelinedSession(const workload::Dataset& dataset, const SessionConfig& base,
                                   const PipelineConfig& pipeline)
    : data_(dataset), pipe_(pipeline), transport_(base) {
  if (base.fault.enabled()) {
    throw std::invalid_argument("PipelinedSession: link faults are not modeled");
  }
}

void PipelinedSession::run_query(const rtree::Query& q) {
  if (!is_filterable(q)) {
    throw std::invalid_argument("pipelined execution requires a filter/refinement split");
  }

  const SessionConfig& cfg = transport_.config();
  sim::ClientCpu& client = transport_.client();
  const double bits_per_s = cfg.channel.bandwidth_mbps * 1e6;

  // --- w1: filtering on the client, measured as one block -------------
  const double busy_f0 = client.busy_seconds();
  std::vector<std::uint32_t> cand;
  filter_query(data_, q, client, cand);
  const double filter_time = client.busy_seconds() - busy_f0;

  if (cand.empty()) {
    // Nothing to refine: the query completes locally.
    transport_.settle_sleep();
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
  OverlappedTrip trip;

  // TCP control packets once per query; delayed ACKs per batch.
  const std::uint64_t ctrl = net::control_bytes(0, cfg.protocol);
  bool first = true;

  for (std::uint32_t b = 0; b < n_batches; ++b) {
    Batch& bt = batches[b];
    const std::size_t lo = static_cast<std::size_t>(b) * pipe_.batch_size;
    const std::size_t hi = std::min(cand.size(), lo + pipe_.batch_size);

    std::vector<std::uint32_t> batch(cand.begin() + lo, cand.begin() + hi);
    SchemeSteps steps(data_, q, Scheme::FilterClientRefineServer, cfg.placement.data_at_client,
                      batch);

    const std::uint64_t request_bytes = steps.request_bytes();
    const net::WireCost tx = net::wire_cost(request_bytes, cfg.protocol);
    const double busy0 = client.busy_seconds();
    net::charge_protocol_tx(tx, client);
    bt.ptx = client.busy_seconds() - busy0;

    std::uint64_t response_bytes = 0;
    bt.srv = serve(
        transport_.server(), cfg.protocol, request_bytes,
        [&](sim::ServerCpu& server) { return steps.server_w2(server, transport_.answers()); },
        response_bytes);
    const net::WireCost rx = net::wire_cost(response_bytes, cfg.protocol);

    const double busy1 = client.busy_seconds();
    net::charge_protocol_rx(rx, client);
    bt.prx = client.busy_seconds() - busy1;

    const std::uint64_t acks_up = ack_share(net::control_bytes(rx.packets, cfg.protocol), ctrl);
    const std::uint64_t acks_down = ack_share(net::control_bytes(tx.packets, cfg.protocol), ctrl);
    const std::uint64_t tx_bytes = tx.wire_bytes + acks_up + (first ? ctrl : 0);
    const std::uint64_t rx_bytes = rx.wire_bytes + acks_down + (first ? ctrl : 0);
    first = false;
    bt.tx = static_cast<double>(tx_bytes * 8) / bits_per_s;
    bt.rx = static_cast<double>(rx_bytes * 8) / bits_per_s;
    trip.tx_s += bt.tx;
    trip.rx_s += bt.rx;
    trip.bytes_tx += tx_bytes;
    trip.bytes_rx += rx_bytes;
  }

  // --- schedule the three resources ------------------------------------
  // Client CPU runs tasks FIFO: filter chunk b, protocol-tx b, and the
  // protocol-rx of each response when it has arrived.  The half-duplex
  // radio serializes airtime, after waking from SLEEP for the first
  // frame; the server refines batches in order.
  double t_cpu = 0;
  double t_radio = 0;
  double t_srv = 0;
  double first_tx_start = -1;
  double last_rx_end = 0;

  std::vector<double> rx_done(n_batches, 0.0);
  for (std::uint32_t b = 0; b < n_batches; ++b) {
    const Batch& bt = batches[b];
    t_cpu += filter_chunk + bt.ptx;

    const double tx_start =
        std::max(t_cpu, t_radio) + (b == 0 ? cfg.nic_power.sleep_exit_s : 0.0);
    if (first_tx_start < 0) first_tx_start = tx_start;
    const double tx_end = tx_start + bt.tx;
    t_radio = tx_end;
    trip.air_s += bt.tx;

    const double srv_start = std::max(tx_end, t_srv);
    const double srv_end = srv_start + bt.srv;
    t_srv = srv_end;

    const double rx_start = std::max(srv_end, t_radio);
    const double rx_end = rx_start + bt.rx;
    t_radio = rx_end;
    trip.air_s += bt.rx;
    rx_done[b] = rx_end;
    last_rx_end = rx_end;
  }
  // Unpack responses on the client as they land.
  for (std::uint32_t b = 0; b < n_batches; ++b) {
    t_cpu = std::max(t_cpu, rx_done[b]) + batches[b].prx;
  }
  trip.wall_s = std::max(t_cpu, last_rx_end);

  // Active window: from first transmission to last reception, the NIC
  // must stay reachable (IDLE in every radio gap — this is the energy
  // price of pipelining).
  trip.window_s = last_rx_end - first_tx_start;
  transport_.book_overlapped(trip);
  batches_ += n_batches;
}

}  // namespace mosaiq::core
