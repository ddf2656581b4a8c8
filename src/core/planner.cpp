#include "core/planner.hpp"

#include <algorithm>

#include "core/query_exec.hpp"
#include "net/nic.hpp"
#include "net/protocol.hpp"
#include "rtree/costs.hpp"
#include "rtree/segment_store.hpp"

namespace mosaiq::core {

namespace {

// Calibrated per-candidate cycle costs on the single-issue client,
// aggregated from rtree/costs.hpp mixes plus memory traffic (see that
// header for the soft-float rationale).
constexpr double kFilterBaseCycles = 6000;       // path to the leaves
constexpr double kFilterCyclesPerCand = 280;     // entry scans per candidate
constexpr double kRefineRangeCyclesPerCand = 3300;
constexpr double kRefinePointCyclesPerCand = 700;
constexpr double kNnLocalCycles = 90000;         // measured scale (Fig. 6)
constexpr double kProtocolCyclesPerByte = 1.1;
constexpr double kProtocolBaseCycles = 3000;
/// Out-of-order 4-issue server retires the same work ~5x faster in
/// cycles (and runs at server_mhz).
constexpr double kServerSpeedup = 5.0;
/// Fraction of filter candidates that survive refinement (float MBRs on
/// short street segments filter tightly).
constexpr double kAnswerRatio = 0.9;
/// Request payload bytes (QueryRequest framing).
constexpr double kRequestBytes = 60;
/// Client processor+memory active power at the Table-3 nominal point
/// (125 MHz, 3.3 V); it scales with the clock and the DVFS energy
/// scale (f/f0)·(V/V0)².
constexpr double kNominalActiveW = 0.07;

}  // namespace

DensityGrid::DensityGrid(const workload::Dataset& dataset) : extent_(dataset.extent) {
  for (const auto& seg : dataset.store.segments()) {
    const geom::Point mid = seg.midpoint();
    const double fx = (mid.x - extent_.lo.x) / std::max(extent_.width(), 1e-300);
    const double fy = (mid.y - extent_.lo.y) / std::max(extent_.height(), 1e-300);
    const auto x = static_cast<std::uint32_t>(
        std::clamp(fx * kGrid, 0.0, static_cast<double>(kGrid - 1)));
    const auto y = static_cast<std::uint32_t>(
        std::clamp(fy * kGrid, 0.0, static_cast<double>(kGrid - 1)));
    ++counts_[y * kGrid + x];
    ++total_;
  }
}

double DensityGrid::estimate_records(const geom::Rect& window) const {
  const double w = std::max(extent_.width(), 1e-300);
  const double h = std::max(extent_.height(), 1e-300);
  const double cw = w / kGrid;
  const double ch = h / kGrid;
  double est = 0;
  for (std::uint32_t y = 0; y < kGrid; ++y) {
    for (std::uint32_t x = 0; x < kGrid; ++x) {
      if (counts_[y * kGrid + x] == 0) continue;
      const geom::Rect cell{{extent_.lo.x + x * cw, extent_.lo.y + y * ch},
                            {extent_.lo.x + (x + 1) * cw, extent_.lo.y + (y + 1) * ch}};
      const geom::Rect overlap = geom::intersection(cell, window);
      if (overlap.is_empty()) continue;
      est += counts_[y * kGrid + x] * (overlap.area() / cell.area());
    }
  }
  return est;
}

Planner::Planner(const workload::Dataset& dataset, const SessionConfig& cfg)
    : cfg_(cfg), grid_(dataset) {}

SchemePrediction Planner::predict(Scheme scheme, const rtree::Query& q) const {
  SchemePrediction p;
  p.scheme = scheme;

  const double client_hz = cfg_.client.clock_hz();
  const double server_hz = cfg_.server.clock_hz();
  const double bits_per_s = cfg_.channel.bandwidth_mbps * 1e6;
  const double active_w =
      kNominalActiveW * (cfg_.client.clock_mhz / 125.0) * cfg_.client.energy_scale;
  const net::NicPowerModel& nic = cfg_.nic_power;
  const double p_tx = nic.tx_mw(cfg_.channel.distance_m) * 1e-3;
  const double p_rx = nic.rx_mw * 1e-3;
  const double p_idle = nic.idle_mw * 1e-3;
  const double p_sleep = nic.sleep_mw * 1e-3;

  // --- cardinality estimates -----------------------------------------
  const auto kind = rtree::kind_of(q);
  double cand = 0;
  double refine_per_cand = kRefineRangeCyclesPerCand;
  if (kind == rtree::QueryKind::Range) {
    // Expand by a typical street length: MBR-level matches spill past
    // the window by about one segment extent.
    const geom::Rect w = std::get<rtree::RangeQuery>(q).window;
    const geom::Rect grown{{w.lo.x - 0.002, w.lo.y - 0.002}, {w.hi.x + 0.002, w.hi.y + 0.002}};
    cand = std::max(1.0, grid_.estimate_records(grown));
  } else if (kind == rtree::QueryKind::Point) {
    cand = 4.0;  // streets meeting at an intersection
    refine_per_cand = kRefinePointCyclesPerCand;
  } else if (kind == rtree::QueryKind::Route) {
    // Sum per-leg corridor estimates: each leg sweeps a thin band one
    // typical street length wide.
    const auto& rq = std::get<rtree::RouteQuery>(q);
    for (std::size_t i = 0; i < rq.legs(); ++i) {
      geom::Rect band = rq.leg(i).mbr();
      band.lo.x -= 0.002;
      band.lo.y -= 0.002;
      band.hi.x += 0.002;
      band.hi.y += 0.002;
      // Roughly half the band's records actually meet the leg.
      cand += 0.5 * grid_.estimate_records(band);
    }
    cand = std::max(1.0, cand);
    refine_per_cand = kRefineRangeCyclesPerCand;  // seg/seg tests, comparable
  }
  p.est_candidates = cand;
  p.est_answers = kind == rtree::QueryKind::Point ? 2.0 : cand * kAnswerRatio;

  // --- per-scheme compute/message structure ----------------------------
  const double filter_cycles = kFilterBaseCycles + kFilterCyclesPerCand * cand;
  const double refine_cycles = refine_per_cand * cand;
  const double record_bytes =
      cfg_.placement.data_at_client ? 4.0 : double{rtree::kRecordBytes};
  const double answer_bytes = 4 + p.est_answers * record_bytes;
  const double cand_bytes = 4 + cand * record_bytes;

  double client_cycles = 0;
  double server_cycles = 0;  // in server clocks
  double tx_payload = 0;
  double rx_payload = 0;
  bool remote = true;
  switch (scheme) {
    case Scheme::FullyAtClient:
      client_cycles = kind == rtree::QueryKind::NN || kind == rtree::QueryKind::Knn
                          ? kNnLocalCycles
                          : filter_cycles + refine_cycles;
      remote = false;
      break;
    case Scheme::FullyAtServer:
      server_cycles = (kind == rtree::QueryKind::NN || kind == rtree::QueryKind::Knn
                           ? kNnLocalCycles
                           : filter_cycles + refine_cycles) /
                      kServerSpeedup;
      tx_payload = kRequestBytes;
      rx_payload = answer_bytes;
      break;
    case Scheme::FilterClientRefineServer:
      client_cycles = filter_cycles;
      server_cycles = refine_cycles / kServerSpeedup;
      tx_payload = kRequestBytes + 4 * cand;
      rx_payload = answer_bytes;
      break;
    case Scheme::FilterServerRefineClient:
      client_cycles = refine_cycles;
      server_cycles = filter_cycles / kServerSpeedup;
      tx_payload = kRequestBytes;
      rx_payload = cand_bytes;
      break;
  }

  if (!remote) {
    const double t = client_cycles / client_hz;
    p.latency_s = t;
    p.energy_j = (active_w + p_sleep) * t;
    return p;
  }

  const net::ProtocolConfig& proto = cfg_.protocol;
  const net::WireCost tx = net::wire_cost(static_cast<std::uint64_t>(tx_payload), proto);
  const net::WireCost rx = net::wire_cost(static_cast<std::uint64_t>(rx_payload), proto);
  const double ctrl = static_cast<double>(net::control_bytes(0, proto));
  const double acks_up = static_cast<double>(net::control_bytes(rx.packets, proto)) - ctrl;
  const double acks_down = static_cast<double>(net::control_bytes(tx.packets, proto)) - ctrl;
  const double t_tx = (static_cast<double>(tx.wire_bytes) + ctrl + acks_up) * 8 / bits_per_s;
  const double t_rx = (static_cast<double>(rx.wire_bytes) + ctrl + acks_down) * 8 / bits_per_s;
  const double proto_cycles = 2 * kProtocolBaseCycles +
                              kProtocolCyclesPerByte * (tx_payload + rx_payload);
  const double t_client = (client_cycles + proto_cycles) / client_hz;
  const double t_wait = server_cycles / server_hz;

  p.latency_s = t_client + t_tx + t_rx + t_wait;
  p.energy_j = (active_w + p_sleep) * t_client + p_tx * t_tx + p_rx * t_rx + p_idle * t_wait;
  return p;
}

std::vector<SchemePrediction> Planner::options(const rtree::Query& q,
                                               rtree::ExecHooks& cpu) const {
  // Estimation cost: the histogram probe touches the overlapped cells,
  // and each candidate scheme costs one model evaluation.
  cpu.instr(rtree::InstrMix{400, 60, 140});
  cpu.read(rtree::simaddr::kScratchBase + (24u << 20), 256);

  const bool local = cfg_.placement.data_at_client;
  std::vector<SchemePrediction> out;
  out.reserve(4);
  for (const Scheme s : {Scheme::FullyAtClient, Scheme::FullyAtServer,
                         Scheme::FilterClientRefineServer, Scheme::FilterServerRefineClient}) {
    // Without the data at the client the planner also leaves out
    // filter@server/refine@client, which would ship the candidate records.
    if (!scheme_runs(s, rtree::kind_of(q), local) ||
        (s == Scheme::FilterServerRefineClient && !local)) {
      continue;
    }
    cpu.instr(rtree::InstrMix{300, 50, 90});
    out.push_back(predict(s, q));
  }
  return out;
}

Scheme Planner::choose(const rtree::Query& q, Objective objective,
                       rtree::ExecHooks& cpu) const {
  const std::vector<SchemePrediction> opts = options(q, cpu);
  const auto cost = [objective](const SchemePrediction& p) {
    return objective == Objective::Energy ? p.energy_j : p.latency_s;
  };
  return std::min_element(opts.begin(), opts.end(),
                          [&](const SchemePrediction& a, const SchemePrediction& b) {
                            return cost(a) < cost(b);
                          })
      ->scheme;
}

}  // namespace mosaiq::core
