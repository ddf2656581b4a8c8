#include "net/fault.hpp"

#include <cmath>
#include <limits>

#include "net/channel_model.hpp"
#include "rng/lazy_mt19937_64.hpp"

namespace mosaiq::net {

LinkFaultModel::LinkFaultModel(const FaultConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {}

bool LinkFaultModel::link_down(double time_s) const {
  for (const OutageWindow& w : cfg_.outages) {
    if (time_s >= w.begin_s && time_s < w.end_s) return true;
  }
  if (cfg_.outage_rate_per_s > 0.0 && cfg_.outage_duration_s > 0.0) {
    const double period_s = 1.0 / cfg_.outage_rate_per_s;
    if (std::fmod(time_s, period_s) < cfg_.outage_duration_s) return true;
  }
  return false;
}

bool LinkFaultModel::deliver(std::uint32_t frame_bytes, double time_s) {
  ++frames_offered_;
  // Outage loss is schedule-driven: the loss-model draws below never
  // run, so this arm must consume zero variates for the stream (and
  // everything after the outage) to stay aligned with a run whose
  // outage windows differ.  tests/test_fault.cpp pins the invariant.
  if (link_down(time_s)) {
    ++frames_lost_;
    align_rng(rng_, 0);
    return false;
  }
  bool lost = false;
  switch (cfg_.model) {
    case LossModel::None: break;
    case LossModel::IndependentBer:
      lost = uniform_(rng_) >= frame_success_probability(cfg_.ber, frame_bytes);
      break;
    case LossModel::GilbertElliott: {
      const double flip = uniform_(rng_);
      if (ge_bad_) {
        if (flip < cfg_.ge_p_bad_to_good) ge_bad_ = false;
      } else {
        if (flip < cfg_.ge_p_good_to_bad) ge_bad_ = true;
      }
      lost = uniform_(rng_) < (ge_bad_ ? cfg_.ge_loss_bad : cfg_.ge_loss_good);
      break;
    }
  }
  if (lost) ++frames_lost_;
  return !lost;
}

TransferPlan plan_transfer(LinkFaultModel& fault, std::uint64_t payload_bytes,
                           std::uint32_t mtu_bytes, std::uint32_t header_bytes,
                           double bits_per_s, const RetryConfig& retry, double start_s) {
  TransferPlan plan;
  // Framing mirrors net::wire_cost(): at least one frame, payload split
  // into (mtu - header)-byte chunks, every frame carrying the header.
  const std::uint64_t per_frame_payload = mtu_bytes > header_bytes ? mtu_bytes - header_bytes : 1;
  std::uint64_t remaining = payload_bytes > 0 ? payload_bytes : 1;
  const double t_ack_s = static_cast<double>(header_bytes) * 8.0 / bits_per_s;

  while (remaining > 0) {
    const std::uint64_t chunk = remaining < per_frame_payload ? remaining : per_frame_payload;
    const std::uint32_t frame_bytes = header_bytes + static_cast<std::uint32_t>(chunk);
    const double t_frame_s = static_cast<double>(frame_bytes) * 8.0 / bits_per_s;
    const double frame_rtt_s = t_frame_s + t_ack_s;
    ++plan.frames;
    std::uint32_t losses = 0;
    for (;;) {
      ++plan.transmissions;
      const bool ok = fault.deliver(frame_bytes, start_s + plan.air_s + plan.wait_s);
      plan.air_s += t_frame_s;
      plan.air_bytes += frame_bytes;
      if (ok) break;
      ++losses;
      ++plan.timeouts;
      plan.wasted_air_s += t_frame_s;
      plan.wait_s += timeout_s(frame_rtt_s, retry);
      if (losses > retry.retry_budget) {
        plan.delivered = false;
        return plan;
      }
      plan.wait_s += backoff_s(frame_rtt_s, losses);
      ++plan.retransmissions;
    }
    remaining -= chunk;
  }
  return plan;
}

double scheduled_departure_s(const ChurnConfig& cfg, std::uint32_t client) {
  // mosaiq-lint: allow(rng-stream-balance) — the engine below is local and
  // freshly seeded from (seed, client); the disabled path has no stream to
  // stay aligned with.
  if (!cfg.enabled()) return std::numeric_limits<double>::infinity();
  // One seeded engine per (seed, client): the draw is independent of
  // fleet event interleaving, so the schedule replays bit-identically
  // and adding clients never perturbs existing departures.  The golden
  // ratio multiplier decorrelates adjacent client streams.  The lazy
  // engine draws std::mt19937_64's sequence without twisting the whole
  // state for one number.
  rng::LazyMt19937_64 rng(cfg.seed * 0x9e3779b97f4a7c15ULL + client + 1);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const double u = uniform(rng);
  // Exponential via inversion; -log1p(-u) is exact near u = 0.
  const double uptime_s = -std::log1p(-u) / cfg.departure_rate_per_s;
  return cfg.min_uptime_s + uptime_s;
}

}  // namespace mosaiq::net
