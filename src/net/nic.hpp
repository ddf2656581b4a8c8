// Wireless NIC power/timing model (paper Table 2, LMX3162-based).
//
// Four power states: TRANSMIT / RECEIVE / IDLE / SLEEP.  SLEEP draws the
// least power but is physically disconnected: it cannot sense incoming
// traffic and pays a 470 µs exit latency.  IDLE can sense a message and
// transitions to RECEIVE instantly.  Transmit power depends on the
// distance to the base station through a first-order radio model fitted
// to the paper's two published points (1089.1 mW @ 100 m, 3089.1 mW
// @ 1 km): P_tx(d) = P_elec + k·d².  The power model and the distance
// live in one immutable NicProfile that every radio of a configuration
// can share, as a transport's two radios and the fleet's radios do.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace mosaiq::net {

enum class NicState : std::uint8_t { Transmit, Receive, Idle, Sleep };

inline const char* name_of(NicState s) {
  switch (s) {
    case NicState::Transmit: return "TRANSMIT";
    case NicState::Receive: return "RECEIVE";
    case NicState::Idle: return "IDLE";
    case NicState::Sleep: return "SLEEP";
  }
  return "?";
}

struct NicPowerModel {
  double rx_mw = 165.0;
  double idle_mw = 100.0;
  double sleep_mw = 19.8;
  double sleep_exit_s = 470e-6;

  // First-order radio model P_tx(d) = elec + k * d^2, fitted to the
  // paper's 100 m and 1 km points.
  double tx_elec_mw = 1068.8989898989899;
  double tx_amp_mw_per_m2 = 2.0202020202020203e-3;

  double tx_mw(double distance_m) const {
    return tx_elec_mw + tx_amp_mw_per_m2 * distance_m * distance_m;
  }
};

/// What every radio of one configuration shares; immutable once built.
struct NicProfile {
  NicPowerModel power;
  double distance_m = 1000.0;
};

/// Accumulates time and energy per NIC state.
class Nic {
 public:
  /// A radio with its own profile.
  Nic(const NicPowerModel& power, double distance_m)
      : profile_(std::make_shared<const NicProfile>(NicProfile{power, distance_m})) {}
  /// A radio sharing `profile` with other radios of the same configuration.
  explicit Nic(std::shared_ptr<const NicProfile> profile) : profile_(std::move(profile)) {}

  /// Spend `seconds` in `state`.
  void spend(NicState state, double seconds);

  /// Wake from SLEEP: pays the exit latency at idle power and returns it
  /// (the caller adds it to wall time).
  double sleep_exit();

  double seconds_in(NicState s) const { return seconds_[idx(s)]; }
  double joules_in(NicState s) const { return joules_[idx(s)]; }
  double total_joules() const;
  double distance_m() const { return profile_->distance_m; }
  const NicPowerModel& power() const { return profile_->power; }
  const std::shared_ptr<const NicProfile>& profile() const { return profile_; }

 private:
  static constexpr std::size_t idx(NicState s) { return static_cast<std::size_t>(s); }
  double state_mw(NicState s) const;

  std::shared_ptr<const NicProfile> profile_;
  std::array<double, 4> seconds_{};
  std::array<double, 4> joules_{};
};

}  // namespace mosaiq::net
