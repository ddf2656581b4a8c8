#include "net/nic.hpp"

namespace mosaiq::net {

double Nic::state_mw(NicState s) const {
  const NicPowerModel& power = profile_->power;
  switch (s) {
    case NicState::Transmit: return power.tx_mw(profile_->distance_m);
    case NicState::Receive: return power.rx_mw;
    case NicState::Idle: return power.idle_mw;
    case NicState::Sleep: return power.sleep_mw;
  }
  return 0.0;
}

void Nic::spend(NicState state, double seconds) {
  if (seconds <= 0.0) return;
  seconds_[idx(state)] += seconds;
  joules_[idx(state)] += state_mw(state) * 1e-3 * seconds;
}

double Nic::sleep_exit() {
  // The radio settles through its synthesizer power-up; charge the exit
  // window at idle power (it is not yet receiving or transmitting).
  spend(NicState::Idle, profile_->power.sleep_exit_s);
  return profile_->power.sleep_exit_s;
}

double Nic::total_joules() const {
  double t = 0.0;
  for (const double j : joules_) t += j;
  return t;
}

}  // namespace mosaiq::net
