// Bitwise stats::Outcome and core::FleetOutcome comparison for the
// determinism and tracing pins.  Doubles are compared as bit patterns: "close enough" would hide
// order-dependent summation.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/fleet.hpp"
#include "stats/breakdown.hpp"

namespace mosaiq::test_support {

inline void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << what;
}

inline void expect_bit_identical(const stats::Outcome& a, const stats::Outcome& b) {
  EXPECT_EQ(a.cycles.processor, b.cycles.processor);
  EXPECT_EQ(a.cycles.nic_tx, b.cycles.nic_tx);
  EXPECT_EQ(a.cycles.nic_rx, b.cycles.nic_rx);
  EXPECT_EQ(a.cycles.wait, b.cycles.wait);
  expect_bits(a.energy.processor_j, b.energy.processor_j, "processor_j");
  expect_bits(a.energy.nic_tx_j, b.energy.nic_tx_j, "nic_tx_j");
  expect_bits(a.energy.nic_rx_j, b.energy.nic_rx_j, "nic_rx_j");
  expect_bits(a.energy.nic_idle_j, b.energy.nic_idle_j, "nic_idle_j");
  expect_bits(a.energy.nic_sleep_j, b.energy.nic_sleep_j, "nic_sleep_j");
  expect_bits(a.processor_detail.datapath_j, b.processor_detail.datapath_j, "datapath_j");
  expect_bits(a.processor_detail.clock_j, b.processor_detail.clock_j, "clock_j");
  expect_bits(a.processor_detail.icache_j, b.processor_detail.icache_j, "icache_j");
  expect_bits(a.processor_detail.dcache_j, b.processor_detail.dcache_j, "dcache_j");
  expect_bits(a.processor_detail.bus_j, b.processor_detail.bus_j, "bus_j");
  expect_bits(a.processor_detail.dram_j, b.processor_detail.dram_j, "dram_j");
  expect_bits(a.processor_detail.idle_j, b.processor_detail.idle_j, "idle_j");
  EXPECT_EQ(a.server_cycles, b.server_cycles);
  EXPECT_EQ(a.bytes_tx, b.bytes_tx);
  EXPECT_EQ(a.bytes_rx, b.bytes_rx);
  EXPECT_EQ(a.round_trips, b.round_trips);
  EXPECT_EQ(a.answers, b.answers);
  expect_bits(a.wall_seconds, b.wall_seconds, "wall_seconds");
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.timeouts, b.timeouts);
  expect_bits(a.wasted_tx_j, b.wasted_tx_j, "wasted_tx_j");
  expect_bits(a.wasted_rx_j, b.wasted_rx_j, "wasted_rx_j");
  EXPECT_EQ(a.queries_degraded, b.queries_degraded);
  EXPECT_EQ(a.queries_failed, b.queries_failed);
}

/// Every FleetOutcome field compared as bits (doubles) or exact values,
/// including the death log and per-client energy vectors.
inline void expect_fleet_bit_identical(const core::FleetOutcome& a, const core::FleetOutcome& b) {
  expect_bits(a.makespan_s, b.makespan_s, "makespan_s");
  expect_bits(a.mean_latency_s, b.mean_latency_s, "mean_latency_s");
  expect_bits(a.p95_latency_s, b.p95_latency_s, "p95_latency_s");
  expect_bits(a.mean_client_energy_j, b.mean_client_energy_j, "mean_client_energy_j");
  expect_bits(a.medium_utilization, b.medium_utilization, "medium_utilization");
  expect_bits(a.server_utilization, b.server_utilization, "server_utilization");
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.queries_degraded, b.queries_degraded);
  EXPECT_EQ(a.queries_failed, b.queries_failed);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.timeouts, b.timeouts);
  expect_bits(a.wasted_tx_j, b.wasted_tx_j, "wasted_tx_j");
  expect_bits(a.wasted_rx_j, b.wasted_rx_j, "wasted_rx_j");
  EXPECT_EQ(a.clients_alive, b.clients_alive);
  EXPECT_EQ(a.deaths_battery, b.deaths_battery);
  EXPECT_EQ(a.deaths_departed, b.deaths_departed);
  EXPECT_EQ(a.units_total, b.units_total);
  EXPECT_EQ(a.units_answered, b.units_answered);
  EXPECT_EQ(a.units_lost, b.units_lost);
  EXPECT_EQ(a.duplicate_answers, b.duplicate_answers);
  EXPECT_EQ(a.reassignments, b.reassignments);
  expect_bits(a.energy_fairness, b.energy_fairness, "energy_fairness");
  expect_bits(a.answer_completeness, b.answer_completeness, "answer_completeness");
  ASSERT_EQ(a.deaths.size(), b.deaths.size());
  for (std::size_t i = 0; i < a.deaths.size(); ++i) {
    expect_bits(a.deaths[i].time_s, b.deaths[i].time_s, "death time");
    EXPECT_EQ(a.deaths[i].client, b.deaths[i].client);
    EXPECT_EQ(a.deaths[i].cause, b.deaths[i].cause);
  }
  ASSERT_EQ(a.client_energy_j.size(), b.client_energy_j.size());
  for (std::size_t k = 0; k < a.client_energy_j.size(); ++k) {
    expect_bits(a.client_energy_j[k], b.client_energy_j[k], "client_energy_j");
  }
}

}  // namespace mosaiq::test_support
