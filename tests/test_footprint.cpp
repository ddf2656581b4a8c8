// The fleet's heap per client, counted rather than timed.
//
// This binary replaces the global operator new and delete to count
// allocations and live bytes, so it runs apart from every other suite.
// It runs the same fleet with K and with 2K clients and bounds what the
// K added clients cost: heap blocks and peak live bytes per client.  A
// per-client heap block or field that creeps back into run_fleet fails
// here on every run, where a time or RSS bound would flake.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/fleet.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_blocks{0};
std::atomic<std::int64_t> g_peak_live_blocks{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};

/// Adds `delta` to `live` and raises `peak` to the new value.
void add_live(std::atomic<std::int64_t>& live, std::atomic<std::int64_t>& peak,
              std::int64_t delta) {
  const std::int64_t now = live.fetch_add(delta) + delta;
  std::int64_t seen = peak.load();
  while (now > seen && !peak.compare_exchange_weak(seen, now)) {
  }
}

/// Each block carries its requested size in a header this wide, which
/// keeps the block max-aligned.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_new(std::size_t bytes) {
  void* raw = std::malloc(bytes + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = bytes;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  add_live(g_live_blocks, g_peak_live_blocks, 1);
  add_live(g_live_bytes, g_peak_live_bytes, static_cast<std::int64_t>(bytes));
  return static_cast<char*>(raw) + kHeader;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live_blocks.fetch_sub(1);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)));
  std::free(raw);
}

}  // namespace

// Every form that shares the header, the nothrow ones included: a
// sanitizer runtime may define those without forwarding to the forms
// above.
void* operator new(std::size_t bytes) { return counted_new(bytes); }
void* operator new[](std::size_t bytes) { return counted_new(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return counted_new(bytes);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return operator new(bytes, tag);
}
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_delete(p); }

namespace mosaiq::core {
namespace {

const workload::Dataset& data() {
  static workload::Dataset d = workload::make_pa(20000);
  return d;
}

/// One call's heap use; the peaks are above the live values before it.
struct Footprint {
  std::uint64_t allocations = 0;
  std::int64_t peak_blocks = 0;
  std::int64_t peak_bytes = 0;
};

/// One run_fleet call of the perfbench fleet_100k shape (FullyAtServer,
/// one point query per client, 0.05 s think time, no faults) with
/// `clients` clients: its allocations and its peak live heap blocks and
/// bytes, the outcome it returns included.
Footprint footprint(std::uint32_t clients) {
  SessionConfig cfg;
  cfg.scheme = Scheme::FullyAtServer;
  cfg.channel = {4.0, 1000.0};
  cfg.client = sim::client_at_ratio(1.0 / 8.0);
  FleetConfig fleet;
  fleet.clients = clients;
  fleet.queries_per_client = 1;
  fleet.think_time_s = 0.05;
  fleet.query_kind = rtree::QueryKind::Point;
  const std::uint64_t allocations = g_allocations.load();
  const std::int64_t blocks = g_live_blocks.load();
  const std::int64_t bytes = g_live_bytes.load();
  g_peak_live_blocks.store(blocks);
  g_peak_live_bytes.store(bytes);
  const FleetOutcome o = run_fleet(data(), cfg, fleet);
  EXPECT_EQ(o.units_answered, clients);
  return {g_allocations.load() - allocations, g_peak_live_blocks.load() - blocks,
          g_peak_live_bytes.load() - bytes};
}

TEST(FleetFootprint, HeapPerAddedClientIsBounded) {
  // Warm-up: builds the dataset and starts the shared pool's threads.
  footprint(1000);
  constexpr std::uint32_t kClients = 2000;
  const Footprint one = footprint(kClients);
  const Footprint two = footprint(2 * kClients);
  // Twice the clients cannot peak lower.
  ASSERT_TRUE(two.peak_bytes >= one.peak_bytes) << one.peak_bytes << " > " << two.peak_bytes;
  const auto per_client = [](double total) { return total / kClients; };
  const double allocations = per_client(static_cast<double>(two.allocations - one.allocations));
  const double blocks = per_client(static_cast<double>(two.peak_blocks - one.peak_blocks));
  const double bytes = per_client(static_cast<double>(two.peak_bytes - one.peak_bytes));
  std::printf("per added client: %.3f allocations, %.3f peak live blocks, %.1f peak live bytes\n",
              allocations, blocks, bytes);
  // Measured: 5.369 allocations, most of them the server kernel's
  // short-lived candidate, answer and traversal lists; 1.000 live
  // block at the peak, the D-cache's first set; 520.4 peak live bytes.
  // While each client kept its CPU model and its work queue in heap
  // blocks of their own, the same fleet read 8.370, 3.000 and 712.9.
  // The bounds leave about 10% headroom.
  EXPECT_LE(allocations, 5.9) << "allocations per added client";
  EXPECT_LE(blocks, 1.1) << "peak live heap blocks per added client";
  EXPECT_LE(bytes, 572.0) << "peak live heap bytes per added client";
}

}  // namespace
}  // namespace mosaiq::core
