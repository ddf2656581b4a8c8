#include "sim/server_cpu.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace mosaiq::sim {

namespace {

/// Slots per TLB entry, before rounding up to a power of two.
constexpr std::uint32_t kTlbSlotsPerEntry = 16;

/// Fibonacci hashing: the slot is the top bits of page * 2^64 / phi.
constexpr std::uint64_t kTlbHashMul = 0x9e3779b97f4a7c15ull;

}  // namespace

ServerCpu::ServerCpu(const ServerConfig& cfg)
    : cfg_(cfg),
      l1d_(cfg.l1d),
      l2_(cfg.l2),
      line_shift_(static_cast<unsigned>(std::countr_zero(cfg.l1d.line_bytes))),
      page_shift_(static_cast<unsigned>(std::countr_zero(cfg.page_bytes))),
      tlb_(cfg.tlb_entries),
      tlb_slot_(std::bit_ceil(kTlbSlotsPerEntry * cfg.tlb_entries)),
      tlb_shift_(64 - static_cast<unsigned>(std::countr_zero(tlb_slot_.size()))) {
  assert(std::has_single_bit(cfg.page_bytes));  // l1d_ checks its line size
  assert(cfg.tlb_entries >= 1);
  assert(cfg.tlb_entries - 1 <= std::numeric_limits<std::uint16_t>::max());
  if (cfg.disk_backed) {
    // Page-granular fully-associative-ish buffer cache (16-way LRU).
    const std::uint32_t ways = 16;
    std::uint64_t sz = cfg.buffer_cache_bytes;
    // Round down to a power-of-two set count the Cache model accepts.
    std::uint64_t sets = sz / (std::uint64_t{cfg.io_page_bytes} * ways);
    std::uint64_t pow2 = 1;
    while (pow2 * 2 <= sets) pow2 *= 2;
    sets = std::max<std::uint64_t>(1, pow2);
    buffer_cache_.emplace(CacheConfig{
        static_cast<std::uint32_t>(sets * ways * cfg.io_page_bytes), ways,
        cfg.io_page_bytes});
  }
}

bool ServerCpu::tlb_lookup(std::uint64_t page) {
  // The caller has ruled out tlb_mru_page_.
  ++tlb_tick_;
  tlb_mru_page_ = page;
  // Because a page is resident at most once, an entry the slot names
  // that holds it is the entry the scan would find.
  std::uint16_t& slot = tlb_slot_[(page * kTlbHashMul) >> tlb_shift_];
  if (tlb_[slot].page == page) {
    tlb_[slot].lru = tlb_tick_;
    return true;
  }
  // Two flat passes: the page, then (on a miss) the LRU victim.
  const std::size_t n = tlb_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (tlb_[i].page == page) {
      tlb_[i].lru = tlb_tick_;
      slot = static_cast<std::uint16_t>(i);
      return true;
    }
  }
  // The first entry with the lowest tick.  Ticks are unique except the
  // initial zeros, where the lowest index wins, as a strict compare
  // against the victim's tick does.
  std::size_t victim = 0;
  std::uint64_t oldest = tlb_[0].lru;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t lru = tlb_[i].lru;
    const bool older = lru < oldest;
    oldest = older ? lru : oldest;
    victim = older ? i : victim;
  }
  ++tlb_misses_;
  tlb_[victim] = TlbEntry{page, tlb_tick_};
  slot = static_cast<std::uint16_t>(victim);
  return false;
}

void ServerCpu::disk_access(std::uint64_t addr, bool is_write) {
  const auto r = buffer_cache_->access(addr, is_write);
  if (r.hit) return;
  ++bc_misses_;
  const std::uint64_t page = addr / cfg_.io_page_bytes;
  disk_seconds_ += (page == last_page_ + 1) ? cfg_.disk.sequential_page_s(cfg_.io_page_bytes)
                                            : cfg_.disk.random_page_s(cfg_.io_page_bytes);
  last_page_ = page;
}

void ServerCpu::l1d_miss(std::uint64_t addr, bool is_write) {
  const auto r2 = l2_.access(addr, is_write);
  if (r2.hit) {
    stall_cycles_ += cfg_.l2_hit_cycles;
  } else {
    stall_cycles_ += cfg_.l2_hit_cycles + cfg_.mem_latency_cycles;
  }
}

std::uint64_t ServerCpu::cycles() const {
  const double issue_cycles =
      static_cast<double>(instructions_) / static_cast<double>(cfg_.issue_width);
  const double visible_stalls = stall_cycles_ * (1.0 - cfg_.stall_overlap);
  const double disk_cycles = disk_seconds_ * cfg_.clock_hz();
  return static_cast<std::uint64_t>(std::ceil(issue_cycles + visible_stalls + disk_cycles));
}

}  // namespace mosaiq::sim
