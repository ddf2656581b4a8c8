#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mosaiq::sim {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  assert(std::has_single_bit(cfg.line_bytes));
  assert(cfg.assoc >= 1 && cfg.assoc <= kRankMask + 1);
  assert(cfg.size_bytes % (cfg.line_bytes * cfg.assoc) == 0);
  n_sets_ = cfg.size_bytes / (cfg.line_bytes * cfg.assoc);
  assert(std::has_single_bit(n_sets_));
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg.line_bytes));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(n_sets_));
}

Cache::AccessResult Cache::access_line(std::uint64_t line_addr, bool is_write) {
  const std::uint64_t tag = line_addr >> set_shift_;
  assert(tag >> (64 - kTagShift) == 0);  // simulated addresses sit far below 2^56
  const std::uint64_t key = (tag << kTagShift) | kValid;
  const std::uint32_t assoc = cfg_.assoc;
  const std::size_t base = (line_addr & (n_sets_ - 1)) * assoc;
  if (base >= lines_.size()) [[unlikely]] return access_new_set(line_addr, is_write);
  std::uint64_t* set = &lines_[base];

  // One branch-free pass: the hit way, or else the LRU way (rank
  // assoc-1, which is an invalid way whenever the set has one).
  std::uint32_t hit_way = assoc;
  std::uint32_t victim = 0;
  for (std::uint32_t w = 0; w < assoc; ++w) {
    const std::uint64_t l = set[w];
    hit_way = (l & kKeyMask) == key ? w : hit_way;
    victim = (l & kRankMask) == assoc - 1 ? w : victim;
  }
  const bool hit = hit_way < assoc;
  const std::uint32_t way = hit ? hit_way : victim;
  const std::uint64_t old = set[way];
  const bool writeback = !hit && (old & kDirty) != 0;  // only valid lines are dirty
  ++stats_.accesses;
  stats_.hits += hit;
  stats_.misses += !hit;
  stats_.writebacks += writeback;

  // Move `way` to the front: every more recent way ages by one.  A miss
  // takes the victim's rank, assoc-1, so every other way ages.
  const std::uint64_t rank = old & kRankMask;
  if (rank != 0) {
    for (std::uint32_t w = 0; w < assoc; ++w) set[w] += (set[w] & kRankMask) < rank;
  }
  const std::uint64_t dirty = is_write ? kDirty : 0;
  set[way] = hit ? (old & ~kRankMask) | dirty : key | dirty;  // write-allocate
  last_line_ = line_addr;
  last_slot_ = base + way;
  return {hit, writeback};
}

Cache::AccessResult Cache::access_new_set(std::uint64_t line_addr, bool is_write) {
  // One allocation, then every new set as a fully stored cache would
  // start it: invalid, ranks 0..assoc-1.
  const std::size_t words = ((line_addr & (n_sets_ - 1)) + 1) * cfg_.assoc;
  if (words > lines_.capacity()) {
    const std::size_t all = std::size_t{n_sets_} * cfg_.assoc;
    lines_.reserve(std::min(all, std::max(words, 2 * lines_.capacity())));
  }
  while (lines_.size() < words) {
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) lines_.push_back(w);
  }
  return access_line(line_addr, is_write);
}

bool Cache::probe(std::uint64_t addr) const {
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::uint64_t key = ((line_addr >> set_shift_) << kTagShift) | kValid;
  const std::size_t base = (line_addr & (n_sets_ - 1)) * cfg_.assoc;
  if (base >= lines_.size()) return false;  // an untouched set holds no line
  for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
    if ((lines_[base + w] & kKeyMask) == key) return true;
  }
  return false;
}

void Cache::flush() {
  for (std::uint64_t& l : lines_) {
    if ((l & kDirty) != 0) ++stats_.writebacks;
    l &= kRankMask;  // invalid, rank kept: still a permutation per set
  }
  last_line_ = kNoLine;
}

}  // namespace mosaiq::sim
