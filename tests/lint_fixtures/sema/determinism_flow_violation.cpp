// Fixture: determinism-flow — wall-clock engine seeds (the chrono form
// the token rule misses) of a std engine and of the lazily twisted one,
// a comparator ordering by raw pointer value, and an unordered container
// copied out through begin()/end() with no sort.
#include <chrono>
#include <cstdint>
#include <random>
#include <unordered_set>
#include <vector>

#include "rng/lazy_mt19937_64.hpp"

std::uint32_t wall_seeded() {
  std::mt19937 rng(static_cast<std::uint32_t>(  // BAD: wall-clock seed
      std::chrono::steady_clock::now().time_since_epoch().count()));
  return rng();
}

std::uint64_t lazy_wall_seeded() {
  mosaiq::rng::LazyMt19937_64 rng(static_cast<std::uint64_t>(  // BAD: wall-clock seed
      std::chrono::system_clock::now().time_since_epoch().count()));
  return rng();
}

void order_by_address(std::vector<const int*>& v) {
  std::sort(v.begin(), v.end(),
            [](const int* a, const int* b) { return a < b; });  // BAD: pointer order
}

std::vector<int> snapshot(const std::unordered_set<int>& seen) {
  std::vector<int> out(seen.begin(), seen.end());  // BAD: copies unordered order
  return out;
}
