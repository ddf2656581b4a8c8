#include "perf/build_cache.hpp"

#include "perf/config_hash.hpp"

namespace mosaiq::perf {

BuildCache& BuildCache::shared() {
  static BuildCache cache;
  return cache;
}

std::shared_ptr<const workload::Dataset> BuildCache::dataset(const workload::DatasetSpec& spec) {
  const std::uint64_t key = hash_of(spec);
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = datasets_.find(key);
  if (it != datasets_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  auto built = std::make_shared<const workload::Dataset>(workload::make_dataset(spec));
  datasets_.emplace(key, built);
  return built;
}

CacheStats BuildCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void BuildCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  datasets_.clear();
  stats_ = {};
}

}  // namespace mosaiq::perf
