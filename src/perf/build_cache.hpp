// Memoized dataset construction for the experiment fleet.
//
// Every harness (figure/ablation binaries, the mosaiq-bench registry,
// the CLI) starts from the same expensive, deterministic prep: generate
// a TIGER-like dataset, Hilbert-sort it, bulk-load the packed R-tree.
// BuildCache keys each dataset by a ConfigHasher digest of its full
// spec and hands out shared immutable results, so a process that
// touches the same dataset twice pays for it once.  This is the
// "reusable partition/index artifacts" discipline from the
// sweep-at-scale spatial literature (Aji et al.; Akdogan), applied
// in-process.
//
// Cached artifacts are immutable by contract (const shared_ptr); the
// simulators already treat Dataset as read-only shared input.  The
// cache itself is thread-safe: lookups and builds serialize on one
// mutex (builds are single-threaded and deterministic, and the sweep
// threads that might race here arrive before the parallel phase).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/annotations.hpp"
#include "workload/dataset.hpp"

namespace mosaiq::perf {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class BuildCache MOSAIQ_THREAD_SAFE {
 public:
  /// The process-wide shared cache.  Entries live until clear() or
  /// process exit; callers holding shared_ptrs keep theirs alive across
  /// clear().
  static BuildCache& shared();

  BuildCache() = default;
  BuildCache(const BuildCache&) = delete;
  BuildCache& operator=(const BuildCache&) = delete;

  /// The generated dataset (store + packed R-tree) for `spec`,
  /// memoized on hash_of(spec).
  std::shared_ptr<const workload::Dataset> dataset(const workload::DatasetSpec& spec);

  CacheStats stats() const;

  /// Drops every entry (tests / memory pressure).  Outstanding
  /// shared_ptrs stay valid; subsequent lookups rebuild.
  void clear();

 private:
  mutable std::mutex mu_;
  CacheStats stats_ MOSAIQ_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, std::shared_ptr<const workload::Dataset>> datasets_
      MOSAIQ_GUARDED_BY(mu_);
};

}  // namespace mosaiq::perf
