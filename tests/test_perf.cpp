// Perf-layer contracts (ISSUE 5): the shared ThreadPool must reuse its
// workers across batches (no per-call spawning), stay deterministic and
// usable after a job throws, and run nested submissions inline; the
// BuildCache must memoize on the full configuration hash; the
// BENCH_*.json artifact must round-trip and the comparator must honor
// the documented exit-code contract.  Everything here is synthetic and
// timing-free — the only clocks in this file are the ones under test.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "perf/bench_json.hpp"
#include "perf/benchmark.hpp"
#include "perf/build_cache.hpp"
#include "perf/config_hash.hpp"
#include "perf/thread_pool.hpp"
#include "stats/parallel.hpp"

namespace mosaiq {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPool, ReusesWorkersAcrossBatches) {
  perf::ThreadPool& pool = perf::ThreadPool::shared();
  // Force construction + one batch so the worker set exists.
  pool.run(64, [](std::size_t) {});
  const std::uint64_t started = pool.threads_started();
  EXPECT_EQ(started, pool.workers());
  for (int round = 0; round < 8; ++round) {
    const auto out =
        stats::parallel_map<std::size_t>(257, [](std::size_t i) { return i + 1; });
    ASSERT_EQ(out.size(), 257u);
    EXPECT_EQ(out[256], 257u);
  }
  // The reuse guarantee: a fork-join implementation would have grown
  // this by workers() per call.
  EXPECT_EQ(pool.threads_started(), started);
}

TEST(ThreadPool, DeterministicResultsAcrossRuns) {
  auto run = [] {
    return stats::parallel_map<std::uint64_t>(500, [](std::size_t i) {
      std::uint64_t acc = 0;
      for (std::size_t k = 0; k <= i; ++k) acc = acc * 31 + k;
      return acc;
    });
  };
  EXPECT_EQ(run(), run());
}

TEST(ThreadPool, UsableAfterJobThrows) {
  perf::ThreadPool& pool = perf::ThreadPool::shared();
  EXPECT_THROW(pool.run(128,
                        [](std::size_t i) {
                          if (i == 17) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool must quiesce cleanly and accept the next batch.
  std::atomic<std::size_t> done{0};
  pool.run(128, [&](std::size_t) { done.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(done.load(), 128u);
  EXPECT_THROW(pool.run(8, [](std::size_t) { throw std::logic_error("again"); }),
               std::logic_error);
  done = 0;
  pool.run(8, [&](std::size_t) { done.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(done.load(), 8u);
}

/// An outer parallel_map of `n` jobs where job i runs an inner
/// parallel_map of 50 and returns its sum.  Counts the outer jobs that
/// ran on a pool worker into `nested_on_worker`.
///
/// When the pool has workers, each outer job first waits until jobs
/// have started on both a worker and the submitting thread, so every
/// call nests batches on both kinds of thread whatever the scheduling.
/// Workers can hold at most workers() jobs while they wait, so `n` must
/// exceed workers() to leave the submitter a job to take.
std::vector<std::uint64_t> nested_sums(std::size_t n,
                                       std::atomic<std::uint64_t>& nested_on_worker) {
  const bool rendezvous = perf::ThreadPool::shared().workers() > 0;
  std::atomic<bool> worker_started{false};
  std::atomic<bool> submitter_started{false};
  return stats::parallel_map<std::uint64_t>(
      // mosaiq-lint: allow(nested-parallel) — nesting IS the behavior under test
      n, [&](std::size_t i) {
        const bool on_worker = perf::ThreadPool::in_worker();
        if (on_worker) {
          nested_on_worker.fetch_add(1, std::memory_order_relaxed);
        }
        (on_worker ? worker_started : submitter_started).store(true);
        while (rendezvous && !(worker_started.load() && submitter_started.load())) {
          std::this_thread::yield();
        }
        const auto inner = stats::parallel_map<std::uint64_t>(
            50, [i](std::size_t j) { return static_cast<std::uint64_t>(i * 1000 + j); });
        return std::accumulate(inner.begin(), inner.end(), std::uint64_t{0});
      });
}

/// What nested_sums(n, ...) must return at index i.
std::uint64_t nested_sum_at(std::size_t i) {
  return static_cast<std::uint64_t>(i * 1000 * 50 + 49 * 50 / 2);
}

/// A job that itself calls parallel_map (fleet step inside a sweep
/// cell) must run its nested batch inline on the calling thread — no
/// extra threads, no deadlock.
TEST(ThreadPool, NestedParallelMapRunsInline) {
  perf::ThreadPool& pool = perf::ThreadPool::shared();
  pool.run(1, [](std::size_t) {});  // ensure workers exist
  const std::uint64_t started = pool.threads_started();

  std::atomic<std::uint64_t> nested_on_worker{0};
  const auto outer = nested_sums(2 * pool.workers() + 4, nested_on_worker);
  ASSERT_EQ(outer.size(), 2 * pool.workers() + 4);
  for (std::size_t i = 0; i < outer.size(); ++i) {
    EXPECT_EQ(outer[i], nested_sum_at(i));
  }
  if (pool.workers() > 0) {
    EXPECT_GT(nested_on_worker.load(), 0u);
  }
  EXPECT_EQ(pool.threads_started(), started) << "nested batches must not spawn threads";
}

/// The submitting thread executes outer jobs too, so it nests batches
/// just like a worker does; it must run them inline rather than
/// re-lock the submission mutex it already holds.  Three concurrent
/// top-level submitters each run the nested pattern a thousand times,
/// and every result is checked.
TEST(ThreadPool, NestedSubmitStressFromConcurrentSubmitters) {
  perf::ThreadPool& pool = perf::ThreadPool::shared();
  const std::size_t n = pool.workers() + 2;
  std::vector<std::uint64_t> expected(n);
  for (std::size_t i = 0; i < n; ++i) expected[i] = nested_sum_at(i);
  constexpr int kSubmitters = 3;
  constexpr int kRounds = 1000;
  std::atomic<std::uint64_t> nested_on_worker{0};
  std::atomic<std::uint64_t> wrong_rounds{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        if (nested_sums(n, nested_on_worker) != expected) {
          wrong_rounds.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(wrong_rounds.load(), 0u);
  if (pool.workers() > 0) {
    // Every round also nested at least one batch on a worker.
    EXPECT_GE(nested_on_worker.load(), static_cast<std::uint64_t>(kSubmitters) * kRounds);
  }
}

TEST(ThreadPool, SingleWorkerPoolCompletesBatches) {
  perf::ThreadPool pinned(1);
  EXPECT_EQ(pinned.workers(), 1u);
  std::atomic<std::size_t> done{0};
  pinned.run(33, [&](std::size_t) { done.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(done.load(), 33u);
  EXPECT_EQ(pinned.batches_run(), 1u);
}

// --------------------------------------------------------- build cache

TEST(BuildCache, HitAndMissAccounting) {
  perf::BuildCache cache;  // local instance: shared() stats stay untouched
  const workload::DatasetSpec spec = workload::pa_spec(2000);
  const auto a = cache.dataset(spec);
  const auto b = cache.dataset(spec);
  EXPECT_EQ(a.get(), b.get()) << "second lookup must return the memoized build";
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(a->store.size(), 2000u);
}

TEST(BuildCache, ConfigHashSensitivity) {
  perf::BuildCache cache;
  workload::DatasetSpec spec = workload::pa_spec(2000);
  const auto base = cache.dataset(spec);

  workload::DatasetSpec reseeded = spec;
  reseeded.seed += 1;
  const auto other = cache.dataset(reseeded);
  EXPECT_NE(base.get(), other.get()) << "seed is part of the cache key";

  const auto resized = cache.dataset(workload::pa_spec(2001));
  EXPECT_NE(base.get(), resized.get());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(BuildCache, ClearInvalidatesButKeepsOutstandingRefs) {
  perf::BuildCache cache;
  const workload::DatasetSpec spec = workload::pa_spec(2000);
  const auto before = cache.dataset(spec);
  cache.clear();
  const auto after = cache.dataset(spec);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(before->store.size(), after->store.size()) << "old ref stays valid after clear";
}

TEST(ConfigHash, DistinguishesSpecs) {
  const std::uint64_t a = perf::hash_of(workload::pa_spec(2000));
  EXPECT_EQ(a, perf::hash_of(workload::pa_spec(2000)));
  EXPECT_NE(a, perf::hash_of(workload::pa_spec(2001)));
  EXPECT_NE(a, perf::hash_of(workload::nyc_spec(2000)));
  workload::DatasetSpec reseeded = workload::pa_spec(2000);
  reseeded.seed += 1;
  EXPECT_NE(a, perf::hash_of(reseeded));
}

// ------------------------------------------------------- bench JSON

perf::BenchFile sample_file() {
  perf::BenchFile f;
  f.host = "testhost";
  f.config.warmup = 1;
  f.config.reps = 5;
  f.config.filter = "query";
  f.benchmarks.push_back({"query/range", 5, 1000.0, 900.0, 1100.0, 880.0, 1200.0, 100});
  f.benchmarks.push_back({"build/tree", 5, 50000.0, 48000.0, 52000.0, 47000.0, 53000.0, 0});
  return f;
}

TEST(BenchJson, RoundTrip) {
  const perf::BenchFile f = sample_file();
  std::ostringstream os;
  perf::write_bench_json(os, f);
  const perf::BenchFile g = perf::parse_bench_json(os.str());
  EXPECT_EQ(g.schema_version, perf::kBenchSchemaVersion);
  EXPECT_EQ(g.host, "testhost");
  EXPECT_EQ(g.config.warmup, 1u);
  EXPECT_EQ(g.config.reps, 5u);
  EXPECT_EQ(g.config.filter, "query");
  ASSERT_EQ(g.benchmarks.size(), 2u);
  EXPECT_EQ(g.benchmarks[0].name, "query/range");
  EXPECT_DOUBLE_EQ(g.benchmarks[0].median_ns, 1000.0);
  EXPECT_DOUBLE_EQ(g.benchmarks[0].p10_ns, 900.0);
  EXPECT_DOUBLE_EQ(g.benchmarks[0].p90_ns, 1100.0);
  EXPECT_EQ(g.benchmarks[0].items_per_rep, 100u);
  EXPECT_EQ(g.benchmarks[1].name, "build/tree");
  EXPECT_EQ(g.benchmarks[1].items_per_rep, 0u);
}

TEST(BenchJson, RejectsWrongSchemaAndMalformedInput) {
  EXPECT_THROW(perf::parse_bench_json("{\"schema_version\": 99, \"benchmarks\": []}"),
               std::runtime_error);
  EXPECT_THROW(perf::parse_bench_json("{\"schema_version\": 1}"), std::runtime_error);
  EXPECT_THROW(perf::parse_bench_json("not json at all"), std::runtime_error);
  EXPECT_THROW(perf::parse_bench_json("{\"schema_version\": 1, \"benchmarks\": [truncated"),
               std::runtime_error);
}

TEST(BenchJson, SelfCompareExitsZero) {
  const perf::BenchFile f = sample_file();
  std::ostringstream report;
  const perf::CompareOutcome out = perf::compare_bench(f, f, 0.15, report);
  EXPECT_EQ(out.compared, 2u);
  EXPECT_EQ(out.regressions, 0u);
  EXPECT_EQ(perf::compare_exit_code(out), 0);
}

TEST(BenchJson, InjectedSlowdownExitsNonzero) {
  const perf::BenchFile base = sample_file();
  perf::BenchFile slow = base;
  slow.benchmarks[0].median_ns *= 2.0;  // the acceptance-criteria 2x injection
  std::ostringstream report;
  const perf::CompareOutcome out = perf::compare_bench(base, slow, 0.15, report);
  EXPECT_EQ(out.regressions, 1u);
  EXPECT_EQ(perf::compare_exit_code(out), 1);
  EXPECT_NE(report.str().find("query/range"), std::string::npos);
}

TEST(BenchJson, ToleranceBoundsAndImprovements) {
  const perf::BenchFile base = sample_file();
  perf::BenchFile next = base;
  next.benchmarks[0].median_ns = 1100.0;  // +10% under a 15% gate: fine
  next.benchmarks[1].median_ns = 40000.0;  // faster: an improvement, never a failure
  std::ostringstream report;
  const perf::CompareOutcome out = perf::compare_bench(base, next, 0.15, report);
  EXPECT_EQ(out.regressions, 0u);
  EXPECT_EQ(out.improvements, 1u);
  EXPECT_EQ(perf::compare_exit_code(out), 0);
}

TEST(BenchJson, MissingAndNewBenchmarksWarnButPass) {
  const perf::BenchFile base = sample_file();
  perf::BenchFile next = base;
  next.benchmarks.erase(next.benchmarks.begin());  // "query/range" vanished
  next.benchmarks.push_back({"net/new_case", 5, 10.0, 9.0, 11.0, 9.0, 11.0, 0});
  std::ostringstream report;
  const perf::CompareOutcome out = perf::compare_bench(base, next, 0.15, report);
  EXPECT_EQ(out.compared, 1u);
  EXPECT_EQ(out.only_in_base, 1u);
  EXPECT_EQ(out.only_in_next, 1u);
  EXPECT_EQ(perf::compare_exit_code(out), 0) << "registry growth must not brick the gate";
}

TEST(BenchJson, QuantileNearestRank) {
  EXPECT_DOUBLE_EQ(perf::quantile_ns({5.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(perf::quantile_ns({1.0, 2.0, 3.0, 4.0, 5.0}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(perf::quantile_ns({1.0, 2.0, 3.0, 4.0, 5.0}, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(perf::quantile_ns({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 5.0);
}

TEST(BenchRegistry, FilterAndDuplicateRejection) {
  perf::BenchRegistry reg;
  reg.add({"a/one", {}, [] { return std::uint64_t{1}; }});
  reg.add({"b/two", {}, [] { return std::uint64_t{2}; }});
  EXPECT_THROW(reg.add({"a/one", {}, [] { return std::uint64_t{0}; }}), std::invalid_argument);
  EXPECT_THROW(reg.add({"", {}, [] { return std::uint64_t{0}; }}), std::invalid_argument);
  std::ostringstream log;
  perf::BenchConfig cfg;
  cfg.warmup = 0;
  cfg.reps = 2;
  cfg.filter = "b/";
  const auto results = reg.run(cfg, log);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "b/two");
  EXPECT_EQ(results[0].reps, 2u);
  EXPECT_EQ(results[0].items_per_rep, 2u);
  EXPECT_GE(results[0].max_ns, results[0].min_ns);
}

}  // namespace
}  // namespace mosaiq
