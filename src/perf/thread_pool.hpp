// Persistent shared thread pool for the experiment fleet.
//
// The figure/ablation sweeps are embarrassingly parallel: every
// (scheme, bandwidth, ratio, distance) cell is an independent
// simulation over shared immutable inputs.  Before this layer existed,
// stats::parallel_map spawned and joined a fresh std::thread set on
// every call — fine for one sweep, wasteful for a harness that runs
// dozens of sweeps per process (mosaiq-bench, multi-figure runs,
// repeated batches in tests).  ThreadPool keeps one worker set alive
// for the process lifetime and hands it successive batches.
//
// Design points:
//  * self-scheduling: participants grab one index at a time from an
//    atomic cursor, so uneven cell costs balance without a static
//    partition.  Every caller's jobs take at least ~10 us (a figure or
//    sweep cell; mosaiq-bench's perf/parallel_map jobs of 20k
//    iterations), so one atomic per job costs nothing that shows, and a
//    sweep never ends with one participant holding several heavy cells
//    while the rest idle;
//  * the submitting thread participates (no idle caller, and a
//    zero-worker pool degenerates to a plain loop);
//  * re-entrancy runs inline: a job that itself calls run() (e.g. a
//    fleet step inside a sweep cell) executes its nested batch on the
//    calling thread — a worker or the submitter — instead of
//    multiplying threads or deadlocking;
//  * exceptions propagate: the first failure is rethrown on the
//    submitter after the batch quiesces, and remaining unstarted
//    indices are abandoned;
//  * determinism is the caller's contract: results are written by
//    index, so output order never depends on scheduling.
#pragma once

#include <atomic>
#include <condition_variable>

#include "core/annotations.hpp"
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mosaiq::perf {

class ThreadPool MOSAIQ_THREAD_SAFE {
 public:
  /// `workers` = 0 means hardware_concurrency - 1 (the submitter is the
  /// extra participant), floored at 0 (single-core: everything inline).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide shared pool (constructed on first use, lives
  /// until static destruction).  All stats::parallel_map traffic goes
  /// through this instance.
  static ThreadPool& shared();

  /// True on a thread owned by *any* ThreadPool worker; used to detect
  /// re-entrant submissions, which run inline.
  static bool in_worker();

  /// Runs job(i) for every i in [0, n), using the pool workers plus the
  /// calling thread, and returns when all started work has finished.
  /// The first exception thrown by any job is rethrown here (remaining
  /// unstarted indices are skipped).  Safe to call from multiple
  /// threads (batches serialize) and from inside a job (runs inline).
  void run(std::size_t n, const std::function<void(std::size_t)>& job);

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// Total worker threads ever created by this pool.  Equal to
  /// workers() for the whole pool lifetime — the reuse guarantee
  /// tests pin (a fork-join implementation would grow this per call).
  std::uint64_t threads_started() const { return threads_started_.load(); }

  /// Number of batches submitted through run() (inline-executed
  /// re-entrant batches included).
  std::uint64_t batches_run() const { return batches_run_.load(); }

 private:
  struct Batch {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* job = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};

    std::mutex mu;
    std::condition_variable cv;  ///< signalled when participants drops
    int participants MOSAIQ_GUARDED_BY(mu) = 0;
    std::exception_ptr error MOSAIQ_GUARDED_BY(mu);
  };

  void worker_loop();
  static void execute(Batch& b);

  std::mutex mu_;
  std::condition_variable cv_;  ///< wakes workers for a new batch / stop
  std::shared_ptr<Batch> current_ MOSAIQ_GUARDED_BY(mu_);
  std::uint64_t generation_ MOSAIQ_GUARDED_BY(mu_) = 0;
  bool stop_ MOSAIQ_GUARDED_BY(mu_) = false;

  std::mutex submit_mu_;  ///< serializes top-level run() calls
  std::vector<std::thread> threads_;  // mosaiq-lint: allow(guarded-by) — written only by the constructor, immutable once workers exist
  std::atomic<std::uint64_t> threads_started_{0};
  std::atomic<std::uint64_t> batches_run_{0};
};

}  // namespace mosaiq::perf
