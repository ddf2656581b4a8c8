#include "perf/thread_pool.hpp"

namespace mosaiq::perf {

namespace {
thread_local bool t_in_pool_worker = false;
thread_local bool t_submitting = false;

/// Marks the calling thread as a submitter for the whole of one run().
/// The submitter executes jobs too, and a job that nests a batch must
/// run it inline: going through run() again would re-lock submit_mu_,
/// which this thread already holds.
class SubmitterScope {
 public:
  SubmitterScope() { t_submitting = true; }
  ~SubmitterScope() { t_submitting = false; }
  SubmitterScope(const SubmitterScope&) = delete;
  SubmitterScope& operator=(const SubmitterScope&) = delete;
};
}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw > 1 ? hw - 1 : 0;
  }
  threads_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
    threads_started_.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::in_worker() { return t_in_pool_worker; }

void ThreadPool::execute(Batch& b) {
  // Self-scheduling, one index per grab.
  try {
    for (;;) {
      if (b.failed.load(std::memory_order_acquire)) return;
      const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= b.n) return;
      (*b.job)(i);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lk(b.mu);
    if (!b.error) b.error = std::current_exception();
    b.failed.store(true, std::memory_order_release);
  }
}

void ThreadPool::run(std::size_t n, const std::function<void(std::size_t)>& job) {
  if (n == 0) return;
  batches_run_.fetch_add(1, std::memory_order_relaxed);

  // Inline paths: trivial batches, a worker or submitter running a
  // nested batch from inside a job (re-entrancy must not multiply
  // threads or deadlock on the submission lock), and a pool with no
  // worker threads at all.
  if (n == 1 || in_worker() || t_submitting || threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) job(i);
    return;
  }
  const SubmitterScope submitter;

  // One batch in flight at a time: concurrent top-level submitters
  // queue here instead of interleaving cursors.
  std::lock_guard<std::mutex> submit(submit_mu_);

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->job = &job;

  {
    std::lock_guard<std::mutex> lk(mu_);
    current_ = batch;
    ++generation_;
  }
  cv_.notify_all();

  // The submitter is a participant too.
  execute(*batch);

  // Retire the batch: after this, no worker can newly join it (joins
  // happen under mu_ while current_ still points at it).
  {
    std::lock_guard<std::mutex> lk(mu_);
    current_.reset();
  }

  // Quiesce: wait for every worker that did join to finish its jobs —
  // only then is `job` (a reference into the caller's frame) dead.
  {
    std::unique_lock<std::mutex> lk(batch->mu);
    batch->cv.wait(lk, [&] { return batch->participants == 0; });
    if (batch->error) std::rethrow_exception(batch->error);
  }
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] {
        return stop_ || (current_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      batch = current_;
      seen_generation = generation_;
      // Join while holding mu_: the submitter retires the batch under
      // the same mutex, so it can never observe participants == 0
      // before a joined worker has registered itself.
      std::lock_guard<std::mutex> bk(batch->mu);
      ++batch->participants;
    }
    execute(*batch);
    {
      std::lock_guard<std::mutex> bk(batch->mu);
      --batch->participants;
    }
    batch->cv.notify_all();
  }
}

}  // namespace mosaiq::perf
