#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace dbdesign {

namespace {
/// Set while a thread — pool worker or the submitting caller — executes
/// job tasks; a nested ParallelFor on any pool from such a thread runs
/// inline (see header) instead of re-entering submission and
/// deadlocking on the in-flight job.
thread_local bool tls_in_parallel_task = false;
}  // namespace

int ThreadPool::HardwareThreads() {
  unsigned int hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {
/// Upper bound on workers a growable pool will spawn for oversized
/// num_threads requests.
constexpr int kMaxPoolThreads = 256;
}  // namespace

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: worker threads must not be joined from static
  // destructors that may run after other statics they touch.
  static ThreadPool* pool = new ThreadPool(HardwareThreads(), /*growable=*/true);
  return *pool;
}

ThreadPool::InlineScope::InlineScope() : saved_(tls_in_parallel_task) {
  tls_in_parallel_task = true;
}

ThreadPool::InlineScope::~InlineScope() { tls_in_parallel_task = saved_; }

ThreadPool::ThreadPool(int num_threads, bool growable) : growable_(growable) {
  int workers = std::max(0, num_threads - 1);
  for (int i = 0; i < workers; ++i) {
    MutexLock lock(mu_);
    workers_.emplace_back([this] { WorkerLoop(); });
    worker_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::EnsureWorkers(int count) {
  count = std::min(count, kMaxPoolThreads - 1);
  while (worker_count_.load(std::memory_order_relaxed) < count) {
    MutexLock lock(mu_);
    workers_.emplace_back([this] { WorkerLoop(); });
    worker_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::~ThreadPool() {
  // Move the thread handles out under the lock, then join unlocked —
  // workers must be able to re-acquire mu_ to observe stop_ and exit.
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    stop_ = true;
    workers.swap(workers_);
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers) t.join();
}

void ThreadPool::Job::Record(size_t index, std::exception_ptr e) {
  MutexLock lock(err_mu);
  if (err == nullptr || index < err_index) {
    err = std::move(e);
    err_index = index;
    // Publish the short-circuit threshold: un-started tasks above the
    // failing index are pointless (their exception would lose the
    // lowest-index race anyway) and are skipped. Monotonically
    // decreasing under err_mu, so a stale higher value only delays the
    // short-circuit, never mis-cancels.
    cancel_above.store(index, std::memory_order_release);
  }
}

std::exception_ptr ThreadPool::Job::TakeError() {
  MutexLock lock(err_mu);
  return std::exchange(err, nullptr);
}

void ThreadPool::Job::RunChunk() {
  for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next.fetch_add(1, std::memory_order_relaxed)) {
    // First-error short-circuit: a recorded error at a lower index
    // cancels this not-yet-started task. It still counts as completed
    // so the caller's drain (completed == n) terminates.
    if (i > cancel_above.load(std::memory_order_acquire)) {
      completed.fetch_add(1, std::memory_order_acq_rel);
      continue;
    }
    try {
      (*fn)(i);
    } catch (...) {
      Record(i, std::current_exception());
    }
    completed.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_seq = 0;
  while (true) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mu_);
      while (!stop_ && (job_ == nullptr || job_seq_ == seen_seq)) {
        work_cv_.Wait(mu_);
      }
      if (stop_) return;
      seen_seq = job_seq_;
      job = job_;
    }
    // Cap helpers to the per-call parallelism budget.
    if (job->helpers.fetch_add(1, std::memory_order_relaxed) <
        job->max_helpers) {
      tls_in_parallel_task = true;
      job->RunChunk();
      tls_in_parallel_task = false;
      // The empty critical section orders this worker's `completed`
      // updates with the caller's predicate check, so the notify cannot
      // slip into the window between that check and the caller's sleep.
      { MutexLock lock(mu_); }
      done_cv_.NotifyOne();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, int parallelism,
                             const std::function<void(size_t)>& fn) {
  int budget = growable_ ? std::min(parallelism, kMaxPoolThreads)
                         : std::min(parallelism, num_threads());
  if (n <= 1 || budget <= 1 || tls_in_parallel_task) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Oversubscription guard: a growable pool that has not spawned any
  // workers yet would have to create them now, but on single-core
  // hardware those workers can only timeshare with the caller — pure
  // scheduling overhead (BENCH_schedule measured doi_matrix at 0.85x
  // serial). Run inline instead. Pools that already hold live workers
  // (fixed pools, or growable pools grown on multi-core hardware) keep
  // using them, so determinism suites that deliberately oversubscribe
  // still exercise real cross-thread execution.
  if (growable_ && worker_count_.load(std::memory_order_relaxed) == 0 &&
      HardwareThreads() < 2) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  MutexLock submit(submit_mu_);
  if (growable_) EnsureWorkers(budget - 1);
  if (worker_count_.load(std::memory_order_relaxed) == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->max_helpers = budget - 1;  // caller participates
  {
    MutexLock lock(mu_);
    job_ = job;
    ++job_seq_;
  }
  work_cv_.NotifyAll();

  // The caller is itself a task runner for the duration of its chunk:
  // a ParallelFor issued from inside one of its tasks must flatten.
  tls_in_parallel_task = true;
  job->RunChunk();
  tls_in_parallel_task = false;

  if (job->completed.load(std::memory_order_acquire) < n) {
    MutexLock lock(mu_);
    while (job->completed.load(std::memory_order_acquire) < n) {
      done_cv_.Wait(mu_);
    }
  }
  {
    MutexLock lock(mu_);
    job_ = nullptr;
  }
  std::exception_ptr err = job->TakeError();
  if (err != nullptr) std::rethrow_exception(err);
}

}  // namespace dbdesign
