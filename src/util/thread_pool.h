// Fixed-size thread pool with a deterministic, indexed ParallelFor.
//
// The designer's hot path is thousands of independent what-if costings
// (one per (query, design) pair, per INUM signature combination, per
// candidate design). ParallelFor(n, fn) runs fn(0..n-1) across the pool
// with each task writing results into its own pre-sized slot, so the
// output of a parallel run is bit-identical to the serial loop — there
// is no reduction whose order could differ. Work distribution is a
// shared atomic index (dynamic self-scheduling); scheduling order never
// affects results, only wall time.
//
// Degenerate cases run inline on the caller: parallelism <= 1, n <= 1,
// a pool constructed with one thread, a growable pool with no live
// workers on single-core hardware (spawning them would only
// timeshare), or a ParallelFor issued from inside a running task — whether that task executes on a pool worker
// or on the submitting caller's own thread (nested parallelism
// flattens to serial instead of deadlocking), or a ParallelFor issued
// inside a ThreadPool::InlineScope. The first exception (by
// lowest index) thrown by any task is rethrown on the caller after all
// other tasks drain.
//
// First-error short-circuit: once a task at index k has thrown, tasks
// at indexes > k that have not started yet are skipped instead of run
// (a failing 10k-shard costing batch stops almost immediately rather
// than burning the whole batch). Because indexes are claimed in
// ascending order, every index below the failing one has already been
// claimed when the error records — so skipping only above it keeps the
// propagated exception exactly the lowest-index thrower, bit-identical
// to the no-short-circuit behavior, and the non-faulting path is
// untouched.

#ifndef DBDESIGN_UTIL_THREAD_POOL_H_
#define DBDESIGN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace dbdesign {

class ThreadPool {
 public:
  /// A pool with `num_threads` total parallelism (the calling thread
  /// participates in every ParallelFor, so num_threads - 1 workers are
  /// spawned). Values <= 1 create a pool that always runs inline. A
  /// `growable` pool instead treats num_threads as a starting size and
  /// spawns additional workers when a ParallelFor requests more — the
  /// num_threads knob means "use N threads" even beyond the core count
  /// (the OS timeshares), which also lets determinism tests exercise
  /// real cross-thread execution on small machines.
  explicit ThreadPool(int num_threads, bool growable = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const {
    return worker_count_.load(std::memory_order_relaxed) + 1;
  }

  /// Runs fn(i) for every i in [0, n), blocking until all complete.
  /// `parallelism` caps the threads used for this call (calling thread
  /// included); the pool-wide size is the other cap.
  void ParallelFor(size_t n, int parallelism,
                   const std::function<void(size_t)>& fn);
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    ParallelFor(n, num_threads(), fn);
  }

  /// std::thread::hardware_concurrency(), never less than 1.
  static int HardwareThreads();

  /// Resolves a num_threads knob: values <= 0 mean "hardware".
  static int Resolve(int requested) {
    return requested <= 0 ? HardwareThreads() : requested;
  }

  /// Process-wide pool sized to the hardware. Components share it so a
  /// designer stack does not multiply idle worker threads; per-call
  /// `parallelism` still honors each component's num_threads knob.
  static ThreadPool& Shared();

  /// While alive, every ParallelFor issued from this thread (on any
  /// pool) runs inline, exactly as if the thread were running a pool
  /// task. For work that other pool tasks may be blocked on: a thread
  /// outside the pool that submitted it would wait on a submission lock
  /// held by a ParallelFor whose tasks wait for that very work. Scopes
  /// nest; results are unchanged (ParallelFor is serial-equivalent).
  class InlineScope {
   public:
    InlineScope();
    ~InlineScope();
    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

   private:
    bool saved_;
  };

 private:
  /// One ParallelFor invocation: tasks claim indexes via fetch_add.
  struct Job {
    // Set once before publication, read-only while the job runs.
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    int max_helpers = 0;
    // Lock-free work distribution / completion protocol.
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    std::atomic<int> helpers{0};
    /// Lowest index that has thrown so far (SIZE_MAX = none). Tasks at
    /// higher indexes short-circuit: they still count toward
    /// `completed` (the drain protocol needs every index accounted
    /// for) but skip running fn.
    std::atomic<size_t> cancel_above{~size_t{0}};
    Mutex err_mu;
    size_t err_index DBD_GUARDED_BY(err_mu) = 0;
    std::exception_ptr err DBD_GUARDED_BY(err_mu);

    void Record(size_t index, std::exception_ptr e);
    void RunChunk();
    /// Moves out the first-thrown-by-lowest-index exception, if any
    /// (call after the job has fully drained — no concurrent Record
    /// possible). The job keeps no reference: a worker may drop the last
    /// Job reference after the caller's handler has run, and the
    /// exception must not be freed on that worker (the refcount lives in
    /// the uninstrumented runtime, so ThreadSanitizer reports the free
    /// as a race with the handler's reads).
    std::exception_ptr TakeError();
  };

  void WorkerLoop();
  /// Grows the worker set to `count` (growable pools only).
  void EnsureWorkers(int count) DBD_REQUIRES(submit_mu_);

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::shared_ptr<Job> job_ DBD_GUARDED_BY(mu_);
  uint64_t job_seq_ DBD_GUARDED_BY(mu_) = 0;
  bool stop_ DBD_GUARDED_BY(mu_) = false;
  const bool growable_ = false;  // immutable after construction
  std::atomic<int> worker_count_{0};
  /// Serializes submissions: one ParallelFor at a time per pool.
  Mutex submit_mu_;
  std::vector<std::thread> workers_ DBD_GUARDED_BY(mu_);
};

}  // namespace dbdesign

#endif  // DBDESIGN_UTIL_THREAD_POOL_H_
