#ifndef SUBDEX_UTIL_THREAD_POOL_H_
#define SUBDEX_UTIL_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/deadline.h"
#include "util/lock_rank.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/status.h"

namespace subdex {

/// Fixed-size worker pool. The SDE engine owns one pool for its lifetime
/// and routes every hot path through it (the paper's "parallel query
/// execution": the optimal number of in-flight tasks equals the number of
/// available cores). The pool is safe to *share*: each `ParallelFor` call
/// blocks on its own completion latch, so concurrent callers — including
/// nested calls issued from inside a worker task — never observe each
/// other's work. The calling thread participates in executing its own
/// batch, which keeps nested batches deadlock-free even on a saturated
/// pool.
class ThreadPool {
 public:
  /// Lifetime counters, for the engine's per-step metrics.
  struct Stats {
    /// Total tasks ever enqueued (Submit calls + ParallelFor helper tasks).
    size_t tasks_submitted = 0;
    /// Total ParallelFor batches run.
    size_t batches_run = 0;
    /// Tasks currently waiting in the queue.
    size_t queue_depth = 0;
    /// High-water mark of the queue depth since construction.
    size_t max_queue_depth = 0;
  };

  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a fire-and-forget task. Tasks submitted directly must not
  /// throw (use ParallelFor for work that may fail).
  void Submit(std::function<void()> task) SUBDEX_EXCLUDES(mu_);

  /// Blocks until the queue is empty and no worker is running a task.
  /// This is a *global* condition — with concurrent users it also waits
  /// for their work; batch callers should rely on ParallelFor's per-batch
  /// completion instead.
  void WaitIdle() SUBDEX_EXCLUDES(mu_);

  /// Runs fn(i) for i in [0, n) across the pool and the calling thread,
  /// returning when every index of *this batch* has completed. The first
  /// exception thrown by `fn` is captured, the batch's remaining work is
  /// abandoned, and the exception is rethrown here.
  ///
  /// `stop` makes the batch cancellable: once the token is cancelled or
  /// its deadline expires, in-flight workers stop claiming new chunks and
  /// the call returns with the remaining indices unexecuted (no exception
  /// — the caller owns the stop condition and decides how to degrade).
  /// Chunks already running are never interrupted, so `fn` sees each index
  /// either fully executed or not at all. Returns true when every index
  /// ran, false when the stop condition cut the batch short.
  bool ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const StopToken& stop = StopToken()) SUBDEX_EXCLUDES(mu_);

  /// Chunked overload: runs fn(begin, end) over half-open ranges of about
  /// `grain` indices. Chunks are claimed dynamically from a shared counter
  /// (work-stealing-friendly: fast workers drain what slow ones leave), so
  /// `fn` must tolerate any chunk-to-thread assignment.
  bool ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& fn,
                   const StopToken& stop = StopToken()) SUBDEX_EXCLUDES(mu_);

  SUBDEX_NODISCARD size_t num_threads() const { return workers_.size(); }
  SUBDEX_NODISCARD Stats stats() const SUBDEX_EXCLUDES(mu_);

 private:
  /// A queued task plus its enqueue time, so dequeue can observe the
  /// queue-wait latency.
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop() SUBDEX_EXCLUDES(mu_);
  /// Pops and runs one queued task on the calling thread (batch waiters
  /// help drain the queue). Returns false if the queue was empty.
  bool RunOneQueuedTask() SUBDEX_EXCLUDES(mu_);
  /// Marks the running task finished and wakes WaitIdle waiters when the
  /// pool drained.
  void FinishTask() SUBDEX_EXCLUDES(mu_);
  /// Dequeue bookkeeping shared by workers and helpers: records the
  /// task's queue wait and the run in the process metrics.
  static void RecordDequeue(const QueuedTask& task, bool helped);

  mutable Mutex mu_{"pool.queue", lock_rank::kPoolQueue};
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<QueuedTask> queue_ SUBDEX_GUARDED_BY(mu_);
  // Started in the constructor, joined in the destructor; immutable (and
  // lock-free to read) in between, which keeps num_threads() cheap.
  std::vector<std::thread> workers_;
  Stats stats_ SUBDEX_GUARDED_BY(mu_);
  size_t active_ SUBDEX_GUARDED_BY(mu_) = 0;
  bool shutdown_ SUBDEX_GUARDED_BY(mu_) = false;
};

}  // namespace subdex

#endif  // SUBDEX_UTIL_THREAD_POOL_H_
