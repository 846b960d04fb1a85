#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "util/check.h"
#include "util/fault_point.h"
#include "util/lock_rank.h"
#include "util/metrics.h"

namespace subdex {

namespace {

// Process-wide pool metrics (DESIGN.md §9 catalogue). Resolved once; the
// hot paths pay a static-local read plus a relaxed atomic add.
struct PoolMetrics {
  Counter& tasks_run;
  Counter& tasks_helped;
  Counter& batches;
  Counter& batch_stops;
  Gauge& queue_depth;
  Histogram& queue_wait_ms;

  static PoolMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static PoolMetrics m{
        reg.GetCounter("subdex_pool_tasks_run_total",
                       "Tasks executed by pool worker threads"),
        reg.GetCounter("subdex_pool_tasks_helped_total",
                       "Queued tasks drained by batch waiters instead of "
                       "workers (help-while-waiting)"),
        reg.GetCounter("subdex_pool_batches_total",
                       "ParallelFor batches issued"),
        reg.GetCounter("subdex_pool_batch_stops_total",
                       "ParallelFor batches cut short by a stop token"),
        reg.GetGauge("subdex_pool_queue_depth",
                     "Tasks currently waiting in the pool queue"),
        reg.GetHistogram("subdex_pool_queue_wait_ms",
                         MetricsRegistry::LatencyBucketsMs(),
                         "Time tasks spent queued before starting"),
    };
    return m;
  }
};

// Completion latch of one ParallelFor call. Batches from concurrent
// callers interleave freely in the worker queue; each caller waits only
// for its own helpers, never for global idleness.
struct Batch {
  Mutex mu{"pool.batch", lock_rank::kPoolBatch};
  std::condition_variable done_cv;
  // Helper tasks not yet finished.
  size_t outstanding SUBDEX_GUARDED_BY(mu) = 0;
  std::atomic<size_t> next{0};
  std::exception_ptr error SUBDEX_GUARDED_BY(mu);
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  SUBDEX_CHECK(num_threads > 0);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  QueuedTask queued;
  queued.fn = std::move(task);
  queued.enqueued = std::chrono::steady_clock::now();
  {
    MutexLock lock(mu_);
    SUBDEX_CHECK_MSG(!shutdown_, "Submit after shutdown");
    queue_.push_back(std::move(queued));
    ++stats_.tasks_submitted;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    PoolMetrics::Get().queue_depth.Set(static_cast<int64_t>(queue_.size()));
  }
  work_cv_.notify_one();
}

void ThreadPool::RecordDequeue(const QueuedTask& task, bool helped) {
  PoolMetrics& m = PoolMetrics::Get();
  m.queue_wait_ms.Observe(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - task.enqueued)
                              .count());
  m.tasks_run.Increment();
  if (helped) m.tasks_helped.Increment();
}

void ThreadPool::WaitIdle() {
  MutexLock lock(mu_);
  while (!queue_.empty() || active_ != 0) lock.WaitOnce(idle_cv_);
}

bool ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             const StopToken& stop) {
  return ParallelFor(
      n, 1,
      [&fn](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) fn(i);
      },
      stop);
}

bool ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& fn,
                             const StopToken& stop) {
  if (n == 0) return true;
  if (grain == 0) grain = 1;
  {
    MutexLock lock(mu_);
    ++stats_.batches_run;
  }
  PoolMetrics::Get().batches.Increment();
  auto batch = std::make_shared<Batch>();

  // Claims chunks until the counter is exhausted. On the first failure —
  // or once the caller's stop condition holds — the counter is
  // fast-forwarded so the batch's remaining work is abandoned. `completed`
  // counts executed indices so the caller can tell a full batch from a cut
  // one without a second stop poll.
  std::atomic<size_t> completed{0};
  auto drain = [batch, n, grain, &fn, &stop, &completed] {
    for (;;) {
      if (stop.ShouldStop()) {
        batch->next.store(n);
        return;
      }
      size_t begin = batch->next.fetch_add(grain);
      if (begin >= n) return;
      size_t end = std::min(n, begin + grain);
      try {
        SUBDEX_FAULT_POINT("thread_pool.chunk");
        fn(begin, end);
        completed.fetch_add(end - begin, std::memory_order_relaxed);
      } catch (...) {
        MutexLock lock(batch->mu);
        if (!batch->error) batch->error = std::current_exception();
        batch->next.store(n);
        return;
      }
    }
  };

  size_t num_chunks = (n + grain - 1) / grain;
  // The caller drains too, so `num_threads()` helpers suffice; extra ones
  // would only find the counter exhausted.
  size_t helpers = std::min(num_chunks, num_threads());
  for (size_t h = 0; h < helpers; ++h) {
    {
      MutexLock lock(batch->mu);
      ++batch->outstanding;
    }
    Submit([drain, batch] {
      drain();
      bool last;
      {
        MutexLock lock(batch->mu);
        last = --batch->outstanding == 0;
      }
      if (last) batch->done_cv.notify_all();
    });
  }
  // Participate: guarantees forward progress when every worker is busy
  // (including the nested case where the caller *is* a worker).
  drain();
  // While our helpers are outstanding, keep executing *any* queued task
  // instead of blocking. A queued helper can belong to another caller's
  // batch whose owner is likewise waiting; if every waiter merely slept,
  // nested batches could deadlock with all threads parked and helpers
  // stuck in the queue.
  for (;;) {
    {
      MutexLock lock(batch->mu);
      if (batch->outstanding == 0) break;
    }
    if (!RunOneQueuedTask()) {
      // Queue empty: every outstanding helper is running on some thread
      // and will finish; now sleeping is safe.
      MutexLock lock(batch->mu);
      while (batch->outstanding != 0) lock.WaitOnce(batch->done_cv);
      break;
    }
  }
  // All helpers finished: the batch counter must be exhausted.
  SUBDEX_DCHECK_GE(batch->next.load(), n);
  std::exception_ptr error;
  {
    MutexLock lock(batch->mu);
    error = batch->error;
  }
  if (error) std::rethrow_exception(error);
  const bool full = completed.load(std::memory_order_relaxed) == n;
  if (!full) PoolMetrics::Get().batch_stops.Increment();
  return full;
}

bool ThreadPool::RunOneQueuedTask() {
  QueuedTask task;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    PoolMetrics::Get().queue_depth.Set(static_cast<int64_t>(queue_.size()));
  }
  RecordDequeue(task, /*helped=*/true);
  task.fn();
  FinishTask();
  return true;
}

void ThreadPool::FinishTask() {
  MutexLock lock(mu_);
  --active_;
  if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) lock.WaitOnce(work_cv_);
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      PoolMetrics::Get().queue_depth.Set(static_cast<int64_t>(queue_.size()));
    }
    RecordDequeue(task, /*helped=*/false);
    task.fn();
    FinishTask();
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  MutexLock lock(mu_);
  Stats s = stats_;
  s.queue_depth = queue_.size();
  return s;
}

}  // namespace subdex
