#pragma once

#include <chrono>
#include <deque>
#include <future>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/metrics.h"
#include "common/move_only_fn.h"
#include "common/mutex.h"

namespace blendhouse::common {

/// Fixed-size worker pool with one FIFO run queue (DESIGN.md §12).
///
/// Used by cluster workers (query execution), the LSM engine (background
/// compaction and pipelined index build), and bench harnesses (concurrent
/// clients). Tasks are move-only callables (common::MoveOnlyFn), so the
/// packaged_task lives inside the closure itself — one allocation per task
/// instead of the shared_ptr<packaged_task> + std::function pair.
///
/// One mutex (mu_, rank kThreadPool) guards the queue, the Wait() barrier
/// count and both condition variables: idle workers park on work_cv_,
/// Wait() callers on idle_cv_. Tasks run with no pool lock held, so they may
/// take any lock; Submit is callable under any lock ranked above the pool.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `fn`; returns a future for its result.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    std::packaged_task<R()> task(std::forward<Fn>(fn));
    std::future<R> fut = task.get_future();
    Enqueue(MoveOnlyFn([task = std::move(task)]() mutable { task(); }));
    return fut;
  }

  /// Blocks until the queue is empty and all in-flight tasks finished.
  void Wait() EXCLUDES(mu_);

 private:
  struct QueueEntry {
    std::chrono::steady_clock::time_point enqueue_time;
    MoveOnlyFn fn;
  };

  void Enqueue(MoveOnlyFn fn) EXCLUDES(mu_);
  /// Pops the queue head and records its queue wait. The clock is read
  /// under the lock, after every push it can observe, so the wait is never
  /// negative.
  MoveOnlyFn PopLocked() REQUIRES(mu_);
  /// Runs a popped task with no lock held, then drops the Wait() barrier
  /// count, waking waiters on the last one out.
  void RunAndFinish(MoveOnlyFn& task, const char* site) EXCLUDES(mu_);
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_{lockrank::kThreadPool};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<QueueEntry> queue_ GUARDED_BY(mu_);
  /// Tasks submitted and not yet finished (queued + running).
  size_t pending_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;

  // Registry metrics (process-wide, summed over all pools); resolved once in
  // the constructor so Submit never touches the registry map.
  metrics::Counter* tasks_total_metric_;
  metrics::Gauge* queue_depth_metric_;
  metrics::HistogramMetric* queue_wait_metric_;
  std::vector<std::thread> threads_;  // written only in the constructor
};

}  // namespace blendhouse::common
