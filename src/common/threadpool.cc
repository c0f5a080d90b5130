#include "common/threadpool.h"

namespace blendhouse::common {

ThreadPool::ThreadPool(size_t num_threads)
    : tasks_total_metric_(metrics::MetricsRegistry::Instance().GetCounter(
          "bh_threadpool_tasks_total")),
      queue_depth_metric_(metrics::MetricsRegistry::Instance().GetGauge(
          "bh_threadpool_queue_depth")),
      queue_wait_metric_(metrics::MetricsRegistry::Instance().GetHistogram(
          "bh_threadpool_queue_wait_micros")) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i)
    threads_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    work_cv_.NotifyAll();
  }
  for (auto& t : threads_) t.join();
  // A Submit racing shutdown can enqueue after every worker thread observed
  // stop-and-empty and exited. Run the leftovers inline: completion
  // continuations (SearchSegmentAsync's `done`) must fire for every accepted
  // task or the dispatching query waits forever.
  for (;;) {
    MoveOnlyFn task;
    {
      MutexLock lock(mu_);
      if (queue_.empty()) break;
      task = PopLocked();
    }
    RunAndFinish(task, "ThreadPool shutdown inline drain");
  }
}

void ThreadPool::Enqueue(MoveOnlyFn fn) {
  MutexLock lock(mu_);
  queue_.push_back(QueueEntry{std::chrono::steady_clock::now(), std::move(fn)});
  ++pending_;
  queue_depth_metric_->Add(1);
  work_cv_.NotifyOne();
}

MoveOnlyFn ThreadPool::PopLocked() {
  const auto now = std::chrono::steady_clock::now();
  QueueEntry& head = queue_.front();
  queue_wait_metric_->Record(
      std::chrono::duration<double, std::micro>(now - head.enqueue_time)
          .count());
  MoveOnlyFn fn = std::move(head.fn);
  queue_.pop_front();
  queue_depth_metric_->Sub(1);
  return fn;
}

void ThreadPool::RunAndFinish(MoveOnlyFn& task,
                              [[maybe_unused]] const char* site) {
  BH_LOCK_RANK_ONLY(lockrank::AssertNoneHeld(site));
  task();
  tasks_total_metric_->Add(1);
  MutexLock lock(mu_);
  if (--pending_ == 0) idle_cv_.NotifyAll();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    MoveOnlyFn task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !stop_) work_cv_.Wait(mu_);
      // Workers drain the queue before honouring stop.
      if (queue_.empty()) return;
      task = PopLocked();
    }
    RunAndFinish(task, "ThreadPool task");
  }
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (pending_ != 0) idle_cv_.Wait(mu_);
}

}  // namespace blendhouse::common
