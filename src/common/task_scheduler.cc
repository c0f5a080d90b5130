#include "common/task_scheduler.h"

#include <algorithm>

namespace blendhouse::common {

namespace {
using Clock = std::chrono::steady_clock;

thread_local DeferredChargeScope* g_charge_scope = nullptr;

}  // namespace

TaskScheduler::TaskScheduler(size_t num_threads)
    : tasks_total_metric_(metrics::MetricsRegistry::Instance().GetCounter(
          "bh_scheduler_tasks_total")),
      queue_depth_metric_(metrics::MetricsRegistry::Instance().GetGauge(
          "bh_scheduler_queue_depth")),
      queue_wait_metric_(metrics::MetricsRegistry::Instance().GetHistogram(
          "bh_scheduler_queue_wait_micros")) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i)
    threads_.emplace_back([this] { WorkerLoop(); });
}

TaskScheduler::~TaskScheduler() {
  // Threads exit immediately on stop, dropping still-queued tasks — safe
  // because every scheduler owner (VirtualWarehouse) drains in-flight
  // queries before destruction; see virtual_warehouse.h.
  {
    MutexLock lock(mu_);
    stop_ = true;
    work_cv_.NotifyAll();
  }
  for (auto& t : threads_) t.join();
}

void TaskScheduler::Schedule(MoveOnlyFn fn) {
  MutexLock lock(mu_);
  ready_.push_back(ReadyTask{Clock::now(), std::move(fn)});
  ++outstanding_;
  queue_depth_metric_->Add(1);
  work_cv_.NotifyOne();
}

void TaskScheduler::ScheduleAfter(uint64_t delay_micros, MoveOnlyFn fn) {
  if (delay_micros == 0) return Schedule(std::move(fn));
  const auto deadline = Clock::now() + std::chrono::microseconds(delay_micros);
  MutexLock lock(mu_);
  // A new earliest deadline makes every parked thread's wakeup too late (or
  // absent), so all of them re-arm. A later one is already covered by the
  // parked threads' earlier wakeups.
  const bool earliest =
      delayed_.empty() || deadline < delayed_.front().deadline;
  delayed_.push_back(DelayedTask{deadline, next_seq_++, std::move(fn)});
  std::push_heap(delayed_.begin(), delayed_.end(), Later);
  ++outstanding_;
  if (earliest) work_cv_.NotifyAll();
}

void TaskScheduler::PromoteExpiredLocked(Clock::time_point now) {
  // pop_heap moves the earliest entry to the back, where its fn is moved out
  // directly.
  while (!delayed_.empty() && delayed_.front().deadline <= now) {
    std::pop_heap(delayed_.begin(), delayed_.end(), Later);
    ready_.push_back(
        ReadyTask{delayed_.back().deadline, std::move(delayed_.back().fn)});
    delayed_.pop_back();
    queue_depth_metric_->Add(1);
  }
}

MoveOnlyFn TaskScheduler::PopReadyLocked(Clock::time_point now) {
  ReadyTask& head = ready_.front();
  const uint64_t wait = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          now - head.enqueue_time)
          .count());
  queue_wait_micros_.fetch_add(wait, std::memory_order_relaxed);
  queue_wait_metric_->Record(static_cast<double>(wait));
  MoveOnlyFn fn = std::move(head.fn);
  ready_.pop_front();
  queue_depth_metric_->Sub(1);
  return fn;
}

void TaskScheduler::WorkerLoop() {
  for (;;) {
    MoveOnlyFn task;
    {
      MutexLock lock(mu_);
      for (;;) {
        if (stop_) return;
        const auto now = Clock::now();
        PromoteExpiredLocked(now);
        if (!ready_.empty()) {
          task = PopReadyLocked(now);
          break;
        }
        if (delayed_.empty()) {
          work_cv_.Wait(mu_);
        } else {
          work_cv_.WaitUntil(mu_, delayed_.front().deadline);
        }
      }
      // Several deadlines may have expired at once: pass the baton.
      if (!ready_.empty()) work_cv_.NotifyOne();
    }
    BH_LOCK_RANK_ONLY(lockrank::AssertNoneHeld("TaskScheduler task"));
    task();
    tasks_total_metric_->Add(1);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(mu_);
    if (--outstanding_ == 0) idle_cv_.NotifyAll();
  }
}

void TaskScheduler::Drain() {
  MutexLock lock(mu_);
  while (outstanding_ != 0) idle_cv_.Wait(mu_);
}

DeferredChargeScope::DeferredChargeScope() : prev_(g_charge_scope) {
  g_charge_scope = this;
}

DeferredChargeScope::~DeferredChargeScope() { g_charge_scope = prev_; }

void ChargeSimLatency(uint64_t micros) {
  if (micros == 0) return;
  if (g_charge_scope != nullptr) {
    g_charge_scope->accumulated_ += micros;
    return;
  }
  // Sync caller: block for the full duration. A private Mutex/CondVar pair
  // waited on with a deadline is the sanctioned stand-in for sleep_for (no
  // one ever notifies, so WaitUntil returns exactly at deadline).
  Mutex mu{lockrank::kSimWait};
  CondVar cv;
  auto deadline = Clock::now() + std::chrono::microseconds(micros);
  MutexLock lock(mu);
  while (Clock::now() < deadline) cv.WaitUntil(mu, deadline);
}

bool SimChargeDeferred() { return g_charge_scope != nullptr; }

}  // namespace blendhouse::common
