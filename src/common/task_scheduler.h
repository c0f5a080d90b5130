#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/move_only_fn.h"
#include "common/mutex.h"

namespace blendhouse::common {

/// Continuation-based task scheduler with one FIFO ready queue and one
/// deadline-ordered delay queue (DESIGN.md §12).
///
/// The scheduler is the substrate of the async execution core: query work is
/// decomposed into move-only tasks (MoveOnlyFn) that run on a small pool of
/// scheduler threads, and *simulated* latency (RPC fabric, object store,
/// cache disk tier, DiskANN beam reads) is charged by scheduling the next
/// continuation at `now + latency` on the delay queue instead of parking a
/// thread in sleep_for. A 2-thread worker can therefore have an unbounded
/// number of simulated I/Os in flight — the property Figs. 11/12/18 measure.
///
/// One mutex (mu_, rank kTaskScheduler) guards the ready deque, the deadline
/// min-heap, the Drain() barrier count and both condition variables. Any
/// idle thread promotes expired deadlines onto the ready deque (so promoted
/// continuations drain in deadline order) and parks with WaitUntil(earliest
/// deadline). Every parked thread's wakeup is at or before the earliest
/// deadline: a ScheduleAfter that becomes the new earliest wakes them all to
/// re-arm.
///
/// Tasks run with no scheduler lock held, so they may take any lock.
class TaskScheduler {
 public:
  explicit TaskScheduler(size_t num_threads = 2);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Enqueues `fn` to run as soon as a scheduler thread is free.
  void Schedule(MoveOnlyFn fn) EXCLUDES(mu_);

  /// Enqueues `fn` to run no earlier than `delay_micros` from now. This is
  /// how simulated latency is charged: the continuation fires at deadline
  /// while the scheduler threads stay free to run other tasks.
  void ScheduleAfter(uint64_t delay_micros, MoveOnlyFn fn) EXCLUDES(mu_);

  /// Blocks until both queues are empty and no task is running. Test helper;
  /// the query path never calls this.
  void Drain() EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

  /// Cumulative count of tasks that have finished running.
  uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Cumulative micros tasks spent queued (ready queue only) before running.
  uint64_t queue_wait_micros() const {
    return queue_wait_micros_.load(std::memory_order_relaxed);
  }

 private:
  struct DelayedTask {
    std::chrono::steady_clock::time_point deadline;
    uint64_t seq = 0;  // FIFO tie-break for equal deadlines
    // Owned directly: the heap lives in a plain vector manipulated with
    // push_heap/pop_heap, so the expiring task is moved straight out of the
    // back slot — no shared_ptr indirection per delayed task.
    MoveOnlyFn fn;
  };

  struct ReadyTask {
    std::chrono::steady_clock::time_point enqueue_time;
    MoveOnlyFn fn;
  };

  /// Heap comparator: a sorts after b (std::push_heap keeps the *earliest*
  /// deadline at front under this ordering).
  static bool Later(const DelayedTask& a, const DelayedTask& b) {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.seq > b.seq;
  }

  /// Moves every delayed task whose deadline is <= `now` onto the ready
  /// deque. Its queue wait is measured from deadline, not submission: the
  /// delay itself is simulated I/O, not scheduler contention.
  void PromoteExpiredLocked(std::chrono::steady_clock::time_point now)
      REQUIRES(mu_);
  /// Pops the FIFO head of the ready deque and records its queue wait.
  /// `now` must be read under mu_ after every push the caller can observe,
  /// so `now - enqueue_time` is never negative.
  MoveOnlyFn PopReadyLocked(std::chrono::steady_clock::time_point now)
      REQUIRES(mu_);
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_{lockrank::kTaskScheduler};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<ReadyTask> ready_ GUARDED_BY(mu_);
  /// Min-heap on (deadline, seq) via push_heap/pop_heap with Later();
  /// front() is the earliest deadline.
  std::vector<DelayedTask> delayed_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  /// Ready + delayed + running: the Drain() barrier.
  size_t outstanding_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> queue_wait_micros_{0};

  // Registry metrics, shared by every scheduler instance in the process;
  // resolved once here so the hot path never touches the registry map.
  metrics::Counter* tasks_total_metric_;
  metrics::Gauge* queue_depth_metric_;
  metrics::HistogramMetric* queue_wait_metric_;
  std::vector<std::thread> threads_;  // written only in the constructor
};

/// ---------------------------------------------------------------------------
/// Deferred simulated-latency charging.
///
/// Cost-model sites (RpcFabric::Charge, ObjectStore reads, the index cache's
/// disk tier, DiskAnnIndex beam reads) sit deep inside synchronous call
/// stacks; turning each into a continuation would mean hand-written state
/// machines. Instead they call ChargeSimLatency(micros), which:
///
///   - inside a DeferredChargeScope (the async query path): *accumulates* the
///     micros into the scope — no blocking at all. When the enclosing task
///     finishes, the executor schedules its completion continuation at
///     `now + accumulated` on the delay queue, so wall-clock latency is
///     preserved at task granularity while the thread stays free.
///   - outside any scope (sync callers: ingestion, tests, baselines): blocks
///     the calling thread for the full duration via a timed CondVar wait —
///     same observable behaviour as the old sleep_for.
/// ---------------------------------------------------------------------------

/// RAII scope that redirects ChargeSimLatency() on this thread into an
/// accumulator. Scopes nest; charges go to the innermost.
class DeferredChargeScope {
 public:
  DeferredChargeScope();
  ~DeferredChargeScope();

  DeferredChargeScope(const DeferredChargeScope&) = delete;
  DeferredChargeScope& operator=(const DeferredChargeScope&) = delete;

  /// Total micros charged inside this scope so far.
  uint64_t accumulated_micros() const { return accumulated_; }

 private:
  friend void ChargeSimLatency(uint64_t);
  uint64_t accumulated_ = 0;
  DeferredChargeScope* prev_ = nullptr;
};

/// Charge `micros` of simulated latency. Deferred (accumulated) when a
/// DeferredChargeScope is active on this thread, otherwise blocks for the
/// full duration. Never burns CPU; never uses sleep_for.
void ChargeSimLatency(uint64_t micros);

/// True when a DeferredChargeScope is active on the calling thread. Cost
/// models use this only for stats, never for behaviour.
bool SimChargeDeferred();

}  // namespace blendhouse::common
