// Race and deadline-ordering stress for the execution queues (DESIGN.md §7):
// ThreadPool's single FIFO queue with its Wait() barrier, and TaskScheduler's
// ready deque plus deadline heap, where any idle thread may promote an
// expired deadline. The races are written to be meaningful under TSan:
// racing Submit/Wait and Schedule/Drain across threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/task_scheduler.h"
#include "common/threadpool.h"

namespace {

namespace common = blendhouse::common;

TEST(SchedulerShardingTest, WaitVsStealVsSubmitRace) {
  common::ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasks = 250;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasks; ++i)
        pool.Submit([&counter] { counter.fetch_add(1); });
      pool.Wait();  // Wait() races other submitters and the workers; no hang.
    });
  }
  for (auto& th : submitters) th.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), kSubmitters * kTasks);
}

TEST(SchedulerShardingTest, DrainVsScheduleRace) {
  common::TaskScheduler sched(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 3;
  constexpr int kTasks = 200;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&sched, &counter] {
      for (int i = 0; i < kTasks; ++i) {
        auto bump = [&counter] { counter.fetch_add(1); };
        if (i % 3 == 0) {
          sched.ScheduleAfter(200 + 150 * static_cast<uint64_t>(i % 5), bump);
        } else {
          sched.Schedule(bump);
        }
      }
    });
  }
  // Drain concurrently with the submitters: it must neither hang nor return
  // while work it can observe is still outstanding.
  std::thread drainer([&sched] {
    for (int i = 0; i < 5; ++i) sched.Drain();
  });
  for (auto& th : submitters) th.join();
  drainer.join();
  sched.Drain();
  EXPECT_EQ(counter.load(), kSubmitters * kTasks);
  EXPECT_EQ(sched.tasks_executed(),
            static_cast<uint64_t>(kSubmitters) * kTasks);
}

TEST(SchedulerShardingTest, CrossShardDeadlineOrderingWithinTolerance) {
  common::TaskScheduler sched(4);
  common::Mutex mu;
  std::vector<int> order;
  auto start = std::chrono::steady_clock::now();
  // Four deadline waves (40/30/20/10 ms) submitted in reverse deadline
  // order: whichever of the four threads promotes an expired deadline, the
  // global firing order must still follow the deadlines.
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 8; ++i) {
      sched.ScheduleAfter(10000 * static_cast<uint64_t>(4 - wave),
                          [&mu, &order, wave] {
                            common::MutexLock lock(mu);
                            order.push_back(wave);
                          });
    }
  }
  sched.Drain();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  common::MutexLock lock(mu);
  ASSERT_EQ(order.size(), 32u);
  // Nothing fired before its deadline: draining the 40 ms wave needs 40 ms.
  EXPECT_GE(elapsed, 40);
  // Tolerance-bounded ordering: every wave-3 (10 ms) task fires before any
  // wave-0 (40 ms) task — adjacent waves may interleave at the boundary
  // under scheduler jitter, 30 ms apart they must not.
  size_t last_w3 = 0;
  size_t first_w0 = order.size();
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 3) last_w3 = i;
    if (order[i] == 0 && i < first_w0) first_w0 = i;
  }
  EXPECT_LT(last_w3, first_w0);
}

}  // namespace
