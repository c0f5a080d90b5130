// Multi-threaded stress tests, sized to finish in seconds so the whole file
// runs under TSan in tier-1 (-DBLENDHOUSE_SANITIZE=thread). These tests are
// about absence of data races and torn invariants, not about throughput:
// assertions are deliberately coarse (counts and accounting identities) and
// the real verdict comes from the sanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/blendhouse_system.h"
#include "baselines/dataset.h"
#include "cluster/index_cache.h"
#include "common/future.h"
#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/task_scheduler.h"
#include "common/threadpool.h"
#include "sql/plan_cache.h"
#include "storage/lsm_engine.h"
#include "storage/object_store.h"
#include "storage/segment.h"
#include "tests/test_util.h"

namespace blendhouse {
namespace {

using test::MakeClusteredVectors;

storage::TableSchema StressSchema(size_t dim, size_t buckets) {
  storage::TableSchema schema;
  schema.table_name = "t";
  schema.columns = {{"id", storage::ColumnType::kInt64},
                    {"label", storage::ColumnType::kString},
                    {"emb", storage::ColumnType::kFloatVector}};
  vecindex::IndexSpec spec;
  spec.type = "FLAT";
  spec.dim = dim;
  schema.index_spec = spec;
  schema.vector_column = 2;
  schema.semantic_buckets = buckets;
  return schema;
}

std::vector<storage::Row> StressRows(size_t n, size_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<storage::Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<float> vec(dim);
    for (auto& v : vec) v = rng.Gaussian();
    storage::Row row;
    row.values = {static_cast<int64_t>(i), std::string("lbl"), std::move(vec)};
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// common::LruCache — concurrent get/put/evict/clear
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, LruCacheGetPutEvict) {
  common::LruCache<int> cache(/*capacity_bytes=*/1024);
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      common::Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kIters; ++i) {
        std::string key = "k" + std::to_string(rng.UniformInt(0, 63));
        switch (rng.UniformInt(0, 4)) {
          case 0:
          case 1:
            cache.Put(key, i, /*bytes=*/32);
            break;
          case 2:
            (void)cache.Get(key);
            break;
          case 3:
            cache.Erase(key);
            break;
          default:
            if (i % 512 == 0) cache.Clear();
            (void)cache.used_bytes();
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Accounting survived the storm: usage is within capacity and the
  // hit/miss counters saw every Get.
  EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

// ---------------------------------------------------------------------------
// sql::PlanCache — concurrent get/put/invalidate
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, PlanCacheGetPutInvalidate) {
  sql::PlanCache cache(/*capacity=*/32);
  constexpr int kThreads = 6;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      common::Rng rng(static_cast<uint64_t>(t) + 17);
      for (int i = 0; i < kIters; ++i) {
        std::string sig = "sig" + std::to_string(rng.UniformInt(0, 47));
        if (rng.UniformInt(0, 3) == 0) {
          sql::CachedPlan plan;
          plan.rules_fired = i;
          cache.Put(sig, plan);
        } else if (i % 1000 == 999) {
          cache.Invalidate();
        } else {
          (void)cache.Get(sig);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.size(), 32u);
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

// ---------------------------------------------------------------------------
// common::ThreadPool — concurrent submit + wait
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, ThreadPoolSubmitAndWait) {
  common::ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasks = 500;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasks; ++i)
        pool.Submit([&counter] { counter.fetch_add(1); });
      pool.Wait();  // Wait() may race with other submitters; must not hang.
    });
  }
  for (auto& th : submitters) th.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), kSubmitters * kTasks);
}

// ---------------------------------------------------------------------------
// common::TaskScheduler — continuations, delay queue, cancellation
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, TaskSchedulerScheduleFromManyThreads) {
  common::TaskScheduler sched(3);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasks = 500;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&sched, &counter] {
      for (int i = 0; i < kTasks; ++i)
        sched.Schedule([&counter] { counter.fetch_add(1); });
    });
  }
  for (auto& th : submitters) th.join();
  sched.Drain();
  EXPECT_EQ(counter.load(), kSubmitters * kTasks);
  EXPECT_EQ(sched.tasks_executed(), static_cast<uint64_t>(kSubmitters) * kTasks);
}

// Queue waits are measured against a clock read under the queue lock, after
// the push. A clock read before the lock can precede a racing push, making
// the wait negative; the scheduler's uint64 accounting wraps that to ~1e19.
TEST(ConcurrencyTest, QueueWaitNeverWrapsUnderConcurrentProducers) {
  auto& registry = common::metrics::MetricsRegistry::Instance();
  auto* sched_hist = registry.GetHistogram("bh_scheduler_queue_wait_micros");
  auto* pool_hist = registry.GetHistogram("bh_threadpool_queue_wait_micros");
  const double sched_sum_before = sched_hist->Sum();
  const double pool_sum_before = pool_hist->Sum();
  constexpr int kProducers = 4;
  constexpr int kTasks = 2000;
  auto start = std::chrono::steady_clock::now();
  common::TaskScheduler sched(3);
  common::ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&sched, &pool, &ran] {
      for (int i = 0; i < kTasks; ++i) {
        sched.Schedule([&ran] { ran.fetch_add(1); });
        pool.Submit([&ran] { ran.fetch_add(1); });
      }
    });
  }
  for (auto& th : producers) th.join();
  sched.Drain();
  pool.Wait();
  ASSERT_EQ(ran.load(), 2 * kProducers * kTasks);
  const double wall_micros = std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  // No task can have waited longer than the whole test.
  const double bound = static_cast<double>(kProducers) * kTasks * wall_micros;
  EXPECT_LE(static_cast<double>(sched.queue_wait_micros()), bound);
  const double sched_sum = sched_hist->Sum() - sched_sum_before;
  const double pool_sum = pool_hist->Sum() - pool_sum_before;
  EXPECT_GE(sched_sum, 0.0);
  EXPECT_LE(sched_sum, bound);
  EXPECT_GE(pool_sum, 0.0);
  EXPECT_LE(pool_sum, bound);
}

TEST(ConcurrencyTest, TaskSchedulerDelayQueueOrderingAndTiming) {
  common::TaskScheduler sched(2);
  common::Mutex mu;
  std::vector<int> order;
  auto start = std::chrono::steady_clock::now();
  // Schedule in reverse deadline order from several threads; the delay queue
  // must fire them by deadline regardless of submission order.
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        int bucket = (t * 20 + i) % 4;  // deadlines 40/30/20/10 ms
        sched.ScheduleAfter(10000 * (4 - bucket), [&mu, &order, bucket] {
          common::MutexLock lock(mu);
          order.push_back(bucket);
        });
      }
    });
  }
  for (auto& th : submitters) th.join();
  sched.Drain();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  // All 60 fired, none earlier than its deadline allows: the earliest
  // deadline is 10 ms, and draining all four waves needs >= 40 ms wall.
  common::MutexLock lock(mu);
  ASSERT_EQ(order.size(), 60u);
  EXPECT_GE(elapsed, 40);
  // Monotone by deadline: all bucket-3 (10 ms) tasks fire before any
  // bucket-0 (40 ms) task.
  size_t last_b3 = 0, first_b0 = order.size();
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 3) last_b3 = i;
    if (order[i] == 0 && i < first_b0) first_b0 = i;
  }
  EXPECT_LT(last_b3, first_b0);
}

TEST(ConcurrencyTest, TaskSchedulerDeferredChargeAccumulates) {
  common::TaskScheduler sched(2);
  // Under a scope, charges accumulate instead of blocking; many logically
  // long I/Os must finish in far less wall time than their sum.
  constexpr int kTasks = 64;
  std::atomic<uint64_t> total_sim{0};
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kTasks; ++i) {
    sched.Schedule([&total_sim, &sched] {
      uint64_t sim = 0;
      {
        common::DeferredChargeScope scope;
        common::ChargeSimLatency(5000);  // 5 ms, deferred
        common::ChargeSimLatency(5000);
        sim = scope.accumulated_micros();
      }
      sched.ScheduleAfter(sim, [&total_sim, sim] {
        total_sim.fetch_add(sim);
      });
    });
  }
  sched.Drain();
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_EQ(total_sim.load(), static_cast<uint64_t>(kTasks) * 10000);
  // 64 x 10 ms = 640 ms sequential; overlapped via the delay queue this
  // takes ~10 ms + overhead. 300 ms is a loose CI-safe bound.
  EXPECT_LT(elapsed_ms, 300);
}

TEST(ConcurrencyTest, FutureThenContinuationsAcrossThreads) {
  common::TaskScheduler sched(2);
  constexpr int kChains = 100;
  std::atomic<int> finished{0};
  std::vector<common::Future<int>> tails;
  std::vector<common::Promise<int>> heads(kChains);
  tails.reserve(kChains);
  for (int i = 0; i < kChains; ++i) {
    tails.push_back(heads[i].GetFuture().Then(&sched, [](int v) {
      return v * 2;
    }).Then(&sched, [&finished](int v) {
      finished.fetch_add(1);
      return v + 1;
    }));
  }
  // Fulfill from a racing thread while continuations attach/run.
  std::thread setter([&heads] {
    for (int i = 0; i < kChains; ++i) heads[i].SetValue(i);
  });
  for (int i = 0; i < kChains; ++i) EXPECT_EQ(tails[i].Get(), i * 2 + 1);
  setter.join();
  EXPECT_EQ(finished.load(), kChains);
}

TEST(ConcurrencyTest, TaskSchedulerCancellationShortCircuits) {
  common::TaskScheduler sched(2);
  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  std::atomic<int> ran{0}, skipped{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    // Half the tasks go through the delay queue, half straight to ready.
    auto task = [cancelled, &ran, &skipped] {
      if (cancelled->load(std::memory_order_acquire)) {
        skipped.fetch_add(1);
        return;
      }
      ran.fetch_add(1);
    };
    if (i % 2 == 0) {
      sched.ScheduleAfter(2000 + 100 * static_cast<uint64_t>(i), task);
    } else {
      sched.Schedule(task);
    }
    if (i == kTasks / 2)
      cancelled->store(true, std::memory_order_release);
  }
  sched.Drain();
  // Every task either ran or observed the cancel flag — none lost.
  EXPECT_EQ(ran.load() + skipped.load(), kTasks);
  // The flag flipped halfway through: at least the delayed tasks scheduled
  // after it must short-circuit.
  EXPECT_GT(skipped.load(), 0);
}

// ---------------------------------------------------------------------------
// cluster::HierarchicalIndexCache — concurrent load/evict across tiers
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, HierarchicalIndexCacheLoadEvict) {
  storage::ObjectStore store(storage::StorageCostModel::Instant());
  common::ThreadPool pool(2);
  storage::TableSchema schema = StressSchema(/*dim=*/8, /*buckets=*/0);
  storage::IngestOptions ingest;
  ingest.max_segment_rows = 50;
  storage::LsmEngine engine(schema, &store, &pool, ingest);
  ASSERT_TRUE(engine.Insert(StressRows(200, 8, /*seed=*/3)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  storage::TableSnapshot snap = engine.Snapshot();
  ASSERT_GE(snap.segments.size(), 2u);

  std::vector<std::string> keys;
  for (const auto& meta : snap.segments)
    keys.push_back(storage::SegmentKeys::Index("t", meta.segment_id));

  cluster::HierarchicalIndexCache::Options opts;
  opts.memory_bytes = 64ull << 10;  // small enough to force evictions
  opts.disk_cost = storage::StorageCostModel::Instant();
  cluster::HierarchicalIndexCache cache(&store, opts);

  constexpr int kThreads = 6;
  constexpr int kIters = 300;
  std::atomic<int> load_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      common::Rng rng(static_cast<uint64_t>(t) + 5);
      for (int i = 0; i < kIters; ++i) {
        const std::string& key =
            keys[static_cast<size_t>(rng.UniformInt(0, keys.size() - 1))];
        switch (rng.UniformInt(0, 4)) {
          case 0:
            cache.Evict(key);
            break;
          case 1:
            cache.EvictMemoryOnly(key);
            break;
          case 2:
            (void)cache.GetMeta(key);
            break;
          default: {
            auto got = cache.GetOrLoad(key, *schema.index_spec);
            if (!got.ok() || (*got).index == nullptr) load_failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(load_failures.load(), 0);
}

// ---------------------------------------------------------------------------
// storage::LsmEngine — concurrent insert / search / compaction
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, LsmEngineInsertSearchCompact) {
  storage::ObjectStore store(storage::StorageCostModel::Instant());
  common::ThreadPool pool(2);
  constexpr size_t kDim = 8;
  // CLUSTER BY buckets so the first flush trains + publishes the semantic
  // partitioner while readers are probing it (the copy-on-train path).
  storage::TableSchema schema = StressSchema(kDim, /*buckets=*/3);
  storage::IngestOptions ingest;
  ingest.flush_threshold_rows = 64;
  ingest.max_segment_rows = 64;
  ingest.compaction_trigger_segments = 4;
  storage::LsmEngine engine(schema, &store, &pool, ingest);

  constexpr int kWriters = 2;
  constexpr int kBatches = 10;
  constexpr size_t kBatchRows = 48;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> compactions{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&engine, w] {
      for (int b = 0; b < kBatches; ++b) {
        auto rows = StressRows(kBatchRows, kDim,
                               static_cast<uint64_t>(w * 100 + b + 1));
        ASSERT_TRUE(engine.Insert(std::move(rows)).ok());
      }
    });
  }
  threads.emplace_back([&engine, &done, &compactions] {
    while (!done.load()) {
      auto n = engine.CompactIfNeeded();
      ASSERT_TRUE(n.ok());
      compactions.fetch_add(*n);
      std::this_thread::yield();
    }
  });
  auto query = MakeClusteredVectors(1, kDim, 1, /*seed=*/7);
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&engine, &done, &query] {
      while (!done.load()) {
        storage::TableSnapshot snap = engine.Snapshot();
        if (!snap.segments.empty()) {
          auto seg = engine.FetchSegment(snap.segments[0].segment_id);
          // A segment named by the snapshot may have been compacted away
          // since; only its *data* must be intact when the fetch succeeds.
          if (seg.ok()) {
            ASSERT_GT((*seg)->num_rows(), 0u);
          }
        }
        auto partitioner = engine.semantic_partitioner();
        if (partitioner != nullptr && partitioner->trained())
          (void)partitioner->AssignBucket(query.data());
      }
    });
  }

  // Join writers first, then stop the compactor/readers.
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  done.store(true);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  ASSERT_TRUE(engine.Flush().ok());
  // Every inserted row is visible exactly once: compaction merges segments
  // but never duplicates or drops live rows.
  storage::TableSnapshot snap = engine.Snapshot();
  EXPECT_EQ(snap.TotalRows(),
            static_cast<uint64_t>(kWriters) * kBatches * kBatchRows);
  EXPECT_EQ(engine.MemtableRows(), 0u);
  // The partitioner snapshot published during the run stays valid.
  auto partitioner = engine.semantic_partitioner();
  ASSERT_NE(partitioner, nullptr);
  EXPECT_TRUE(partitioner->trained());
}

// Async-flush variant: Insert() hands the memtable to a background flush
// thread, so commit races flush-vs-flush and flush-vs-compaction.
TEST(ConcurrencyTest, LsmEngineAsyncFlushCommitsEverything) {
  storage::ObjectStore store(storage::StorageCostModel::Instant());
  common::ThreadPool pool(2);
  constexpr size_t kDim = 4;
  storage::TableSchema schema = StressSchema(kDim, /*buckets=*/0);
  storage::IngestOptions ingest;
  ingest.flush_threshold_rows = 32;
  ingest.max_segment_rows = 32;
  ingest.async_flush = true;
  storage::LsmEngine engine(schema, &store, &pool, ingest);

  constexpr int kWriters = 3;
  constexpr int kBatches = 8;
  constexpr size_t kBatchRows = 24;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&engine, w] {
      for (int b = 0; b < kBatches; ++b) {
        auto rows = StressRows(kBatchRows, kDim,
                               static_cast<uint64_t>(w * 31 + b + 1));
        ASSERT_TRUE(engine.Insert(std::move(rows)).ok());
      }
    });
  }
  for (auto& th : writers) th.join();
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.Snapshot().TotalRows(),
            static_cast<uint64_t>(kWriters) * kBatches * kBatchRows);
}

// Query-log accounting racing worker churn: searches retried across a scale
// event must still land in system.query_log exactly once. Every successful
// search leaves exactly one "ok" record, and reads of the log race the
// appends.
TEST(ConcurrencyTest, BlendHouseSystemQueryLogRacesQueries) {
  baselines::BlendHouseSystemOptions opts;
  opts.db = core::BlendHouseOptions::Fast();
  opts.db.ingest.max_segment_rows = 64;
  opts.preload = false;
  baselines::BlendHouseSystem system(opts);

  baselines::DatasetSpec spec;
  spec.n = 256;
  spec.dim = 8;
  spec.clusters = 4;
  spec.num_queries = 8;
  baselines::BenchDataset data = baselines::MakeDataset(spec);
  ASSERT_TRUE(system.Load(data).ok());
  system.db().query_log().Clear();

  constexpr int kSearchers = 4;
  constexpr int kSearchesEach = 30;
  std::atomic<size_t> successes{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kSearchers; ++t) {
    threads.emplace_back([&system, &data, &successes, t] {
      for (int i = 0; i < kSearchesEach; ++i) {
        baselines::SearchRequest req;
        req.query = data.query((t + i) % data.num_queries);
        req.k = 5;
        if (system.Search(req).ok()) successes.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&system, &stop] {
    while (!stop.load()) {
      if (system.db().AddReadWorker() != nullptr) {
        auto workers = system.db().read_vw().workers();
        (void)system.db().RemoveReadWorker(workers.front()->id());
      }
      (void)system.db().query_log().Records();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int t = 0; t < kSearchers; ++t) threads[t].join();
  stop.store(true);
  threads.back().join();

  size_t ok_records = 0;
  double exec_micros = 0;
  for (const core::QueryLogRecord& rec : system.db().query_log().Records()) {
    if (rec.status != "ok") continue;
    ++ok_records;
    exec_micros += rec.exec_micros;
  }
  EXPECT_GT(successes.load(), 0u);
  EXPECT_EQ(ok_records, successes.load());
  EXPECT_GT(exec_micros, 0.0);
}

}  // namespace
}  // namespace blendhouse
