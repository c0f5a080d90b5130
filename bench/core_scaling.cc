// Concurrency curve for the execution engine (DESIGN.md §12): read QPS of
// Fig. 12's mixed read/write workload as worker threads and in-flight client
// concurrency sweep 1 -> N.
//
// The host may have a single core, so the curve is driven by in-flight
// concurrency over SIMULATED I/O rather than raw CPU parallelism: a cache
// budget too small to retain any index forces every query through the disk
// tier, and the charged latency parks on the scheduler's delay queue
// without occupying a thread. More threads => more overlapped waits =>
// higher QPS, until queue contention or compute flattens the curve.
//
// Expected shape: the curve rises monotonically. Emits
// BENCH_core_scaling.json for CI trend tracking; with BH_BENCH_ASSERT=1 the
// smoke assertions below gate the build.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "baselines/blendhouse_system.h"
#include "bench/bench_util.h"
#include "common/metrics.h"
#include "tests/test_util.h"

namespace blendhouse {
namespace {

struct ScalePoint {
  size_t threads = 0;
  double qps = 0;
  double p99_ms = 0;
};

ScalePoint ReadQpsAtConcurrency(size_t threads,
                                const baselines::BenchDataset& data) {
  baselines::BlendHouseSystemOptions opts = bench::DefaultBhOptions();
  opts.db.worker_threads = threads;
  // Fig. 12's mixed configuration: index builds share the read VW's pools.
  opts.db.separate_write_vw = false;
  opts.db.ingest.flush_threshold_rows = 256;
  opts.db.ingest.max_segment_rows = 256;
  opts.index_params["M"] = "8";
  opts.index_params["EF_CONSTRUCTION"] = "40";
  // Constant per-query simulated I/O (the fig11 cold-tier recipe): a memory
  // budget too small to retain any index plus forced local loads sends every
  // query through the disk tier, and the charge is deferred onto the delay
  // queue where concurrent queries overlap it. The tier's base latency is
  // raised well above this workload's ~1ms of per-query compute so the
  // curve stays I/O-bound across the whole sweep — otherwise a single
  // core's compute ceiling flattens it after the first doubling and the
  // monotonicity gate measures noise.
  opts.preload = false;
  opts.db.worker.cache.memory_bytes = 4096;
  opts.db.settings.acquire.force_local_load = true;
  opts.db.worker.cache.disk_cost = storage::StorageCostModel{6000, 2000.0,
                                                             true};

  baselines::BlendHouseSystem system(opts);
  if (!system.Load(data).ok()) return {};

  // Rate-limited background writer: one 256-row batch then sleep, so the
  // read VW keeps absorbing flush/build tasks without saturating the host.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    common::Rng rng(17);
    int64_t next_id = 10000000;
    while (!stop.load()) {
      std::vector<storage::Row> rows;
      for (size_t i = 0; i < 256; ++i) {
        std::vector<float> vec(data.dim);
        for (auto& v : vec) v = rng.Gaussian();
        storage::Row row;
        row.values = {next_id++, rng.UniformInt(0, 999999), int64_t{0}, 0.5,
                      std::string("w"), std::move(vec)};
        rows.push_back(std::move(row));
      }
      (void)system.db().Insert("bench", std::move(rows));
      std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    }
  });

  // Warmup absorbs one-time costs (first brute-force scans, first flush's
  // index build) so the measured window sees the steady cold-tier cost.
  (void)bench::SystemQps(system, data, /*k=*/10, /*ef=*/64,
                         /*total_queries=*/8 * threads, false, 0, 0,
                         /*threads=*/threads);
  bench::QpsResult r =
      bench::SystemQps(system, data, /*k=*/10, /*ef=*/64,
                       /*total_queries=*/80 * threads, false, 0, 0,
                       /*threads=*/threads);
  stop.store(true);
  writer.join();

  ScalePoint p;
  p.threads = threads;
  p.qps = r.qps;
  p.p99_ms = r.p99_latency_ms;
  return p;
}

void WriteJson(const std::vector<ScalePoint>& curve) {
  std::FILE* f = std::fopen("BENCH_core_scaling.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"core_scaling\",\n");
  std::fprintf(f, "  \"scale\": %.3f,\n", bench::BenchScale());
  std::fprintf(f, "  \"threads\": [");
  for (size_t i = 0; i < curve.size(); ++i)
    std::fprintf(f, "%s%zu", i == 0 ? "" : ", ", curve[i].threads);
  std::fprintf(f, "],\n  \"qps\": [");
  for (size_t i = 0; i < curve.size(); ++i)
    std::fprintf(f, "%s%.2f", i == 0 ? "" : ", ", curve[i].qps);
  std::fprintf(f, "],\n  \"p99_ms\": [");
  for (size_t i = 0; i < curve.size(); ++i)
    std::fprintf(f, "%s%.2f", i == 0 ? "" : ", ", curve[i].p99_ms);
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace blendhouse

int main() {
  using namespace blendhouse;
  bench::QuietLogs();
  bench::PrintHeader("Core scaling: scheduler concurrency curve, mixed workload");

  baselines::DatasetSpec spec = bench::Scaled(baselines::CohereSmall());
  spec.n = std::min<size_t>(spec.n, 4096);  // rebuilt once per sweep point
  baselines::BenchDataset data = baselines::MakeDataset(spec);

  // Sweep in-flight concurrency 1 -> N. The top point is at least 8 so the
  // overlap headroom is visible even on a single-core CI host.
  const size_t max_t =
      std::max<size_t>(8, std::thread::hardware_concurrency());
  std::vector<size_t> sweep;
  for (size_t t = 1; t <= max_t; t *= 2) sweep.push_back(t);
  if (sweep.back() != max_t) sweep.push_back(max_t);

  auto* sched_wait = common::metrics::MetricsRegistry::Instance().GetHistogram(
      "bh_scheduler_queue_wait_micros");
  std::vector<ScalePoint> curve;
  std::printf("%-10s %14s %10s\n", "threads", "QPS", "p99 (ms)");
  for (size_t t : sweep) {
    ScalePoint p = ReadQpsAtConcurrency(t, data);
    curve.push_back(p);
    std::printf("%-10zu %14.0f %10.2f\n", t, p.qps, p.p99_ms);
  }

  WriteJson(curve);
  std::printf(
      "\nReading: QPS rises with in-flight concurrency because each query's"
      "\nsimulated disk-tier I/O parks on the delay queue instead of holding"
      "\na thread (curve written to BENCH_core_scaling.json).\n");
  bench::PrintRegistrySnapshot({"bh_threadpool_", "bh_scheduler_"});

  // Smoke gate (CI sets BH_BENCH_ASSERT=1). The hard guarantee is the
  // scaling shape: overlapped sim I/O must buy throughput, monotonically
  // within noise tolerance. The scheduler's queue-wait sum must also stay a
  // real duration: under a second per task on average, where a negative
  // wait cast to uint64 once exported ~1e19.
  if (const char* gate = std::getenv("BH_BENCH_ASSERT");
      gate != nullptr && gate[0] == '1') {
    int failures = 0;
    auto expect = [&](bool ok, const char* what) {
      if (!ok) {
        std::fprintf(stderr, "BENCH ASSERT FAILED: %s\n", what);
        ++failures;
      }
    };
    expect(curve.back().qps > curve.front().qps,
           "QPS(max threads) > QPS(1 thread)");
    for (size_t i = 1; i < curve.size(); ++i)
      expect(curve[i].qps >= 0.8 * curve[i - 1].qps,
             "curve monotone within 20% tolerance");
    expect(sched_wait->Sum() <
               static_cast<double>(sched_wait->Count()) * 1e6,
           "bh_scheduler_queue_wait_micros_sum < count x 1e6 us");
    if (failures > 0) return 1;
    std::printf("\nsmoke assertions passed (%zu sweep points)\n",
                sweep.size());
  }
  return 0;
}
