#ifndef BLENDHOUSE_BENCH_BENCH_UTIL_H_
#define BLENDHOUSE_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/blendhouse_system.h"
#include "baselines/dataset.h"
#include "baselines/milvus_sim.h"
#include "baselines/pgvector_sim.h"
#include "baselines/vectordb_iface.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"

namespace blendhouse::bench {

/// Shrink factor applied to every dataset so the full bench suite finishes
/// in minutes (calibrated for a single-core CI host). Set BH_BENCH_SCALE=1.0
/// in the environment for full size.
inline double BenchScale() {
  const char* env = std::getenv("BH_BENCH_SCALE");
  return env != nullptr ? std::atof(env) : 0.25;
}

/// HNSW construction parameters shared by every system in the comparison
/// benches, scaled down alongside the datasets.
inline size_t BenchHnswM() { return 8; }
inline size_t BenchHnswEfc() { return 60; }

/// Client insert-stream bandwidth shared by all systems (bytes/us); ~8 MB/s
/// models the per-stream gRPC/libpq ingest rates VectorDBBench sees.
inline double BenchIngestStreamBw() { return 4.0; }

/// BlendHouse adapter options with the shared HNSW construction parameters.
inline baselines::BlendHouseSystemOptions DefaultBhOptions() {
  baselines::BlendHouseSystemOptions o;
  o.index_params["M"] = std::to_string(BenchHnswM());
  o.index_params["EF_CONSTRUCTION"] = std::to_string(BenchHnswEfc());
  o.ingest_stream.bytes_per_micro = BenchIngestStreamBw();
  // Server-side ingestion pipeline: flushes (and their index builds) run in
  // the background, overlapping the client's insert stream.
  o.db.ingest.async_flush = true;
  return o;
}

inline baselines::MilvusSimOptions DefaultMilvusOptions() {
  baselines::MilvusSimOptions o;
  o.hnsw_m = BenchHnswM();
  o.hnsw_ef_construction = BenchHnswEfc();
  o.ingest_stream.bytes_per_micro = BenchIngestStreamBw();
  return o;
}

inline baselines::PgvectorSimOptions DefaultPgOptions() {
  baselines::PgvectorSimOptions o;
  o.hnsw_m = BenchHnswM();
  o.hnsw_ef_construction = BenchHnswEfc();
  o.ingest_stream.bytes_per_micro = BenchIngestStreamBw();
  return o;
}

inline baselines::DatasetSpec Scaled(baselines::DatasetSpec spec) {
  double scale = BenchScale();
  spec.n = static_cast<size_t>(static_cast<double>(spec.n) * scale);
  spec.num_queries =
      std::max<size_t>(16, static_cast<size_t>(spec.num_queries * scale));
  return spec;
}

struct QpsResult {
  double qps = 0;
  double mean_latency_ms = 0;
  double p99_latency_ms = 0;
  size_t errors = 0;
};

/// Drives `run_one(query_index)` from `threads` client threads for
/// `total_queries` queries, measuring throughput and latency. `run_one`
/// returns false on error.
inline QpsResult MeasureQps(const std::function<bool(size_t)>& run_one,
                            size_t total_queries, size_t threads = 4) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> errors{0};
  std::vector<common::Histogram> latencies(threads);
  common::Timer wall;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= total_queries) break;
        common::Timer timer;
        if (!run_one(i)) errors.fetch_add(1);
        latencies[t].Add(timer.ElapsedMillis());
      }
    });
  }
  for (auto& th : pool) th.join();
  double seconds = wall.ElapsedSeconds();

  common::Histogram all;
  for (auto& h : latencies)
    for (double v : h.samples()) all.Add(v);
  QpsResult r;
  r.qps = static_cast<double>(total_queries) / seconds;
  r.mean_latency_ms = all.Mean();
  r.p99_latency_ms = all.Percentile(99);
  r.errors = errors.load();
  return r;
}

struct RecallTarget {
  int ef = 0;
  double recall = 0;
  bool reached = false;
};

/// Smallest ef_search (from a doubling sweep) reaching `target` average
/// recall over the dataset's queries; reports the best recall seen if the
/// target is unreachable (pgvector's hybrid failure mode).
inline RecallTarget FindEfForRecall(
    baselines::VectorSystem& system, const baselines::BenchDataset& data,
    double target, size_t k, bool filtered = false, int64_t lo = 0,
    int64_t hi = 0, int max_ef = 512) {
  RecallTarget best;
  size_t queries = std::min<size_t>(data.num_queries, 24);
  for (int ef = static_cast<int>(k); ef <= max_ef; ef *= 2) {
    double total = 0;
    for (size_t q = 0; q < queries; ++q) {
      baselines::SearchRequest req;
      req.query = data.query(q);
      req.k = k;
      req.ef_search = ef;
      req.filtered = filtered;
      req.lo = lo;
      req.hi = hi;
      auto hits = system.Search(req);
      if (!hits.ok()) continue;
      total += baselines::RecallOf(
          *hits, baselines::GroundTruth(data, data.query(q), k, filtered, lo,
                                        hi));
    }
    double recall = total / static_cast<double>(queries);
    if (recall > best.recall) {
      best.recall = recall;
      best.ef = ef;
    }
    if (recall >= target) {
      best.reached = true;
      best.ef = ef;
      best.recall = recall;
      break;
    }
  }
  return best;
}

/// QPS of a system at fixed ef over the dataset's query set.
/// Default one client thread: on a single-core host, concurrent clients
/// only add scheduler noise, and modeled network waits (proxy hops, libpq
/// round-trips) are genuine per-query latency for a single stream.
inline QpsResult SystemQps(baselines::VectorSystem& system,
                           const baselines::BenchDataset& data, size_t k,
                           int ef, size_t total_queries, bool filtered = false,
                           int64_t lo = 0, int64_t hi = 0,
                           size_t threads = 1) {
  return MeasureQps(
      [&](size_t i) {
        baselines::SearchRequest req;
        req.query = data.query(i % data.num_queries);
        req.k = k;
        req.ef_search = ef;
        req.filtered = filtered;
        req.lo = lo;
        req.hi = hi;
        return system.Search(req).ok();
      },
      total_queries, threads);
}

/// Per-query execution breakdown summed over the successful queries in a
/// database's query log (DESIGN.md §15). Benches Clear() the log before the
/// measured run; the ring holds the last 1,024 queries, so a run must issue
/// fewer than that.
struct LedgerTotals {
  size_t queries = 0;
  double exec_micros = 0;
  double queue_wait_micros = 0;
  double compute_micros = 0;
  double sim_io_micros = 0;
  size_t retries = 0;
};

inline LedgerTotals SumQueryLog(core::BlendHouse& db) {
  LedgerTotals t;
  for (const core::QueryLogRecord& rec : db.query_log().Records()) {
    if (rec.status != "ok") continue;
    ++t.queries;
    t.exec_micros += rec.exec_micros;
    t.queue_wait_micros += rec.ledger.queue_wait_micros;
    t.compute_micros += rec.ledger.compute_micros;
    t.sim_io_micros += rec.ledger.sim_io_micros;
    t.retries += rec.ledger.retries;
  }
  return t;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void QuietLogs() { common::SetLogLevel(common::LogLevel::kError); }

/// Dumps the process-wide metrics registry (DESIGN.md §10) filtered to the
/// given `bh_<subsystem>_` name prefixes. Benches print this after their
/// runs so the figures can be reconciled against the telemetry the system
/// itself exports. Note the registry accumulates across every system built
/// in the process — values are per-run only if the bench builds one system.
inline void PrintRegistrySnapshot(
    std::initializer_list<const char*> prefixes) {
  std::printf("\nMetrics registry snapshot:\n");
  for (const auto& sample :
       common::metrics::MetricsRegistry::Instance().Snapshot()) {
    bool match = prefixes.size() == 0;
    for (const char* prefix : prefixes)
      if (sample.name.rfind(prefix, 0) == 0) {
        match = true;
        break;
      }
    if (match)
      std::printf("  %-52s %.0f\n", sample.name.c_str(), sample.value);
  }
}

}  // namespace blendhouse::bench

#endif  // BLENDHOUSE_BENCH_BENCH_UTIL_H_
