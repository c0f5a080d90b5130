#pragma once

#include <cstddef>

#include "cluster/rpc.h"
#include "cluster/worker.h"
#include "common/trace.h"
#include "core/query_log.h"
#include "sql/settings.h"
#include "storage/lsm_engine.h"
#include "storage/object_store.h"

namespace blendhouse::core {

/// Top-level configuration of a BlendHouse instance. Every simulated
/// hardware characteristic (remote storage latency, RPC cost) and every
/// architectural choice the paper evaluates (VW separation, preload,
/// pipelined ingest) is set here.
struct BlendHouseOptions {
  /// Remote shared storage cost model (S3/HDFS-class by default).
  storage::StorageCostModel remote_cost = storage::StorageCostModel::Remote();
  /// Worker-to-worker RPC cost model (vector search serving).
  cluster::RpcFabric::CostModel rpc_cost;

  /// Read (query-serving) virtual warehouse size.
  size_t read_workers = 2;
  /// Threads per worker.
  size_t worker_threads = 2;
  /// Per-worker cache configuration.
  cluster::WorkerOptions worker;

  /// Dedicated index-build VW: when true (the BlendHouse architecture),
  /// ingestion's index builds run on a separate pool; when false, build
  /// tasks are deliberately scheduled onto the read VW's worker pools —
  /// the mixed-workload configuration of Fig. 12.
  bool separate_write_vw = true;
  /// Threads in the dedicated build pool (ignored when mixed).
  size_t build_threads = 4;

  /// LSM/ingest behaviour.
  storage::IngestOptions ingest;

  /// Cache-aware preload: push fresh indexes into the owning workers'
  /// caches right after every flush/compaction (paper §II-D).
  bool preload_after_flush = false;

  /// Session defaults; per-query overrides via QueryWithSettings.
  sql::QuerySettings settings;

  /// Trace retention: ring capacity, residual sampling rate, and RNG seed
  /// for the per-instance TraceSink. Spans are always produced (they feed
  /// ExecStats and EXPLAIN ANALYZE); this only controls which finished
  /// traces are kept. Retention is tail-based (DESIGN.md §15): error traces
  /// and slower-than-p99 traces are always kept, sample_rate applies to the
  /// ordinary residual only.
  trace::TraceSink::Options trace;

  /// system.query_log ring capacity and the per-fingerprint sample count
  /// below which a rolling p99 is not yet trusted as a slowness threshold.
  QueryLog::Options query_log;

  /// Rebuild table statistics when the committed version changes.
  bool auto_refresh_statistics = true;
  /// Segments sampled per statistics rebuild.
  size_t statistics_sample_segments = 8;

  /// A configuration with all latency simulation off — unit tests.
  static BlendHouseOptions Fast() {
    BlendHouseOptions o;
    o.remote_cost = storage::StorageCostModel::Instant();
    o.rpc_cost.simulate_latency = false;
    o.worker.cache.disk_cost = storage::StorageCostModel::Instant();
    return o;
  }
};

}  // namespace blendhouse::core
