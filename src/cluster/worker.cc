#include "cluster/worker.h"

#include <chrono>
#include <memory>

#include "common/logging.h"
#include "vecindex/flat_index.h"
#include "vecindex/scan_counters.h"

namespace blendhouse::cluster {

Worker::Worker(std::string id, storage::ObjectStore* remote, RpcFabric* rpc,
               WorkerOptions options)
    : id_(std::move(id)),
      remote_(remote),
      rpc_(rpc),
      options_(options),
      index_cache_(remote, options.cache),
      segment_cache_(options.segment_cache_bytes),
      filter_bitmap_cache_(options.filter_bitmap_cache_bytes),
      pool_(options.threads),
      loader_(1) {
  auto& reg = common::metrics::MetricsRegistry::Instance();
  segment_cache_.InstrumentMetrics(
      reg.GetCounter("bh_segment_cache_hits_total"),
      reg.GetCounter("bh_segment_cache_misses_total"),
      reg.GetCounter("bh_segment_cache_evictions_total"),
      reg.GetGauge("bh_segment_cache_bytes"));
  filter_bitmap_cache_.InstrumentMetrics(
      reg.GetCounter("bh_filter_bitmap_cache_hits_total"),
      reg.GetCounter("bh_filter_bitmap_cache_misses_total"),
      reg.GetCounter("bh_filter_bitmap_cache_evictions_total"),
      reg.GetGauge("bh_filter_bitmap_cache_bytes"));
}

common::Result<storage::SegmentPtr> Worker::GetSegment(
    const storage::TableSchema& schema, const std::string& segment_id,
    bool use_cache) {
  std::string key = storage::SegmentKeys::Data(schema.table_name, segment_id);
  if (use_cache) {
    if (auto hit = segment_cache_.Get(key)) return *hit;
  }
  auto bytes = remote_->Get(key);
  if (!bytes.ok()) return bytes.status();
  auto segment = storage::Segment::Deserialize(*bytes);
  if (!segment.ok()) return segment.status();
  // Large scans bypass the cache so a single wide hybrid read cannot evict
  // the whole working set (the paper's row-limit thrash guard).
  if (use_cache &&
      (*segment)->num_rows() <= options_.segment_cache_row_limit)
    segment_cache_.Put(key, *segment, (*segment)->MemoryUsage());
  return segment;
}

common::Result<Worker::AcquiredIndex> Worker::BruteForceIndex(
    const storage::TableSchema& schema, const storage::SegmentMeta& meta,
    bool use_segment_cache) {
  auto segment = GetSegment(schema, meta.segment_id, use_segment_cache);
  if (!segment.ok()) return segment.status();
  if (schema.vector_column < 0)
    return common::Status::InvalidArgument("table has no vector column");
  const storage::Column& vec_col =
      (*segment)->column(schema.vector_column);
  auto flat = std::make_shared<vecindex::FlatIndex>(
      vec_col.vector_dim(), schema.index_spec.has_value()
                                ? schema.index_spec->metric
                                : vecindex::Metric::kL2);
  std::vector<vecindex::IdType> ids((*segment)->num_rows());
  for (size_t i = 0; i < ids.size(); ++i)
    ids[i] = static_cast<vecindex::IdType>(i);
  BH_RETURN_IF_ERROR(flat->AddWithIds(vec_col.vector_data().data(), ids.data(),
                                      ids.size()));
  return AcquiredIndex{flat, CacheOutcome::kBruteForce};
}

common::Result<Worker::AcquiredIndex> Worker::AcquireIndex(
    const storage::TableSchema& schema, const storage::SegmentMeta& meta,
    const AcquireOptions& opts) {
  if (!schema.index_spec.has_value())
    return BruteForceIndex(schema, meta, /*use_segment_cache=*/true);

  std::string key =
      storage::SegmentKeys::Index(schema.table_name, meta.segment_id);
  const vecindex::IndexSpec& spec = *schema.index_spec;

  // Fast path: memory or disk tier.
  if (index_cache_.PeekMemory(key) != nullptr || opts.force_local_load) {
    auto got = index_cache_.GetOrLoad(key, spec);
    if (!got.ok()) return got.status();
    return AcquiredIndex{got->index, got->outcome};
  }

  // Miss. Ask the pre-scale owner to serve from its hot cache.
  if (opts.allow_remote_serving && peer_resolver_) {
    // The resolver is VirtualWarehouse code that takes vw->mu_; calling it
    // with any worker-side lock held would invert the VW > worker hierarchy.
    BH_LOCK_RANK_ONLY(
        common::lockrank::AssertNoneHeld("Worker peer resolver"));
    Worker* prev = peer_resolver_(key);
    if (prev != nullptr && prev != this) {
      std::shared_ptr<vecindex::VectorIndex> hot = prev->PeekHotIndex(key);
      if (hot != nullptr) {
        prev->NotePeerServe();
        if (opts.background_load_on_fallback) {
          // `this` outlives the task: loader_ is the last member of Worker,
          // so ~Worker joins it (draining the queue) before anything else
          // of *this is torn down.
          loader_.Submit([this, key, spec] {  // lint:allow(this-capture)
            auto st = index_cache_.GetOrLoad(key, spec);
            if (!st.ok())
              BH_LOG(kWarn, "background index load failed: " +
                                st.status().ToString());
          });
        }
        return AcquiredIndex{
            std::make_shared<RemoteIndexProxy>(std::move(hot), prev, rpc_),
            CacheOutcome::kRemoteServing};
      }
    }
  }

  // No peer can serve. Either scan raw vectors now (cheap to start, slow per
  // query) or block on a remote load (slow once, fast after).
  if (opts.allow_brute_force) {
    if (opts.background_load_on_fallback) {
      // Safe for the same reason as above: ~Worker joins loader_ first.
      loader_.Submit([this, key, spec] {  // lint:allow(this-capture)
        auto st = index_cache_.GetOrLoad(key, spec);
        if (!st.ok())
          BH_LOG(kWarn,
                 "background index load failed: " + st.status().ToString());
      });
    }
    return BruteForceIndex(schema, meta, /*use_segment_cache=*/true);
  }
  auto got = index_cache_.GetOrLoad(key, spec);
  if (!got.ok()) return got.status();
  return AcquiredIndex{got->index, got->outcome};
}

common::Status Worker::PreloadIndex(const storage::TableSchema& schema,
                                    const storage::SegmentMeta& meta) {
  if (!schema.index_spec.has_value()) return common::Status::Ok();
  std::string key =
      storage::SegmentKeys::Index(schema.table_name, meta.segment_id);
  auto got = index_cache_.GetOrLoad(key, *schema.index_spec);
  return got.ok() ? common::Status::Ok() : got.status();
}

namespace {
uint64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}
}  // namespace

void Worker::SearchSegmentAsync(
    common::TaskScheduler* sched, std::function<void()> search,
    std::function<void(const AsyncTaskStats&)> done) {
  auto enqueued = std::chrono::steady_clock::now();
  pool_.Submit([enqueued, sched, search = std::move(search),
                done = std::move(done)]() mutable {
    auto start = std::chrono::steady_clock::now();
    AsyncTaskStats stats;
    stats.queue_wait_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(start -
                                                              enqueued)
            .count());
    {
      common::DeferredChargeScope scope;
      search();
      stats.sim_io_micros = scope.accumulated_micros();
    }
    stats.compute_micros = ElapsedMicros(start);
    sched->ScheduleAfter(stats.sim_io_micros,
                         [done = std::move(done), stats] { done(stats); });
  });
}

common::Future<common::Status> Worker::PreloadIndexAsync(
    common::TaskScheduler* sched, const storage::TableSchema& schema,
    const storage::SegmentMeta& meta) {
  common::Promise<common::Status> promise;
  common::Future<common::Status> fut = promise.GetFuture();
  if (!schema.index_spec.has_value()) {
    promise.SetValue(common::Status::Ok());
    return fut;
  }
  std::string key =
      storage::SegmentKeys::Index(schema.table_name, meta.segment_id);
  vecindex::IndexSpec spec = *schema.index_spec;
  // `this` outlives the task: ~Worker joins loader_ (declared last) before
  // index_cache_ is destroyed.
  loader_.Submit([this, sched, key = std::move(key),  // lint:allow(this-capture)
                  promise = std::move(promise), spec]() mutable {
    common::Status status;
    uint64_t sim_io = 0;
    {
      common::DeferredChargeScope scope;
      auto got = index_cache_.GetOrLoad(key, spec);
      if (!got.ok()) status = got.status();
      sim_io = scope.accumulated_micros();
    }
    sched->ScheduleAfter(sim_io,
                         [promise = std::move(promise), status]() mutable {
                           promise.SetValue(status);
                         });
  });
  return fut;
}

// ---- RemoteIndexProxy ------------------------------------------------------

namespace {
/// Estimated wire size of a search call: query floats out, k neighbors back.
size_t RpcPayloadBytes(size_t dim, size_t k) {
  return dim * sizeof(float) + k * (sizeof(vecindex::IdType) + sizeof(float));
}
}  // namespace

common::Result<vecindex::SearchIterator::Stats> Worker::StreamSearch(
    const storage::TableSchema& schema, const storage::SegmentMeta& meta,
    const float* query, const vecindex::SearchParams& params,
    size_t batch_size,
    const std::function<bool(const std::vector<vecindex::Neighbor>&)>& sink,
    const AcquireOptions& opts, common::QueryLedger* ledger) {
  if (batch_size == 0)
    return common::Status::InvalidArgument(
        "stream search: batch_size must be positive");
  // The whole stream runs synchronously on this thread, so the scope's
  // delta is exactly this call's distance work (see scan_counters.h).
  vecindex::scanstats::ScanCounterScope scan_scope;
  auto acquired = AcquireIndex(schema, meta, opts);
  if (!acquired.ok()) return acquired.status();
  auto iter = acquired->index->MakeIterator(query, params);
  if (!iter.ok()) return iter.status();
  for (;;) {
    std::vector<vecindex::Neighbor> batch = (*iter)->Next(batch_size);
    if (batch.empty()) break;
    rpc_->Charge(RpcPayloadBytes(acquired->index->Dim(), batch.size()));
    if (!sink(batch)) break;
  }
  vecindex::SearchIterator::Stats stats = (*iter)->GetStats();
  if (ledger != nullptr) {
    vecindex::scanstats::TierCounts scans = scan_scope.Delta();
    for (size_t i = 0; i < vecindex::scanstats::kNumTiers; ++i)
      ledger->distance_comps[i] += scans.dist[i];
    ledger->rows_scanned += scans.total();
    ledger->iter_batches += stats.batches;
    ledger->iter_rows_visited += stats.rows_visited;
    ledger->iter_recompute_rounds += stats.recompute_rounds;
    ledger->segments_scanned += 1;
  }
  return stats;
}

common::Result<std::vector<vecindex::Neighbor>>
RemoteIndexProxy::SearchWithFilter(
    const float* query, const vecindex::SearchParams& params) const {
  rpc_->Charge(RpcPayloadBytes(Dim(), static_cast<size_t>(params.k)));
  return peer_index_->SearchWithFilter(query, params);
}

namespace {
class RemoteIteratorProxy : public vecindex::SearchIterator {
 public:
  RemoteIteratorProxy(std::unique_ptr<vecindex::SearchIterator> inner,
                      RpcFabric* rpc, size_t dim)
      : inner_(std::move(inner)), rpc_(rpc), dim_(dim) {}

  std::vector<vecindex::Neighbor> Next(size_t batch_size) override {
    rpc_->Charge(RpcPayloadBytes(dim_, batch_size));
    return inner_->Next(batch_size);
  }
  size_t VisitedCount() const override { return inner_->VisitedCount(); }
  Stats GetStats() const override { return inner_->GetStats(); }

 private:
  std::unique_ptr<vecindex::SearchIterator> inner_;
  RpcFabric* rpc_;
  size_t dim_;
};
}  // namespace

common::Result<std::unique_ptr<vecindex::SearchIterator>>
RemoteIndexProxy::MakeIterator(const float* query,
                               const vecindex::SearchParams& params) const {
  auto inner = peer_index_->MakeIterator(query, params);
  if (!inner.ok()) return inner.status();
  return std::unique_ptr<vecindex::SearchIterator>(
      std::make_unique<RemoteIteratorProxy>(std::move(*inner), rpc_, Dim()));
}

}  // namespace blendhouse::cluster
