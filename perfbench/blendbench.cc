// BlendHouse benchmark: one binary, three workloads, end-to-end metrics from
// an untraced run and per-layer metrics from a traced run.
//
//   blendbench --workload hybrid_search|tiered_cache|ingest_and_query
//              [--seed N] [--seconds S] [--trace 0|1]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every query result is checked against the benchmark's own oracle
// (oracle.h); any violation sets "correct" to false and the exit code to 1.
// See README.md for the workloads, the metrics and how they relate.

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/scheduler.h"
#include "common/logging.h"
#include "core/blendhouse.h"
#include "oracle.h"
#include "sql/expression.h"
#include "sql/parser.h"
#include "vecindex/kernels/kernels.h"

namespace perfbench {
namespace {

using namespace blendhouse;
using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}
double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

constexpr double kMiB = 1024.0 * 1024.0;
/// Fresh instances built per run; set-up time is their median.
constexpr int kSetups = 3;
/// Traced runs replay every kReplayEvery-th query of each client.
constexpr uint64_t kReplayEvery = 4;
/// How many slices of `slice_seconds` a run holds (see Figures).
size_t Slices(double seconds, double slice_seconds) {
  return std::max<size_t>(1, static_cast<size_t>(seconds / slice_seconds));
}

/// Pins every thread of this process to one CPU, the first the process may
/// use; threads started later inherit it from their creator. Returns the
/// CPU, or -1 where the host does not allow it.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE && cpu < 0; ++c)
    if (CPU_ISSET(c, &allowed)) cpu = c;
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int ok = 0;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (sched_setaffinity(tid, sizeof(one), &one) == 0) ++ok;
  }
  closedir(dir);
  return ok > 0 ? cpu : -1;
}

/// Derives independent sub-seeds (splitmix64) so each input stream of a
/// workload changes with --seed without two streams sharing a sequence.
uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Violation(const std::string& what) {
    correct = false;
    if (violations.size() < 8) violations.push_back(what);
  }
  void Note(const std::string& line) const {
    std::printf("%s\n", line.c_str());
  }
  void Print() const {
    for (const std::string& v : violations)
      std::printf("violation: %s\n", v.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }
};

/// Runs the measured phase on one CPU. On the shared reference VM the
/// hypervisor's CPU steal slowed runs spread over four CPUs two- to
/// fourfold for minutes at a time, while a run on one CPU kept its pace
/// (README, "Steadiness"). Set-up and the oracle run before it on all CPUs.
void PinMeasuredPhase(Report* r) {
  int cpu = PinToOneCpu();
  r->Note(cpu >= 0 ? "measured phase pinned to cpu " + std::to_string(cpu)
                   : std::string("measured phase not pinned: no affinity"));
}

// ---------------------------------------------------------------------------
// Tables and loading
// ---------------------------------------------------------------------------

/// A table as the benchmark knows it: its rows and which of them it holds.
struct Table {
  std::string name;
  Dataset data;
  std::vector<char> live;
};

storage::TableSchema MakeSchema(const std::string& name, size_t dim,
                                vecindex::IndexSpec spec) {
  storage::TableSchema schema;
  schema.table_name = name;
  schema.columns = {{"id", storage::ColumnType::kInt64},
                    {"attr", storage::ColumnType::kInt64},
                    {"caption", storage::ColumnType::kString},
                    {"emb", storage::ColumnType::kFloatVector}};
  spec.dim = dim;
  schema.index_spec = std::move(spec);
  schema.vector_column = 3;
  return schema;
}

vecindex::IndexSpec Spec(const std::string& type,
                         std::map<std::string, std::string> params) {
  vecindex::IndexSpec spec;
  spec.type = type;
  spec.params = std::move(params);
  return spec;
}

storage::Row MakeRow(const Dataset& d, size_t i) {
  storage::Row row;
  row.values = {static_cast<int64_t>(i), d.attr[i], d.captions[i],
                std::vector<float>(d.vec(i), d.vec(i) + d.dim)};
  return row;
}

/// User-visible bytes of one row: id, attr, caption and the vector.
double UserBytes(const Dataset& d, size_t i) {
  return 16.0 + static_cast<double>(d.captions[i].size()) +
         4.0 * static_cast<double>(d.dim);
}

struct LoadStats {
  double insert_us = 0;
  uint64_t inserts = 0;
  double flush_ms = 0;
  uint64_t flushes = 0;
  uint64_t rows = 0;
  double seconds = 0;  // first Insert until Flush returns
  uint64_t ops = 0;
  uint64_t failed = 0;

  void Merge(const LoadStats& o) {
    insert_us += o.insert_us;
    inserts += o.inserts;
    flush_ms += o.flush_ms;
    flushes += o.flushes;
    rows += o.rows;
    seconds += o.seconds;
    ops += o.ops;
    failed += o.failed;
  }
};

/// Inserts rows [begin, end) of `t` in batches, then flushes. `on_batch` runs
/// before each Insert with the end of the batch (readers racing the writer
/// learn which ids may be visible).
LoadStats LoadRows(core::BlendHouse& db, const Table& t, size_t begin,
                   size_t end, size_t batch,
                   const std::function<void(size_t)>& on_batch = nullptr) {
  LoadStats ls;
  auto start = Clock::now();
  for (size_t b = begin; b < end; b += batch) {
    size_t e = std::min(end, b + batch);
    std::vector<storage::Row> rows;
    rows.reserve(e - b);
    for (size_t i = b; i < e; ++i) rows.push_back(MakeRow(t.data, i));
    if (on_batch) on_batch(e);
    auto t0 = Clock::now();
    common::Status st = db.Insert(t.name, std::move(rows));
    ls.insert_us += MicrosSince(t0);
    ++ls.inserts;
    ++ls.ops;
    if (!st.ok()) {
      ++ls.failed;
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
    }
  }
  auto t0 = Clock::now();
  common::Status st = db.Flush(t.name);
  ls.flush_ms += MicrosSince(t0) / 1000.0;
  ++ls.flushes;
  ++ls.ops;
  if (!st.ok()) {
    ++ls.failed;
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
  }
  ls.rows = end - begin;
  ls.seconds = SecondsSince(start);
  return ls;
}

Dataset Prefix(const Dataset& d, size_t n) {
  Dataset p;
  p.dim = d.dim;
  p.vectors.assign(d.vectors.begin(),
                   d.vectors.begin() + static_cast<ptrdiff_t>(n * d.dim));
  p.attr.assign(d.attr.begin(), d.attr.begin() + static_cast<ptrdiff_t>(n));
  p.captions.assign(d.captions.begin(),
                    d.captions.begin() + static_cast<ptrdiff_t>(n));
  return p;
}

double ResidentIndexMb(core::BlendHouse& db) {
  double bytes = 0;
  for (cluster::Worker* w : db.read_vw().workers())
    bytes += static_cast<double>(w->index_cache().memory_used());
  return bytes / kMiB;
}

/// Segments per worker, max over mean, for the table's current snapshot on
/// the current read VW (workers owning nothing count in the mean).
/// `detail`, when given, receives the per-worker segment counts.
double PlacementMaxOverMean(core::BlendHouse& db, const std::string& table,
                            std::string* detail = nullptr) {
  storage::LsmEngine* engine = db.engine(table);
  if (engine == nullptr) return 0;
  auto assignment = cluster::Scheduler::Assign(db.read_vw(), table,
                                               engine->Snapshot().segments);
  std::vector<cluster::Worker*> workers = db.read_vw().workers();
  size_t total = 0, most = 0;
  for (cluster::Worker* w : workers) {
    auto it = assignment.find(w->id());
    size_t n = it == assignment.end() ? 0 : it->second.size();
    total += n;
    most = std::max(most, n);
    if (detail != nullptr)
      *detail += " " + w->id() + "=" + std::to_string(n);
  }
  if (workers.empty() || total == 0) return 0;
  return static_cast<double>(most) /
         (static_cast<double>(total) / static_cast<double>(workers.size()));
}

/// Builds kSetups fresh instances with `set_up` and keeps the last one. The
/// previous instance shuts down before the next is timed. Records each
/// set-up's wall time and its load's rows per second.
template <typename World>
std::unique_ptr<World> SetUpRepeatedly(
    std::unique_ptr<World> (*set_up)(uint64_t), uint64_t seed,
    std::vector<double>* setup_s, std::vector<double>* ingest_rps,
    Report* r) {
  std::unique_ptr<World> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    auto t0 = Clock::now();
    w = set_up(seed);
    setup_s->push_back(SecondsSince(t0));
    ingest_rps->push_back(static_cast<double>(w->load.rows) /
                          w->load.seconds);
    r->attempted += w->load.ops;
    r->failed += w->load.failed;
  }
  return w;
}

/// Index build CPU per row covered by a build, over the given tables.
struct BuildCost {
  double micros = 0;
  double rows = 0;
  void Add(core::BlendHouse& db, const std::string& table, double rows_built) {
    storage::LsmEngine* engine = db.engine(table);
    if (engine == nullptr) return;
    micros += static_cast<double>(engine->stats().index_build_micros.load());
    rows += rows_built;
  }
  double PerRow() const { return rows > 0 ? micros / rows : 0; }
};

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

struct QuerySpec {
  const Table* table = nullptr;
  std::vector<float> vec;
  Predicate pred;
  std::string sql;
  std::vector<Hit> truth;
  size_t qualifying = 0;
};

/// Renders the ANN SELECT and re-reads the vector from its own text, so the
/// oracle sees exactly the floats the program parses.
std::string AnnSql(const std::string& table, const Predicate& pred,
                   std::vector<float>* vec) {
  std::string sql = "SELECT id, d FROM " + table + pred.Sql() +
                    " ORDER BY L2Distance(emb, [";
  char buf[32];
  for (size_t i = 0; i < vec->size(); ++i) {
    std::snprintf(buf, sizeof(buf), i == 0 ? "%.9g" : ",%.9g",
                  static_cast<double>((*vec)[i]));
    sql += buf;
    (*vec)[i] = std::strtof(buf + (i == 0 ? 0 : 1), nullptr);
  }
  sql += "]) AS d LIMIT " + std::to_string(kTopK) + ";";
  return sql;
}

QuerySpec MakeQuery(const Table& t, const Mixture& mix, std::mt19937_64& rng,
                    Predicate pred) {
  QuerySpec q;
  q.table = &t;
  q.vec.resize(mix.dim);
  mix.Sample(rng, q.vec.data());
  q.pred = std::move(pred);
  q.sql = AnnSql(t.name, q.pred, &q.vec);
  return q;
}

/// Fills every query's exact top-k (benchmark work, not timed as set-up).
/// Inside a measured window pass threads = 1, so the oracle takes no more
/// than the one load-generating thread it runs on.
void ComputeTruth(std::vector<QuerySpec>* queries, size_t threads = 4) {
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([queries, t, threads] {
      for (size_t i = t; i < queries->size(); i += threads) {
        QuerySpec& q = (*queries)[i];
        q.truth = ExactTopK(q.table->data, q.vec.data(), q.pred,
                            &q.table->live, kTopK, &q.qualifying);
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

std::vector<std::pair<int64_t, double>> ResultRows(const sql::QueryResult& r,
                                                   std::string* error) {
  std::vector<std::pair<int64_t, double>> rows;
  int id_col = -1, d_col = -1;
  for (size_t i = 0; i < r.column_names.size(); ++i) {
    if (r.column_names[i] == "id") id_col = static_cast<int>(i);
    if (r.column_names[i] == "d") d_col = static_cast<int>(i);
  }
  if (id_col < 0 || d_col < 0) {
    *error = "result lacks the id or d column";
    return rows;
  }
  for (const storage::Row& row : r.rows) {
    if (row.values.size() != r.column_names.size()) {
      *error = "result row has the wrong arity";
      return rows;
    }
    const int64_t* id = std::get_if<int64_t>(&row.values[id_col]);
    const double* d = std::get_if<double>(&row.values[d_col]);
    if (id == nullptr || d == nullptr) {
      *error = "result row has the wrong value types";
      return rows;
    }
    rows.emplace_back(*id, *d);
  }
  return rows;
}

/// Per-client tallies over the queries it ran, folded together at the end.
struct QueryAcc {
  /// Latencies of the untraced part of the run, with each query's
  /// completion time in seconds since `origin`.
  Clock::time_point origin;
  std::vector<double> latency_ms;
  std::vector<double> done_s;
  std::vector<double> traced_latency_ms;  // traced part (trace runs only)
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  double recall_sum = 0;
  uint64_t recall_n = 0;
  // From QueryResult.stats and its ledger.
  double plan_us = 0, queue_us = 0, compute_us = 0, sim_io_us = 0;
  uint64_t segments = 0, rows_scanned = 0, rerank_rows = 0, iter_batches = 0,
           dist_comps = 0, filter_hits = 0, filter_misses = 0;
  std::array<uint64_t, 5> outcomes{};
  std::vector<std::string> violations;

  void Violation(const std::string& what) {
    if (violations.size() < 8) violations.push_back(what);
  }

  void Fold(const sql::ExecStats& s) {
    plan_us += s.plan_micros;
    queue_us += s.ledger.queue_wait_micros;
    compute_us += s.ledger.compute_micros;
    sim_io_us += s.ledger.sim_io_micros;
    segments += s.ledger.segments_scanned;
    rows_scanned += s.ledger.rows_scanned;
    rerank_rows += s.ledger.fp32_rerank_rows;
    iter_batches += s.ledger.iter_batches;
    dist_comps += s.ledger.total_distance_comps();
    filter_hits += s.ledger.filter_cache_hits;
    filter_misses += s.ledger.filter_cache_misses;
    for (size_t i = 0; i < outcomes.size(); ++i) outcomes[i] += s.cache_outcomes[i];
  }

  void Merge(const QueryAcc& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
    traced_latency_ms.insert(traced_latency_ms.end(),
                             o.traced_latency_ms.begin(),
                             o.traced_latency_ms.end());
    ok += o.ok;
    failed += o.failed;
    rows += o.rows;
    recall_sum += o.recall_sum;
    recall_n += o.recall_n;
    plan_us += o.plan_us;
    queue_us += o.queue_us;
    compute_us += o.compute_us;
    sim_io_us += o.sim_io_us;
    segments += o.segments;
    rows_scanned += o.rows_scanned;
    rerank_rows += o.rerank_rows;
    iter_batches += o.iter_batches;
    dist_comps += o.dist_comps;
    filter_hits += o.filter_hits;
    filter_misses += o.filter_misses;
    for (size_t i = 0; i < outcomes.size(); ++i) outcomes[i] += o.outcomes[i];
    for (const std::string& v : o.violations) Violation(v);
  }

  double Recall() const {
    return recall_n > 0 ? recall_sum / static_cast<double>(recall_n) : 0;
  }
  uint64_t Queries() const { return ok; }
};

/// Stage-by-stage replay of a query through the layers' public functions.
struct ReplayAcc {
  uint64_t queries = 0;
  double parse_us = 0;
  double bitmap_us = 0;
  uint64_t bitmap_queries = 0;
  double acquire_us = 0;
  uint64_t acquires = 0;
  double hnsw_us = 0;
  uint64_t hnsw_calls = 0;
  double ivf_int8_us = 0;
  uint64_t ivf_int8_calls = 0;
  double index_bytes = 0;
  double index_rows = 0;
  double explained_us = 0;
  double e2e_us = 0;

  void Merge(const ReplayAcc& o) {
    queries += o.queries;
    parse_us += o.parse_us;
    bitmap_us += o.bitmap_us;
    bitmap_queries += o.bitmap_queries;
    acquire_us += o.acquire_us;
    acquires += o.acquires;
    hnsw_us += o.hnsw_us;
    hnsw_calls += o.hnsw_calls;
    ivf_int8_us += o.ivf_int8_us;
    ivf_int8_calls += o.ivf_int8_calls;
    index_bytes += o.index_bytes;
    index_rows += o.index_rows;
    explained_us += o.explained_us;
    e2e_us += o.e2e_us;
  }
};

/// Replays `q` the way the executor runs it, timing each public call:
/// sql::ParseStatement; PredicateEvaluator::Bind + BuildBitmap on every
/// scanned segment; Worker::AcquireIndex and VectorIndex::SearchWithFilter
/// on every segment an index plan searches. Planning is not replayed: its
/// time is the program's own ExecStats.plan_micros for the same query.
void Replay(core::BlendHouse& db, const QuerySpec& q,
            const sql::QuerySettings& settings, const sql::ExecStats& stats,
            double e2e_us, ReplayAcc* acc) {
  auto t0 = Clock::now();
  auto stmt = sql::ParseStatement(q.sql);
  double parse_us = MicrosSince(t0);
  if (!stmt.ok() || !stmt->select.has_value()) return;
  storage::LsmEngine* engine = db.engine(q.table->name);
  if (engine == nullptr) return;
  const storage::TableSchema& schema = engine->schema();
  storage::TableSnapshot snap = engine->Snapshot();
  const sql::Expr* where = stmt->select->where.get();
  sql::CompiledPredicatePtr compiled;
  if (where != nullptr) {
    auto c = sql::CompiledPredicate::Compile(*where);
    if (!c.ok()) return;
    compiled = *c;
  }
  std::vector<storage::SegmentMeta> segments = snap.segments;
  if (where != nullptr)
    segments = cluster::Scheduler::PruneScalar(
        segments, [&](const storage::SegmentMeta& m) {
          return sql::MayMatchSegment(*where, m);
        });
  auto lease = db.read_vw().AcquireQueryLease();
  auto assignment =
      cluster::Scheduler::Assign(db.read_vw(), schema.table_name, segments);

  double bitmap_us = 0;
  double explained = parse_us + stats.plan_micros;
  for (const auto& [worker_id, metas] : assignment) {
    cluster::Worker* worker = db.read_vw().worker(worker_id);
    if (worker == nullptr) continue;
    for (const storage::SegmentMeta& meta : metas) {
      common::Bitset bitmap;
      bool have_bitmap = false;
      if (compiled != nullptr) {
        auto segment = worker->GetSegment(schema, meta.segment_id, true);
        if (segment.ok()) {
          auto tb = Clock::now();
          auto bound = sql::PredicateEvaluator::Bind(compiled, **segment);
          if (bound.ok()) {
            bitmap = bound->BuildBitmap(snap.DeletesFor(meta.segment_id),
                                        settings.use_granule_pruning);
            have_bitmap = true;
          }
          bitmap_us += MicrosSince(tb);
        }
      }
      if (stats.strategy == sql::ExecStrategy::kBruteForce) continue;

      auto ta = Clock::now();
      auto acquired = worker->AcquireIndex(schema, meta, settings.acquire);
      double acquire_us = MicrosSince(ta);
      acc->acquire_us += acquire_us;
      ++acc->acquires;
      explained += acquire_us;
      if (!acquired.ok()) continue;
      const vecindex::VectorIndex& index = *acquired->index;
      vecindex::SearchParams params;
      params.k = static_cast<int>(kTopK);
      params.ef_search = settings.ef_search;
      params.nprobe = settings.nprobe;
      params.refine_factor = settings.refine_factor;
      const bool fp32 =
          index.StoragePrecision() == vecindex::Precision::kFp32;
      if (!fp32)
        params.k = static_cast<int>(std::max<size_t>(
            kTopK, std::min<size_t>(
                       static_cast<size_t>(std::max(1, settings.rerank_depth)),
                       meta.num_rows)));
      if (have_bitmap && stats.strategy == sql::ExecStrategy::kPreFilter)
        params.filter = &bitmap;
      auto ts = Clock::now();
      auto hits = index.SearchWithFilter(q.vec.data(), params);
      double search_us = MicrosSince(ts);
      explained += search_us;
      (void)hits;
      const std::string type = index.Type();
      if (type == "HNSW" && fp32) {
        acc->hnsw_us += search_us;
        ++acc->hnsw_calls;
      } else if (type == "IVFFLAT" &&
                 index.StoragePrecision() == vecindex::Precision::kInt8) {
        acc->ivf_int8_us += search_us;
        ++acc->ivf_int8_calls;
      }
      if (acquired->outcome == cluster::CacheOutcome::kMemoryHit ||
          acquired->outcome == cluster::CacheOutcome::kDiskHit ||
          acquired->outcome == cluster::CacheOutcome::kRemoteLoad) {
        acc->index_bytes += static_cast<double>(index.MemoryUsage());
        acc->index_rows += static_cast<double>(index.Size());
      }
    }
  }
  if (compiled != nullptr) {
    acc->bitmap_us += bitmap_us;
    ++acc->bitmap_queries;
  }
  explained += bitmap_us;
  acc->parse_us += parse_us;
  ++acc->queries;
  acc->explained_us += explained;
  acc->e2e_us += e2e_us;
}

/// Whether a query runs in the traced part of a trace run.
struct TracePlan {
  bool enabled = false;
  Clock::time_point from = Clock::time_point::max();
  bool Active(Clock::time_point now) const { return enabled && now >= from; }
};

/// Runs one query, checks the result against `e`, and folds it into `acc`.
/// Latency counts from `start` (the due time for open-loop clients).
/// In the traced part of a trace run every kReplayEvery-th query is also
/// replayed stage by stage. Returns false when the query failed.
bool RunChecked(core::BlendHouse& db, const QuerySpec& q,
                const sql::QuerySettings& settings, Expectation e,
                Clock::time_point start, const TracePlan& trace,
                uint64_t seq, QueryAcc* acc, ReplayAcc* replay,
                std::vector<std::pair<int64_t, double>>* rows_out = nullptr) {
  auto result = db.QueryWithSettings(q.sql, settings);
  auto done = Clock::now();
  double latency_ms =
      std::chrono::duration<double, std::milli>(done - start).count();
  if (!result.ok()) {
    ++acc->failed;
    acc->Violation("query failed: " + result.status().ToString());
    return false;
  }
  const bool traced = trace.Active(start);
  if (traced) {
    acc->traced_latency_ms.push_back(latency_ms);
  } else {
    acc->latency_ms.push_back(latency_ms);
    acc->done_s.push_back(
        std::chrono::duration<double>(done - acc->origin).count());
  }
  ++acc->ok;
  acc->Fold(result->stats);
  std::string shape_error;
  auto rows = ResultRows(*result, &shape_error);
  acc->rows += rows.size();
  if (!shape_error.empty()) {
    acc->Violation(shape_error + " in: " + q.sql.substr(0, 60));
  } else {
    e.exact_plan = result->stats.strategy == sql::ExecStrategy::kBruteForce;
    Verdict v = CheckResult(rows, e);
    if (!v.error.empty())
      acc->Violation(v.error + " in: " + q.sql.substr(0, 60) + "...");
    if (v.has_recall) {
      acc->recall_sum += v.recall;
      ++acc->recall_n;
    }
  }
  if (traced && seq % kReplayEvery == 0)
    Replay(db, q, settings, result->stats, latency_ms * 1000.0, replay);
  if (rows_out != nullptr) *rows_out = std::move(rows);
  return true;
}

Expectation ExpectFor(const QuerySpec& q) {
  Expectation e;
  e.data = &q.table->data;
  e.query = q.vec.data();
  e.pred = &q.pred;
  e.live = &q.table->live;
  e.truth = &q.truth;
  e.qualifying = q.qualifying;
  return e;
}

// ---------------------------------------------------------------------------
// Metric assembly shared by the workloads
// ---------------------------------------------------------------------------

/// End-to-end figures of one run.
struct EndToEnd {
  double setup_s = 0;
  double recall = 0;
  double ingest_rows_per_s = 0;
  double resident_index_mb = 0;
  double store_written_mb = 0;
};

/// Latency percentiles and throughput of a query loop, as medians over
/// `windows` equal slices of the measured `seconds` (windows = 1: the whole
/// run). A median over slices keeps a burst of noise from a neighbour on
/// the host in one slice from moving the run's figure.
struct LoopFigures {
  double qps = 0, p50 = 0, p99 = 0;
};

LoopFigures Figures(const QueryAcc& q, double seconds, size_t windows,
                    Report* r) {
  std::vector<std::vector<double>> slices(windows);
  for (size_t i = 0; i < q.latency_ms.size(); ++i) {
    size_t w = static_cast<size_t>(q.done_s[i] / seconds *
                                   static_cast<double>(windows));
    slices[std::min(w, windows - 1)].push_back(q.latency_ms[i]);
  }
  std::vector<double> qps, p50, p99;
  size_t min_n = SIZE_MAX;
  for (std::vector<double>& lat : slices) {
    std::sort(lat.begin(), lat.end());
    min_n = std::min(min_n, lat.size());
    qps.push_back(static_cast<double>(lat.size()) * static_cast<double>(windows) /
                  seconds);
    p50.push_back(Percentile(lat, 0.5));
    p99.push_back(Percentile(lat, TailLevel(lat.size())));
  }
  double level = TailLevel(min_n);
  char buf[220];
  std::snprintf(buf, sizeof(buf),
                "query_p99_ms is the median over %zu slices of each slice's "
                "p99 (lower where a slice holds under 1000 queries); the "
                "smallest slice has %zu queries, so its tail is the p%.2f "
                "with %zu beyond it",
                windows, min_n, level * 100.0,
                min_n - static_cast<size_t>(
                            std::ceil(level * static_cast<double>(min_n))));
  r->Note(buf);
  return {Median(qps), Median(p50), Median(p99)};
}

/// query_p99_ms is printed on its own line before the result line, not in
/// it: on tiered_cache three sets of ten seeds spread it by 21-38% of its
/// median, at or past the largest bound a metric may carry (README,
/// "Steadiness").
void AddEndToEnd(const EndToEnd& e2e, const LoopFigures& f, Report* r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "query_p99_ms: %.4f ms", f.p99);
  r->Note(buf);
  r->Add("setup_s", e2e.setup_s, "s");
  r->Add("qps", f.qps, "queries/s");
  r->Add("query_p50_ms", f.p50, "ms");
  r->Add("recall_at_10", e2e.recall, "fraction");
  r->Add("ingest_rows_per_s", e2e.ingest_rows_per_s, "rows/s");
  r->Add("resident_index_mb", e2e.resident_index_mb, "MB");
  r->Add("store_written_mb", e2e.store_written_mb, "MB");
}

/// Per-layer figures that come from the workload rather than from queries.
struct LayerInputs {
  double build_us_per_row = 0;
  double rpc_calls = 0;
  double rpc_bytes = 0;
  double placement_max_over_mean = 0;
  LoadStats load;
  double segments_at_end = 0;
  double compact_ms = 0;
  double object_get_mb = 0;
  double object_put_mb = 0;
  double write_amplification = 0;
  double generator_lag_ms = 0;
};

void AddPerLayer(const QueryAcc& q, const ReplayAcc& rp,
                 const LayerInputs& in, Report* r) {
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  double n = static_cast<double>(q.Queries());
  double outcomes = 0;
  for (uint64_t o : q.outcomes) outcomes += static_cast<double>(o);
  auto outcome = [&](cluster::CacheOutcome c) {
    return static_cast<double>(q.outcomes[static_cast<size_t>(c)]);
  };
  r->Add("common.queue_wait_us", per(q.queue_us, n), "us");
  r->Add("sql.parse_us", per(rp.parse_us, static_cast<double>(rp.queries)),
         "us");
  r->Add("sql.plan_us", per(q.plan_us, n), "us");
  r->Add("sql.filter_bitmap_us",
         per(rp.bitmap_us, static_cast<double>(rp.bitmap_queries)), "us");
  r->Add("sql.filter_cache_hit_rate",
         per(static_cast<double>(q.filter_hits),
             static_cast<double>(q.filter_hits + q.filter_misses)),
         "fraction");
  r->Add("sql.segments_scanned_per_query",
         per(static_cast<double>(q.segments), n), "count");
  r->Add("sql.rows_scanned_per_result",
         per(static_cast<double>(q.rows_scanned), static_cast<double>(q.rows)),
         "count");
  r->Add("sql.fp32_rerank_rows_per_query",
         per(static_cast<double>(q.rerank_rows), n), "count");
  r->Add("sql.iter_batches_per_query",
         per(static_cast<double>(q.iter_batches), n), "count");
  r->Add("sql.exec_compute_us", per(q.compute_us, n), "us");
  r->Add("vecindex.search_us.hnsw_fp32",
         per(rp.hnsw_us, static_cast<double>(rp.hnsw_calls)), "us");
  r->Add("vecindex.search_us.ivfflat_int8",
         per(rp.ivf_int8_us, static_cast<double>(rp.ivf_int8_calls)), "us");
  r->Add("vecindex.distance_comps_per_query",
         per(static_cast<double>(q.dist_comps), n), "count");
  r->Add("vecindex.index_bytes_per_row", per(rp.index_bytes, rp.index_rows),
         "B");
  r->Add("vecindex.build_us_per_row", in.build_us_per_row, "us");
  r->Add("cluster.acquire_us",
         per(rp.acquire_us, static_cast<double>(rp.acquires)), "us");
  r->Add("cluster.memory_hit_rate",
         per(outcome(cluster::CacheOutcome::kMemoryHit), outcomes),
         "fraction");
  r->Add("cluster.disk_hits_per_query",
         per(outcome(cluster::CacheOutcome::kDiskHit), n), "count");
  r->Add("cluster.remote_loads_per_query",
         per(outcome(cluster::CacheOutcome::kRemoteLoad), n), "count");
  r->Add("cluster.remote_serving_per_query",
         per(outcome(cluster::CacheOutcome::kRemoteServing), n), "count");
  r->Add("cluster.brute_force_per_query",
         per(outcome(cluster::CacheOutcome::kBruteForce), n), "count");
  r->Add("cluster.sim_io_us", per(q.sim_io_us, n), "us");
  r->Add("cluster.rpc_calls_per_query", per(in.rpc_calls, n), "count");
  r->Add("cluster.rpc_kb_per_query", per(in.rpc_bytes / 1024.0, n), "KB");
  r->Add("cluster.placement_max_over_mean", in.placement_max_over_mean,
         "ratio");
  r->Add("storage.insert_us",
         per(in.load.insert_us, static_cast<double>(in.load.inserts)), "us");
  r->Add("storage.flush_drain_ms",
         per(in.load.flush_ms, static_cast<double>(in.load.flushes)), "ms");
  r->Add("storage.segments_at_end", in.segments_at_end, "count");
  r->Add("storage.compact_ms", in.compact_ms, "ms");
  r->Add("storage.object_get_mb", in.object_get_mb, "MB");
  r->Add("storage.object_put_mb", in.object_put_mb, "MB");
  r->Add("storage.write_amplification", in.write_amplification, "ratio");
  r->Add("bench.generator_lag_ms", in.generator_lag_ms, "ms");
  r->Add("trace.explained_share", per(rp.explained_us, rp.e2e_us),
         "fraction");
  std::vector<double> a = q.latency_ms, b = q.traced_latency_ms;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double untraced = Percentile(a, 0.5), traced = Percentile(b, 0.5);
  r->Add("trace.overhead_pct",
         untraced > 0 && !b.empty() ? 100.0 * (traced - untraced) / untraced
                                    : 0.0,
         "%");
}

/// Prints the registry's scheduler queue-wait sum beside the per-query
/// ledgers' total: the registry sum wraps when a negative wait is cast to
/// uint64_t, which is why no metric here is read from it.
void NoteQueueWaitRegistry(core::BlendHouse& db, const QueryAcc& q,
                           Report* r) {
  auto m = db.Query(
      "SELECT value FROM system.metrics WHERE name = "
      "'bh_scheduler_queue_wait_micros_sum';");
  if (!m.ok() || m->rows.empty()) return;
  const double* v = std::get_if<double>(&m->rows[0].values[0]);
  if (v == nullptr) return;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "registry bh_scheduler_queue_wait_micros_sum = %.4g us "
                "(whole process); query ledgers' queue wait = %.4g us",
                *v, q.queue_us);
  r->Note(buf);
}

void FoldQueries(const QueryAcc& q, Report* r) {
  r->attempted += q.ok + q.failed;
  r->failed += q.failed;
  for (const std::string& v : q.violations) r->Violation(v);
}

struct StoreMark {
  uint64_t read = 0, written = 0, rpc_calls = 0, rpc_bytes = 0;
  static StoreMark Of(core::BlendHouse& db) {
    StoreMark m;
    m.read = db.object_store().stats().bytes_read.load();
    m.written = db.object_store().stats().bytes_written.load();
    m.rpc_calls = db.rpc().calls();
    m.rpc_bytes = db.rpc().bytes();
    return m;
  }
};

// ---------------------------------------------------------------------------
// hybrid_search: warm, CPU-bound hybrid SQL queries
// ---------------------------------------------------------------------------

namespace hybrid {
constexpr size_t kRows = 20000;
constexpr size_t kQuantRows = kRows / 2;
constexpr size_t kDim = 96;
constexpr size_t kClusters = 64;
constexpr double kSpread = 3.0;
constexpr size_t kSegmentRows = 5000;  // 4 + 2 segments, one build wave
constexpr size_t kBatch = 1000;
constexpr int kEf = 24;
constexpr size_t kQueriesPerClass = 96;
/// Four closed-loop clients keep a query ready for the one CPU the measured
/// phase runs on, so the figures follow the work, not thread wake-ups.
constexpr size_t kClients = 4;
constexpr double kSliceSeconds = 1.0;
constexpr double kRecallFloor = 0.75;

struct World {
  std::unique_ptr<core::BlendHouse> db;
  Table items, items_q;
  LoadStats load;
};

std::unique_ptr<World> SetUp(uint64_t seed) {
  auto w = std::make_unique<World>();
  Mixture mix(kDim, kClusters, kSpread, SubSeed(seed, 1));
  w->items.name = "items";
  w->items.data = MakeDataset(mix, kRows, SubSeed(seed, 2));
  w->items.live.assign(kRows, 1);
  w->items_q.name = "items_q";
  w->items_q.data = Prefix(w->items.data, kQuantRows);
  w->items_q.live.assign(kQuantRows, 1);

  core::BlendHouseOptions o = core::BlendHouseOptions::Fast();
  o.read_workers = 2;
  o.worker_threads = 2;
  o.build_threads = 4;
  // Inserts only fill the memtable; the explicit Flush then cuts every
  // segment at once, so their indexes build in parallel.
  o.ingest.flush_threshold_rows = kRows + 1;
  o.ingest.max_segment_rows = kSegmentRows;
  o.settings.ef_search = kEf;
  w->db = std::make_unique<core::BlendHouse>(o);
  auto check = [](const common::Status& st) {
    if (!st.ok()) std::fprintf(stderr, "set-up: %s\n", st.ToString().c_str());
  };
  check(w->db->CreateTable(MakeSchema(
      "items", kDim,
      Spec("HNSW", {{"M", "16"}, {"EF_CONSTRUCTION", "100"}}))));
  check(w->db->CreateTable(
      MakeSchema("items_q", kDim, Spec("IVFFLAT", {{"PRECISION", "int8"}}))));
  w->load = LoadRows(*w->db, w->items, 0, kRows, kBatch);
  w->load.Merge(LoadRows(*w->db, w->items_q, 0, kQuantRows, kBatch));
  check(w->db->PreloadTable("items"));
  check(w->db->PreloadTable("items_q"));
  return w;
}

std::vector<QuerySpec> MakeQueries(const World& w, uint64_t seed) {
  Mixture mix(kDim, kClusters, kSpread, SubSeed(seed, 1));
  std::mt19937_64 rng(SubSeed(seed, 3));
  std::uniform_int_distribution<int64_t> half(0, kAttrMax / 2 - 1);
  std::uniform_int_distribution<int64_t> narrow(0, kAttrMax - kAttrMax / 100);
  std::uniform_int_distribution<size_t> word(0, kNumWords - 1);
  std::vector<QuerySpec> qs;
  for (size_t i = 0; i < kQueriesPerClass; ++i) {
    // Unfiltered ANN.
    qs.push_back(MakeQuery(w.items, mix, rng, Predicate{}));
    // attr range passing about half the rows: the post-filter path.
    Predicate p;
    p.kind = Predicate::Kind::kRange;
    p.lo = half(rng);
    p.hi = p.lo + kAttrMax / 2 - 1;
    qs.push_back(MakeQuery(w.items, mix, rng, p));
    // attr range passing about 1%: pre-filter or exact scan.
    p.lo = narrow(rng);
    p.hi = p.lo + kAttrMax / 100 - 1;
    qs.push_back(MakeQuery(w.items, mix, rng, p));
    // Caption LIKE.
    Predicate like;
    like.kind = Predicate::Kind::kContains;
    like.word = kWords[word(rng)];
    qs.push_back(MakeQuery(w.items, mix, rng, like));
    // ANN over the int8 IVFFLAT table (quantized scan + fp32 rerank).
    qs.push_back(MakeQuery(w.items_q, mix, rng, Predicate{}));
  }
  ComputeTruth(&qs);
  return qs;
}

void Run(uint64_t seed, double seconds, bool trace, Report* r) {
  std::vector<double> setup_s, ingest_rps;
  std::unique_ptr<World> w = SetUpRepeatedly(SetUp, seed, &setup_s,
                                             &ingest_rps, r);
  std::vector<QuerySpec> queries = MakeQueries(*w, seed);
  core::BlendHouse& db = *w->db;
  sql::QuerySettings settings = db.options().settings;

  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(SubSeed(seed, 4)));
  PinMeasuredPhase(r);

  StoreMark before = StoreMark::Of(db);
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  TracePlan plan;
  plan.enabled = trace;
  plan.from = start + (deadline - start) / 2;
  std::vector<QueryAcc> accs(kClients);
  for (QueryAcc& a : accs) a.origin = start;
  std::vector<ReplayAcc> replays(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      size_t pos = c * order.size() / kClients;
      for (uint64_t seq = 0; Clock::now() < deadline; ++seq) {
        const QuerySpec& q = queries[order[pos]];
        pos = (pos + 1) % order.size();
        RunChecked(db, q, settings, ExpectFor(q), Clock::now(), plan, seq,
                   &accs[c], &replays[c]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  double elapsed = SecondsSince(start);
  StoreMark after = StoreMark::Of(db);

  QueryAcc q;
  ReplayAcc rp;
  for (size_t c = 0; c < kClients; ++c) {
    q.Merge(accs[c]);
    rp.Merge(replays[c]);
  }
  FoldQueries(q, r);
  NoteQueueWaitRegistry(db, q, r);
  if (q.Recall() < kRecallFloor)
    r->Violation("recall_at_10 " + std::to_string(q.Recall()) +
                 " is below the floor " + std::to_string(kRecallFloor));

  if (!trace) {
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.recall = q.Recall();
    e.ingest_rows_per_s = Median(ingest_rps);
    e.resident_index_mb = ResidentIndexMb(db);
    e.store_written_mb = static_cast<double>(after.written) / kMiB;
    AddEndToEnd(e, Figures(q, elapsed, Slices(seconds, kSliceSeconds), r), r);
    return;
  }
  LayerInputs in;
  BuildCost build;
  build.Add(db, "items", kRows);
  build.Add(db, "items_q", kQuantRows);
  in.build_us_per_row = build.PerRow();
  in.rpc_calls = static_cast<double>(after.rpc_calls - before.rpc_calls);
  in.rpc_bytes = static_cast<double>(after.rpc_bytes - before.rpc_bytes);
  in.placement_max_over_mean = PlacementMaxOverMean(db, "items");
  in.load = w->load;
  in.segments_at_end =
      static_cast<double>(db.engine("items")->NumSegments());
  in.object_get_mb = static_cast<double>(after.read - before.read) / kMiB;
  in.object_put_mb = static_cast<double>(after.written) / kMiB;
  double user = 0;
  for (size_t i = 0; i < kRows; ++i) user += UserBytes(w->items.data, i);
  for (size_t i = 0; i < kQuantRows; ++i) user += UserBytes(w->items_q.data, i);
  in.write_amplification = static_cast<double>(after.written) / user;
  AddPerLayer(q, rp, in, r);
}
}  // namespace hybrid

// ---------------------------------------------------------------------------
// tiered_cache: I/O-bound, memory tier smaller than the working set,
// read VW scaling out and back in
// ---------------------------------------------------------------------------

namespace tiered {
constexpr size_t kRows = 24000;
constexpr size_t kDim = 64;
constexpr size_t kClusters = 32;
constexpr double kSpread = 1.0;
constexpr size_t kSegmentRows = 750;  // 32 segments
/// Per-worker memory tier: about a third of the table's index bytes.
constexpr size_t kMemoryTierBytes = 3ull << 20;
constexpr int kEf = 32;
constexpr size_t kQueries = 64;
/// Queries per phase: one phase on the base VW, one scaled out by two.
constexpr size_t kPhaseQueries = 25;
constexpr size_t kScaleOutWorkers = 2;
constexpr double kSliceSeconds = 4.0;
constexpr double kRecallFloor = 0.90;

struct World {
  std::unique_ptr<core::BlendHouse> db;
  Table items;
  LoadStats load;
};

std::unique_ptr<World> SetUp(uint64_t seed) {
  auto w = std::make_unique<World>();
  Mixture mix(kDim, kClusters, kSpread, SubSeed(seed, 11));
  w->items.name = "items";
  w->items.data = MakeDataset(mix, kRows, SubSeed(seed, 12));
  w->items.live.assign(kRows, 1);

  core::BlendHouseOptions o;  // Remote / LocalDisk / RPC cost models on
  o.read_workers = 2;
  o.worker_threads = 2;
  o.build_threads = 4;
  o.worker.cache.memory_bytes = kMemoryTierBytes;
  o.ingest.flush_threshold_rows = kRows + 1;
  o.ingest.max_segment_rows = kSegmentRows;
  o.settings.ef_search = kEf;
  w->db = std::make_unique<core::BlendHouse>(o);
  common::Status st =
      w->db->CreateTable(MakeSchema("items", kDim, Spec("HNSW", {})));
  if (!st.ok()) std::fprintf(stderr, "set-up: %s\n", st.ToString().c_str());
  w->load = LoadRows(*w->db, w->items, 0, kRows, kSegmentRows);
  return w;
}

void Run(uint64_t seed, double seconds, bool trace, Report* r) {
  std::vector<double> setup_s, ingest_rps;
  std::unique_ptr<World> w = SetUpRepeatedly(SetUp, seed, &setup_s,
                                             &ingest_rps, r);
  core::BlendHouse& db = *w->db;
  Mixture mix(kDim, kClusters, kSpread, SubSeed(seed, 11));
  std::mt19937_64 rng(SubSeed(seed, 13));
  std::vector<QuerySpec> queries;
  for (size_t i = 0; i < kQueries; ++i)
    queries.push_back(MakeQuery(w->items, mix, rng, Predicate{}));
  ComputeTruth(&queries);
  sql::QuerySettings settings = db.options().settings;
  PinMeasuredPhase(r);

  StoreMark before = StoreMark::Of(db);
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  TracePlan plan;
  plan.enabled = trace;
  plan.from = start + (deadline - start) / 2;
  QueryAcc acc;
  acc.origin = start;
  ReplayAcc replay;
  std::vector<double> placement;
  uint64_t topology_ops = 0, topology_failed = 0;
  uint64_t seq = 0;
  auto phase = [&] {
    for (size_t i = 0; i < kPhaseQueries; ++i, ++seq) {
      const QuerySpec& q = queries[seq % queries.size()];
      RunChecked(db, q, settings, ExpectFor(q), Clock::now(), plan, seq, &acc,
                 &replay);
    }
  };
  // Whole rounds: base phase, scale out by two, scaled phase, scale in.
  while (Clock::now() < deadline) {
    phase();
    std::vector<std::string> added;
    for (size_t i = 0; i < kScaleOutWorkers; ++i) {
      ++topology_ops;
      cluster::Worker* worker = db.AddReadWorker();
      if (worker == nullptr) {
        ++topology_failed;
        continue;
      }
      added.push_back(worker->id());
    }
    std::string detail;
    placement.push_back(PlacementMaxOverMean(db, "items", &detail));
    if (placement.size() == 1)
      r->Note("segments per worker after the first scale-out:" + detail);
    phase();
    for (const std::string& id : added) {
      ++topology_ops;
      if (!db.RemoveReadWorker(id).ok()) ++topology_failed;
    }
  }
  double elapsed = SecondsSince(start);
  StoreMark after = StoreMark::Of(db);
  r->attempted += topology_ops;
  r->failed += topology_failed;
  FoldQueries(acc, r);
  NoteQueueWaitRegistry(db, acc, r);
  if (acc.Recall() < kRecallFloor)
    r->Violation("recall_at_10 " + std::to_string(acc.Recall()) +
                 " is below the floor " + std::to_string(kRecallFloor));

  if (!trace) {
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.recall = acc.Recall();
    e.ingest_rows_per_s = Median(ingest_rps);
    e.resident_index_mb = ResidentIndexMb(db);
    e.store_written_mb = static_cast<double>(after.written) / kMiB;
    AddEndToEnd(e, Figures(acc, elapsed, Slices(seconds, kSliceSeconds), r),
                r);
    return;
  }
  LayerInputs in;
  BuildCost build;
  build.Add(db, "items", kRows);
  in.build_us_per_row = build.PerRow();
  in.rpc_calls = static_cast<double>(after.rpc_calls - before.rpc_calls);
  in.rpc_bytes = static_cast<double>(after.rpc_bytes - before.rpc_bytes);
  in.placement_max_over_mean = Median(placement);
  in.load = w->load;
  in.segments_at_end = static_cast<double>(db.engine("items")->NumSegments());
  in.object_get_mb = static_cast<double>(after.read - before.read) / kMiB;
  in.object_put_mb = static_cast<double>(after.written) / kMiB;
  double user = 0;
  for (size_t i = 0; i < kRows; ++i) user += UserBytes(w->items.data, i);
  in.write_amplification = static_cast<double>(after.written) / user;
  AddPerLayer(acc, replay, in, r);
}
}  // namespace tiered

// ---------------------------------------------------------------------------
// ingest_and_query: a writer streaming, deleting and compacting beside an
// open-loop reader
// ---------------------------------------------------------------------------

namespace ingest {
constexpr size_t kBaseRows = 1000;
constexpr size_t kStreamRows = 2000;
constexpr size_t kRows = kBaseRows + kStreamRows;
constexpr size_t kDim = 64;
constexpr size_t kClusters = 32;
constexpr double kSpread = 1.0;
constexpr size_t kBatch = 500;
constexpr size_t kFlushRows = 1000;
constexpr size_t kDeleteRows = 300;
constexpr int kEf = 32;
constexpr double kReadQps = 600.0;
constexpr size_t kSenders = 2;
constexpr size_t kReaderQueries = 64;
constexpr size_t kProbes = 8;
/// Each slice spans several write rounds, so its tail still holds their
/// stalls, and holds enough queries for a p99 with ten beyond it.
constexpr double kSliceSeconds = 2.0;
constexpr double kRecallFloor = 0.90;

/// One round's table. The reader checks against it while the writer fills
/// it; the writer publishes how far it got through atomics only.
struct Round {
  Table table;
  std::vector<QuerySpec> reader;  // kReaderQueries statements on `table`
  std::atomic<size_t> visible_upto{0};
  std::atomic<bool> delete_committed{false};
  int64_t del_lo = 0, del_hi = -1;
};

std::unique_ptr<core::BlendHouse> MakeDb() {
  core::BlendHouseOptions o = core::BlendHouseOptions::Fast();
  // A write VW of two build threads beside the read VW's two workers.
  o.read_workers = 2;
  o.worker_threads = 2;
  o.build_threads = 2;
  o.ingest.flush_threshold_rows = kFlushRows;
  o.ingest.max_segment_rows = kFlushRows;
  o.ingest.async_flush = true;
  o.preload_after_flush = true;
  o.settings.ef_search = kEf;
  return std::make_unique<core::BlendHouse>(o);
}

std::shared_ptr<Round> MakeRound(const Mixture& mix, uint64_t seed, size_t r,
                                 const std::vector<std::vector<float>>& qv) {
  auto round = std::make_shared<Round>();
  round->table.name = "stream_" + std::to_string(r);
  round->table.data = MakeDataset(mix, kRows, SubSeed(seed, 100 + r));
  round->table.live.assign(kRows, 1);
  std::mt19937_64 rng(SubSeed(seed, 200 + r));
  std::uniform_int_distribution<int64_t> lo(0, kRows - kDeleteRows);
  round->del_lo = lo(rng);
  round->del_hi = round->del_lo + static_cast<int64_t>(kDeleteRows) - 1;
  for (const std::vector<float>& v : qv) {
    QuerySpec q;
    q.table = &round->table;
    q.vec = v;
    q.sql = AnnSql(round->table.name, q.pred, &q.vec);
    round->reader.push_back(std::move(q));
  }
  return round;
}

/// Creates the round's table and loads its base rows.
LoadStats LoadBase(core::BlendHouse& db, Round* round) {
  common::Status st = db.CreateTable(MakeSchema(
      round->table.name, kDim,
      Spec("HNSW", {{"M", "16"}, {"EF_CONSTRUCTION", "64"}})));
  if (!st.ok()) std::fprintf(stderr, "create: %s\n", st.ToString().c_str());
  round->visible_upto.store(kBaseRows);
  LoadStats ls = LoadRows(db, round->table, 0, kBaseRows, kBatch);
  ++ls.ops;
  if (!st.ok()) ++ls.failed;
  return ls;
}

double TableIndexMb(core::BlendHouse& db, const std::string& table) {
  storage::LsmEngine* engine = db.engine(table);
  double bytes = 0;
  for (const storage::SegmentMeta& m : engine->Snapshot().segments) {
    std::string key = storage::SegmentKeys::Index(table, m.segment_id);
    for (cluster::Worker* w : db.read_vw().workers())
      if (auto idx = w->index_cache().PeekMemory(key))
        bytes += static_cast<double>(idx->MemoryUsage());
  }
  return bytes / kMiB;
}

void Run(uint64_t seed, double seconds, bool trace, Report* r) {
  Mixture mix(kDim, kClusters, kSpread, SubSeed(seed, 21));
  std::vector<std::vector<float>> reader_vecs(kReaderQueries,
                                              std::vector<float>(kDim));
  {
    std::mt19937_64 rng(SubSeed(seed, 22));
    for (auto& v : reader_vecs) mix.Sample(rng, v.data());
  }

  // Set-up: a fresh instance holding round 0's base rows.
  std::vector<double> setup_s;
  std::unique_ptr<core::BlendHouse> db;
  std::shared_ptr<Round> current;
  for (int i = 0; i < kSetups; ++i) {
    current.reset();
    db.reset();
    auto t0 = Clock::now();
    db = MakeDb();
    current = MakeRound(mix, seed, 0, reader_vecs);
    LoadStats ls = LoadBase(*db, current.get());
    setup_s.push_back(SecondsSince(t0));
    r->attempted += ls.ops;
    r->failed += ls.failed;
  }
  std::vector<std::pair<std::string, double>> tables_built = {
      {current->table.name, static_cast<double>(kBaseRows)}};

  std::mutex current_mu;
  auto get_current = [&] {
    std::lock_guard<std::mutex> lock(current_mu);
    return current;
  };
  sql::QuerySettings settings = db->options().settings;

  StoreMark before = StoreMark::Of(*db);
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  TracePlan plan;
  plan.enabled = trace;
  plan.from = start + (deadline - start) / 2;

  // Reader: open loop at kReadQps. Query slot i is due at start + i/rate;
  // kSenders threads take slots in order, so one slow query does not hold
  // back the next due one unless every sender is busy. Latency counts from
  // the due time.
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> next_slot{0};
  std::vector<QueryAcc> reader_accs(kSenders);
  std::vector<ReplayAcc> replays(kSenders);
  std::vector<std::vector<double>> lags(kSenders);
  std::vector<std::thread> senders;
  for (size_t t = 0; t < kSenders; ++t) {
    reader_accs[t].origin = start;
    senders.emplace_back([&, t] {
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kReadQps));
      QueryAcc& acc = reader_accs[t];
      auto prev_done = start;
      while (!writer_done.load()) {
        uint64_t i = next_slot.fetch_add(1);
        auto due = start + interval * static_cast<int64_t>(i);
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        auto sent = Clock::now();
        // The generator is late only when this sender was free at the due
        // time; a slot waiting for a busy sender is queueing, which the
        // latency counts.
        if (prev_done <= due)
          lags[t].push_back(
              std::chrono::duration<double, std::milli>(sent - due).count());
        std::shared_ptr<Round> round = get_current();
        const bool deleted = round->delete_committed.load();
        const QuerySpec& q = round->reader[i % kReaderQueries];
        Expectation e;
        e.data = &round->table.data;
        e.query = q.vec.data();
        e.pred = &q.pred;
        std::vector<std::pair<int64_t, double>> rows;
        if (RunChecked(*db, q, settings, e, due, plan, i, &acc, &replays[t],
                       &rows)) {
          // Read after the query: a row it saw was flushed, so its batch
          // was announced before the query ended.
          const size_t upto = round->visible_upto.load();
          for (const auto& [id, d] : rows)
            if (id < 0 || static_cast<size_t>(id) >= upto)
              acc.Violation("id " + std::to_string(id) +
                            " returned before it was inserted");
          if (rows.size() != kTopK)
            acc.Violation("reader got " + std::to_string(rows.size()) +
                          " rows from a table holding more than " +
                          std::to_string(kBaseRows));
          if (deleted)
            for (const auto& [id, d] : rows)
              if (id >= round->del_lo && id <= round->del_hi)
                acc.Violation("deleted id " + std::to_string(id) +
                              " returned after DELETE committed");
        }
        prev_done = Clock::now();
      }
    });
  }

  // Writer: whole rounds of stream, flush, delete, compact, verify.
  QueryAcc probe_acc;
  ReplayAcc probe_replay;  // probes are never replayed
  LoadStats load;
  std::vector<double> ingest_rps, written_mb, resident_mb, compact_ms;
  double segments_at_end = 0;
  double rows_rebuilt = 0, user_bytes = 0, round_written = 0;
  uint64_t writer_ops = 0, writer_failed = 0;
  auto op = [&](const common::Status& st, const char* what) {
    ++writer_ops;
    if (!st.ok()) {
      ++writer_failed;
      std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    }
  };
  for (size_t round_no = 0; Clock::now() < deadline; ++round_no) {
    if (round_no > 0) {
      auto next = MakeRound(mix, seed, round_no, reader_vecs);
      LoadStats base = LoadBase(*db, next.get());
      writer_ops += base.ops;
      writer_failed += base.failed;
      tables_built.emplace_back(next->table.name,
                                static_cast<double>(kBaseRows));
      std::lock_guard<std::mutex> lock(current_mu);
      current = next;
    }
    Round& rd = *current;
    const std::string& name = rd.table.name;
    uint64_t written0 = db->object_store().stats().bytes_written.load();
    LoadStats ls = LoadRows(*db, rd.table, kBaseRows, kRows, kBatch,
                            [&](size_t upto) { rd.visible_upto.store(upto); });
    ingest_rps.push_back(static_cast<double>(ls.rows) / ls.seconds);
    load.Merge(ls);
    writer_ops += ls.ops;
    writer_failed += ls.failed;
    tables_built.back().second += static_cast<double>(kStreamRows);
    for (size_t i = kBaseRows; i < kRows; ++i)
      user_bytes += UserBytes(rd.table.data, i);

    auto del = db->ExecuteSql("DELETE FROM " + name + " WHERE id BETWEEN " +
                              std::to_string(rd.del_lo) + " AND " +
                              std::to_string(rd.del_hi) + ";");
    op(del.ok() ? common::Status::Ok() : del.status(), "delete");
    rd.delete_committed.store(true);
    for (int64_t id = rd.del_lo; id <= rd.del_hi; ++id)
      rd.table.live[static_cast<size_t>(id)] = 0;

    auto tc = Clock::now();
    auto compacted = db->Compact(name);
    compact_ms.push_back(MicrosSince(tc) / 1000.0);
    op(compacted.ok() ? common::Status::Ok() : compacted.status(), "compact");
    storage::TableSnapshot snap = db->engine(name)->Snapshot();
    for (const storage::SegmentMeta& m : snap.segments)
      if (m.level > 0) rows_rebuilt += static_cast<double>(m.num_rows);
    double written = static_cast<double>(
        db->object_store().stats().bytes_written.load() - written0);
    written_mb.push_back(written / kMiB);
    round_written += written;
    resident_mb.push_back(TableIndexMb(*db, name));
    segments_at_end = static_cast<double>(snap.segments.size());

    // The full scan returns exactly inserted minus deleted.
    auto scan = db->Query("SELECT id FROM " + name + ";");
    ++writer_ops;
    if (!scan.ok()) {
      ++writer_failed;
    } else {
      std::set<int64_t> got;
      for (const storage::Row& row : scan->rows)
        if (const int64_t* id = std::get_if<int64_t>(&row.values[0]))
          got.insert(*id);
      size_t expected = kRows - kDeleteRows;
      bool match = got.size() == expected && scan->rows.size() == expected;
      for (int64_t id : got)
        if (id < 0 || static_cast<size_t>(id) >= kRows ||
            !rd.table.live[static_cast<size_t>(id)])
          match = false;
      if (!match)
        probe_acc.Violation("full scan of " + name + " returned " +
                            std::to_string(scan->rows.size()) +
                            " rows; inserted minus deleted is " +
                            std::to_string(expected));
    }

    // Quiescent probes: recall after deletes and compaction.
    std::mt19937_64 rng(SubSeed(seed, 300 + round_no));
    std::vector<QuerySpec> probes;
    for (size_t i = 0; i < kProbes; ++i)
      probes.push_back(MakeQuery(rd.table, mix, rng, Predicate{}));
    ComputeTruth(&probes, 1);
    for (size_t i = 0; i < probes.size(); ++i)
      RunChecked(*db, probes[i], settings, ExpectFor(probes[i]), Clock::now(),
                 TracePlan{}, i, &probe_acc, &probe_replay);
  }
  writer_done.store(true);
  for (std::thread& t : senders) t.join();
  QueryAcc reader_acc;
  ReplayAcc replay;
  std::vector<double> lag_ms;
  for (size_t t = 0; t < kSenders; ++t) {
    reader_acc.Merge(reader_accs[t]);
    replay.Merge(replays[t]);
    lag_ms.insert(lag_ms.end(), lags[t].begin(), lags[t].end());
  }
  double elapsed = SecondsSince(start);
  StoreMark after = StoreMark::Of(*db);

  r->attempted += writer_ops;
  r->failed += writer_failed;
  FoldQueries(reader_acc, r);
  FoldQueries(probe_acc, r);
  NoteQueueWaitRegistry(*db, reader_acc, r);
  if (probe_acc.Recall() < kRecallFloor)
    r->Violation("recall_at_10 " + std::to_string(probe_acc.Recall()) +
                 " is below the floor " + std::to_string(kRecallFloor));

  if (!trace) {
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.recall = probe_acc.Recall();
    e.ingest_rows_per_s = Median(ingest_rps);
    e.resident_index_mb = Median(resident_mb);
    e.store_written_mb = Median(written_mb);
    AddEndToEnd(e,
                Figures(reader_acc, elapsed, Slices(seconds, kSliceSeconds), r),
                r);
    return;
  }
  LayerInputs in;
  BuildCost build;
  for (const auto& [table, rows] : tables_built) build.Add(*db, table, rows);
  build.rows += rows_rebuilt;
  in.build_us_per_row = build.PerRow();
  in.rpc_calls = static_cast<double>(after.rpc_calls - before.rpc_calls);
  in.rpc_bytes = static_cast<double>(after.rpc_bytes - before.rpc_bytes);
  in.placement_max_over_mean = PlacementMaxOverMean(*db, current->table.name);
  in.load = load;
  in.segments_at_end = segments_at_end;
  in.compact_ms = Median(compact_ms);
  in.object_get_mb = static_cast<double>(after.read - before.read) / kMiB;
  in.object_put_mb = static_cast<double>(after.written - before.written) / kMiB;
  in.write_amplification = user_bytes > 0 ? round_written / user_bytes : 0;
  std::sort(lag_ms.begin(), lag_ms.end());
  in.generator_lag_ms = Percentile(lag_ms, TailLevel(lag_ms.size()));
  AddPerLayer(reader_acc, replay, in, r);
}
}  // namespace ingest

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload hybrid_search|tiered_cache|"
                 "ingest_and_query [--seed N] [--seconds S] [--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  blendhouse::common::SetLogLevel(blendhouse::common::LogLevel::kError);
  std::printf("host: cores=%u isa=%s workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(),
              blendhouse::vecindex::kernels::SimdTierName(
                  blendhouse::vecindex::kernels::ActiveTier())
                  .c_str(),
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  Report report;
  if (args.workload == "hybrid_search") {
    hybrid::Run(args.seed, args.seconds, args.trace, &report);
  } else if (args.workload == "tiered_cache") {
    tiered::Run(args.seed, args.seconds, args.trace, &report);
  } else if (args.workload == "ingest_and_query") {
    ingest::Run(args.seed, args.seconds, args.trace, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  report.Print();
  return report.correct ? 0 : 1;
}
