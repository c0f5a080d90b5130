// Fig. 12: read-QPS interference between vector search and index-building
// write workloads. The mixed configuration runs index builds on the read
// VW's worker pools (head-of-line blocking behind queries); the isolated
// configuration (BlendHouse's architecture) gives builds a dedicated VW.
//
// Expected shape (paper): read QPS in the mixed VW drops as write
// concurrency rises; the isolated configuration stays (nearly) flat.
// Writers are rate-limited so the comparison measures queue interference,
// not raw host-CPU saturation.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/blendhouse_system.h"
#include "bench/bench_util.h"
#include "tests/test_util.h"

namespace blendhouse {
namespace {

struct RunResult {
  double qps = -1;
  bench::LedgerTotals stats;
};

RunResult ReadQpsUnderWrites(bool separate_write_vw, size_t write_threads,
                             const baselines::BenchDataset& data) {
  baselines::BlendHouseSystemOptions opts = bench::DefaultBhOptions();
  opts.db.separate_write_vw = separate_write_vw;
  opts.db.remote_cost = storage::StorageCostModel::Instant();
  opts.db.rpc_cost.simulate_latency = false;
  opts.db.worker.cache.disk_cost = storage::StorageCostModel::Instant();
  opts.db.ingest.flush_threshold_rows = 256;
  opts.db.ingest.max_segment_rows = 256;
  // Cheap builds so each write batch is a short burst, not a CPU hog.
  opts.index_params["M"] = "8";
  opts.index_params["EF_CONSTRUCTION"] = "40";
  baselines::BlendHouseSystem system(opts);
  if (!system.Load(data).ok()) return {};
  system.db().query_log().Clear();  // drop any warm-up queries

  // Rate-limited background writers: each submits one 256-row batch then
  // sleeps, so total write CPU stays well below one core and the measured
  // difference is queue interference inside the read VW.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < write_threads; ++w) {
    writers.emplace_back([&, w] {
      common::Rng rng(100 + w);
      size_t dim = data.dim;
      int64_t next_id = 1000000 + static_cast<int64_t>(w) * 1000000;
      while (!stop.load()) {
        std::vector<storage::Row> rows;
        for (size_t i = 0; i < 256; ++i) {
          std::vector<float> vec(dim);
          for (auto& v : vec) v = rng.Gaussian();
          storage::Row row;
          row.values = {next_id++, rng.UniformInt(0, 999999), int64_t{0},
                        0.5, std::string("w"), std::move(vec)};
          rows.push_back(std::move(row));
        }
        (void)system.db().Insert("bench", std::move(rows));
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
      }
    });
  }

  bench::QpsResult r = bench::SystemQps(system, data, /*k=*/10,
                                        /*ef=*/64, /*queries=*/300,
                                        false, 0, 0, /*threads=*/2);
  stop.store(true);
  for (auto& t : writers) t.join();
  return {r.qps, bench::SumQueryLog(system.db())};
}

void PrintBreakdownRow(const char* label, size_t write_threads,
                       const bench::LedgerTotals& s) {
  double n = s.queries > 0 ? static_cast<double>(s.queries) : 1.0;
  std::printf("%-10s %6zu %12.0f %12.0f %12.0f %12.0f %8zu\n", label,
              write_threads, s.exec_micros / n, s.queue_wait_micros / n,
              s.compute_micros / n, s.sim_io_micros / n, s.retries);
}

}  // namespace
}  // namespace blendhouse

int main() {
  using namespace blendhouse;
  bench::QuietLogs();
  bench::PrintHeader("Fig. 12: isolated vs mixed read/write workload QPS");

  baselines::DatasetSpec spec = bench::Scaled(baselines::CohereSmall());
  spec.n /= 2;  // this bench rebuilds the system 8 times
  baselines::BenchDataset data = baselines::MakeDataset(spec);

  std::vector<std::pair<size_t, std::array<RunResult, 2>>> runs;
  std::printf("%-18s %14s %14s %10s\n", "write threads", "isolated QPS",
              "mixed-VW QPS", "mixed/iso");
  for (size_t w : {0u, 2u, 4u, 8u}) {
    RunResult isolated = ReadQpsUnderWrites(true, w, data);
    RunResult mixed = ReadQpsUnderWrites(false, w, data);
    std::printf("%-18zu %14.0f %14.0f %9.2f%%\n", w, isolated.qps, mixed.qps,
                100.0 * mixed.qps / isolated.qps);
    runs.push_back({w, {isolated, mixed}});
  }

  std::printf("\nQuery-log breakdown (per-query averages, us):\n");
  std::printf("%-10s %6s %12s %12s %12s %12s %8s\n", "config", "writes",
              "exec", "queue wait", "compute", "sim I/O", "retries");
  for (const auto& [w, pair] : runs) {
    PrintBreakdownRow("isolated", w, pair[0].stats);
    PrintBreakdownRow("mixed", w, pair[1].stats);
  }
  std::printf(
      "\nReading: dedicating a VW to index builds keeps read QPS flat as"
      " write\nconcurrency grows; the mixed VW degrades — the isolation"
      " benefit of the\ndisaggregated architecture. The breakdown shows the"
      " degradation is queue\nwait (segment tasks parked behind index-build"
      " work), not compute.\n");
  bench::PrintRegistrySnapshot(
      {"bh_sql_", "bh_threadpool_", "bh_scheduler_", "bh_lsm_"});
  return 0;
}
