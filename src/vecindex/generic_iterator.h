#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "vecindex/index.h"

namespace blendhouse::vecindex {

/// Iterator adapter for index libraries that only expose top-k search.
///
/// The SingleStore-V style wrapper the paper describes: start with an initial
/// k; when more rows are needed, restart the ANN search from scratch with k
/// doubled and emit only ids not yet returned. Repeated runs of the same k
/// return identical results, so no result is lost between rounds — but the
/// repeated from-scratch searches are the redundant work BlendHouse's native
/// HNSW iterator avoids.
class GenericSearchIterator : public SearchIterator {
 public:
  GenericSearchIterator(const VectorIndex* index, const float* query,
                        SearchParams params);

  std::vector<Neighbor> Next(size_t batch_size) override;
  size_t VisitedCount() const override { return stats_.rows_visited; }
  Stats GetStats() const override { return stats_; }

 private:
  const VectorIndex* index_;
  std::vector<float> query_;
  SearchParams params_;
  size_t current_k_;
  size_t cursor_ = 0;        // position in the last result not yet scanned
  /// rows_visited counts neighbors materialized across restart rounds: each
  /// recompute round re-derives its whole result from scratch, so the sum
  /// over rounds measures the redundant work a resumable iterator avoids.
  /// (The index's internal scan cost is not observable through the top-k
  /// API — no beam-size guessing.)
  Stats stats_;
  bool exhausted_ = false;
  std::vector<Neighbor> last_result_;
  // Ids already emitted. Approximate indexes (PQ refine) may reorder result
  // prefixes between runs with different k, so prefix-skipping alone would
  // leak duplicates. Holds external ids, which are not dense node ids.
  std::unordered_set<IdType> returned_;  // lint:allow(node-set)
};

}  // namespace blendhouse::vecindex
