#pragma once

// Benchmark-side ground truth: the seeded dataset, an exact top-k oracle in
// plain double precision, and the checker every query result goes through.
// Nothing here calls the program's distance kernels or predicate evaluator,
// so a wrong SIMD kernel, a wrong filter or a wrong merge in the program
// shows up as a failed check instead of agreeing with itself.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace perfbench {

constexpr size_t kTopK = 10;
/// `attr` is uniform over [0, kAttrMax).
constexpr int64_t kAttrMax = 1000000;

/// Caption vocabulary. No word is a substring of another, so
/// `caption LIKE '%w%'` matches exactly the captions that contain word w.
inline const char* const kWords[] = {
    "amber",  "birch",  "cobalt", "delta",   "ember",   "fjord",
    "granite", "harbor", "indigo", "juniper", "kestrel", "lagoon",
    "meadow", "nectar", "orchid", "prairie"};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);
constexpr size_t kWordsPerCaption = 3;

/// Gaussian mixture: `clusters` centres drawn from N(0, 1) per dimension,
/// each row a centre plus N(0, spread^2) noise. A spread well above 1 makes
/// the clusters overlap, which is what keeps recall at a fixed ef below 1.
struct Mixture {
  size_t dim = 0;
  double spread = 1.0;
  std::vector<float> centers;  // clusters * dim

  Mixture(size_t dim, size_t clusters, double spread, uint64_t seed)
      : dim(dim), spread(spread), centers(clusters * dim) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> n01(0.0f, 1.0f);
    for (float& c : centers) c = n01(rng);
  }

  void Sample(std::mt19937_64& rng, float* out) const {
    size_t clusters = centers.size() / dim;
    std::uniform_int_distribution<size_t> pick(0, clusters - 1);
    std::normal_distribution<float> noise(0.0f, static_cast<float>(spread));
    const float* c = centers.data() + pick(rng) * dim;
    for (size_t d = 0; d < dim; ++d) out[d] = c[d] + noise(rng);
  }
};

/// The rows of one table as the benchmark knows them. Row i has id i.
struct Dataset {
  size_t dim = 0;
  std::vector<float> vectors;  // size() * dim
  std::vector<int64_t> attr;
  std::vector<std::string> captions;

  size_t size() const { return attr.size(); }
  const float* vec(size_t i) const { return vectors.data() + i * dim; }
};

inline Dataset MakeDataset(const Mixture& mix, size_t rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> attr(0, kAttrMax - 1);
  std::uniform_int_distribution<size_t> word(0, kNumWords - 1);
  Dataset d;
  d.dim = mix.dim;
  d.vectors.resize(rows * mix.dim);
  d.attr.resize(rows);
  d.captions.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    mix.Sample(rng, d.vectors.data() + i * mix.dim);
    d.attr[i] = attr(rng);
    std::string caption;
    for (size_t w = 0; w < kWordsPerCaption; ++w) {
      if (w > 0) caption += ' ';
      caption += kWords[word(rng)];
    }
    d.captions[i] = std::move(caption);
  }
  return d;
}

/// A query's WHERE clause, evaluated on the benchmark's own copy of the
/// columns.
struct Predicate {
  enum class Kind { kNone, kRange, kContains } kind = Kind::kNone;
  int64_t lo = 0, hi = 0;  // kRange: attr BETWEEN lo AND hi
  std::string word;        // kContains: caption LIKE '%word%'

  bool Match(const Dataset& d, size_t row) const {
    switch (kind) {
      case Kind::kNone:
        return true;
      case Kind::kRange:
        return d.attr[row] >= lo && d.attr[row] <= hi;
      case Kind::kContains:
        return d.captions[row].find(word) != std::string::npos;
    }
    return false;
  }

  std::string Sql() const {
    switch (kind) {
      case Kind::kNone:
        return "";
      case Kind::kRange:
        return " WHERE attr BETWEEN " + std::to_string(lo) + " AND " +
               std::to_string(hi);
      case Kind::kContains:
        return " WHERE caption LIKE '%" + word + "%'";
    }
    return "";
  }
};

inline double ExactL2(const float* a, const float* b, size_t dim) {
  double s = 0;
  for (size_t i = 0; i < dim; ++i) {
    double diff = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += diff * diff;
  }
  return s;
}

struct Hit {
  double dist;
  int64_t id;
};

/// Exact top-k by squared L2 over the rows that are `live` (null: all rows)
/// and match `pred`. Ties break by id. `qualifying` receives the number of
/// rows that pass.
inline std::vector<Hit> ExactTopK(const Dataset& d, const float* q,
                                  const Predicate& pred,
                                  const std::vector<char>* live, size_t k,
                                  size_t* qualifying) {
  auto worse = [](const Hit& a, const Hit& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
  };
  std::vector<Hit> heap;  // max-heap under `worse`
  size_t pass = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (live != nullptr && !(*live)[i]) continue;
    if (!pred.Match(d, i)) continue;
    ++pass;
    Hit h{ExactL2(q, d.vec(i), d.dim), static_cast<int64_t>(i)};
    if (heap.size() < k) {
      heap.push_back(h);
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (worse(h, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = h;
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), worse);
  if (qualifying != nullptr) *qualifying = pass;
  return heap;
}

/// Float tolerance between a distance the program returns (fp32 arithmetic)
/// and the oracle's double recomputation.
inline bool DistanceClose(double got, double exact) {
  return std::fabs(got - exact) <= 1e-4 * std::max(1.0, exact) + 1e-3;
}

/// What the checker needs to know about one query.
struct Expectation {
  const Dataset* data = nullptr;
  const float* query = nullptr;
  const Predicate* pred = nullptr;
  /// Rows the table holds right now (null: every row of `data`).
  const std::vector<char>* live = nullptr;
  /// Exact top-k with the qualifying count; null when the visible row set
  /// is not known exactly (reads racing a writer).
  const std::vector<Hit>* truth = nullptr;
  size_t qualifying = 0;
  /// The plan was an exact scan: results must equal the oracle's top-k.
  bool exact_plan = false;
};

struct Verdict {
  std::string error;  // empty when every check passed
  bool has_recall = false;
  double recall = 0;
};

/// Checks one result (id, distance) list:
///  - every id exists, is live and satisfies the predicate;
///  - distances are non-decreasing and ids are unique;
///  - each distance matches the oracle's recomputation;
///  - LIMIT rows come back whenever enough rows qualify;
///  - an exact plan returns the oracle's top-k up to distance ties;
/// and measures recall@k against the oracle, counting a returned row whose
/// exact distance ties the k-th true distance as a hit.
inline Verdict CheckResult(const std::vector<std::pair<int64_t, double>>& rows,
                           const Expectation& e) {
  Verdict v;
  auto fail = [&](const std::string& what) {
    if (v.error.empty()) v.error = what;
  };
  std::unordered_set<int64_t> seen;
  double prev = -1e300;
  for (const auto& [id, dist] : rows) {
    if (id < 0 || static_cast<size_t>(id) >= e.data->size()) {
      fail("id " + std::to_string(id) + " is not a row of the table");
      continue;
    }
    size_t row = static_cast<size_t>(id);
    if (e.live != nullptr && !(*e.live)[row])
      fail("id " + std::to_string(id) + " is deleted or not in the table");
    if (!e.pred->Match(*e.data, row))
      fail("id " + std::to_string(id) + " does not satisfy" + e.pred->Sql());
    if (!seen.insert(id).second) fail("duplicate id " + std::to_string(id));
    if (dist < prev) fail("distances out of order");
    prev = dist;
    double exact = ExactL2(e.query, e.data->vec(row), e.data->dim);
    if (!DistanceClose(dist, exact)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "id %lld distance %.6g, exact %.6g",
                    static_cast<long long>(id), dist, exact);
      fail(buf);
    }
  }
  if (e.truth == nullptr) return v;

  size_t want = std::min(kTopK, e.qualifying);
  if (rows.size() != want)
    fail("returned " + std::to_string(rows.size()) + " rows, " +
         std::to_string(want) + " qualify");
  if (e.exact_plan) {
    for (size_t i = 0; i < std::min(rows.size(), e.truth->size()); ++i)
      if (!DistanceClose(rows[i].second, (*e.truth)[i].dist))
        fail("exact plan differs from the oracle at rank " +
             std::to_string(i));
  }
  if (!e.truth->empty()) {
    double kth = e.truth->back().dist;
    size_t hits = 0;
    for (const auto& [id, dist] : rows) {
      if (id < 0 || static_cast<size_t>(id) >= e.data->size()) continue;
      double exact = ExactL2(e.query, e.data->vec(static_cast<size_t>(id)),
                             e.data->dim);
      if (exact <= kth * (1 + 1e-9) + 1e-9) ++hits;
    }
    v.has_recall = true;
    v.recall = static_cast<double>(std::min(hits, e.truth->size())) /
               static_cast<double>(e.truth->size());
  }
  return v;
}

/// Nearest-rank percentile of an ascending-sorted sample, p in [0, 1].
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(p * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The tail percentile a sample supports: 0.99, or lower when fewer than
/// ten samples would lie beyond the 99th percentile.
inline double TailLevel(size_t n) {
  if (n < 40) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
