#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "tests/test_util.h"
#include "vecindex/auto_index.h"
#include "vecindex/generic_iterator.h"
#include "vecindex/diskann_index.h"
#include "vecindex/distance.h"
#include "vecindex/flat_index.h"
#include "vecindex/hnsw_index.h"
#include "vecindex/index_factory.h"
#include "vecindex/ivf_index.h"
#include "vecindex/kmeans.h"
#include "vecindex/pq.h"
#include "vecindex/quantizer.h"
#include "vecindex/visited_set.h"

namespace blendhouse::vecindex {
namespace {

using test::BruteForceTopK;
using test::MakeClusteredVectors;
using test::Recall;
using test::SequentialIds;

constexpr size_t kDim = 32;
constexpr size_t kN = 2000;

// ---------------------------------------------------------------------------
// Distance kernels
// ---------------------------------------------------------------------------

TEST(DistanceTest, L2SqrMatchesManual) {
  float a[4] = {1, 2, 3, 4};
  float b[4] = {2, 2, 1, 0};
  EXPECT_FLOAT_EQ(L2Sqr(a, b, 4), 1 + 0 + 4 + 16);
}

TEST(DistanceTest, InnerProduct) {
  float a[3] = {1, 2, 3};
  float b[3] = {4, 5, 6};
  EXPECT_FLOAT_EQ(InnerProduct(a, b, 3), 32.0f);
  // Metric dispatch negates IP so smaller = closer.
  EXPECT_FLOAT_EQ(Distance(Metric::kInnerProduct, a, b, 3), -32.0f);
}

TEST(DistanceTest, CosineOfParallelVectorsIsZero) {
  float a[3] = {1, 2, 3};
  float b[3] = {2, 4, 6};
  EXPECT_NEAR(CosineDistance(a, b, 3), 0.0f, 1e-6f);
}

TEST(DistanceTest, CosineOfOrthogonalIsOne) {
  float a[2] = {1, 0};
  float b[2] = {0, 1};
  EXPECT_NEAR(CosineDistance(a, b, 2), 1.0f, 1e-6f);
}

TEST(DistanceTest, ZeroVectorCosineIsSafe) {
  float a[2] = {0, 0};
  float b[2] = {1, 1};
  EXPECT_FLOAT_EQ(CosineDistance(a, b, 2), 1.0f);
}

// ---------------------------------------------------------------------------
// KMeans
// ---------------------------------------------------------------------------

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  // Three far-apart blobs; k-means must place one centroid near each.
  common::Rng rng(7);
  std::vector<float> data;
  std::vector<float> centers = {0, 0, 10, 10, -10, 10};
  for (size_t i = 0; i < 300; ++i) {
    size_t c = i % 3;
    data.push_back(centers[c * 2] + rng.Gaussian(0, 0.2f));
    data.push_back(centers[c * 2 + 1] + rng.Gaussian(0, 0.2f));
  }
  KMeansOptions opts;
  opts.k = 3;
  auto result = RunKMeans(data.data(), 300, 2, opts);
  ASSERT_TRUE(result.ok());
  // Every true center must be within 1.0 of some learned centroid.
  for (size_t c = 0; c < 3; ++c) {
    float best = 1e30f;
    for (size_t j = 0; j < 3; ++j)
      best = std::min(best, L2Sqr(&centers[c * 2],
                                  result->centroids.data() + j * 2, 2));
    EXPECT_LT(best, 1.0f);
  }
}

TEST(KMeansTest, AssignmentsConsistentWithCentroids) {
  auto data = MakeClusteredVectors(500, 8, 4, 11);
  KMeansOptions opts;
  opts.k = 4;
  auto result = RunKMeans(data.data(), 500, 8, opts);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 500; ++i) {
    size_t nearest =
        NearestCentroid(data.data() + i * 8, result->centroids.data(), 4, 8);
    EXPECT_EQ(nearest, result->assignments[i]);
  }
}

TEST(KMeansTest, KLargerThanNIsClamped) {
  std::vector<float> data = {0, 0, 1, 1};
  KMeansOptions opts;
  opts.k = 10;
  auto result = RunKMeans(data.data(), 2, 2, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids.size(), 2u * 2u);
}

TEST(KMeansTest, EmptyInputRejected) {
  KMeansOptions opts;
  auto result = RunKMeans(nullptr, 0, 8, opts);
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------------------
// Quantizers
// ---------------------------------------------------------------------------

TEST(ScalarQuantizerTest, RoundTripErrorBounded) {
  auto data = MakeClusteredVectors(200, kDim, 4, 3);
  ScalarQuantizer sq;
  ASSERT_TRUE(sq.Train(data.data(), 200, kDim).ok());
  std::vector<uint8_t> code(kDim);
  std::vector<float> decoded(kDim);
  for (size_t i = 0; i < 200; ++i) {
    sq.Encode(data.data() + i * kDim, code.data());
    sq.Decode(code.data(), decoded.data());
    // Max error per dim is half a quantization step of the dim's range.
    float err = L2Sqr(data.data() + i * kDim, decoded.data(), kDim);
    EXPECT_LT(err, 0.01f * kDim);
  }
}

TEST(ScalarQuantizerTest, AsymmetricDistanceMatchesDecode) {
  auto data = MakeClusteredVectors(50, kDim, 2, 5);
  ScalarQuantizer sq;
  ASSERT_TRUE(sq.Train(data.data(), 50, kDim).ok());
  std::vector<uint8_t> code(kDim);
  std::vector<float> decoded(kDim);
  const float* query = data.data();
  sq.Encode(data.data() + 10 * kDim, code.data());
  sq.Decode(code.data(), decoded.data());
  EXPECT_NEAR(sq.L2SqrToCode(query, code.data()),
              L2Sqr(query, decoded.data(), kDim), 1e-3f);
}

TEST(ScalarQuantizerTest, SerializationRoundTrip) {
  auto data = MakeClusteredVectors(100, 16, 4, 9);
  ScalarQuantizer sq;
  ASSERT_TRUE(sq.Train(data.data(), 100, 16).ok());
  std::string buf;
  common::BinaryWriter w(&buf);
  sq.Serialize(&w);
  ScalarQuantizer sq2;
  common::BinaryReader r(buf);
  ASSERT_TRUE(sq2.Deserialize(&r).ok());
  std::vector<uint8_t> c1(16), c2(16);
  sq.Encode(data.data(), c1.data());
  sq2.Encode(data.data(), c2.data());
  EXPECT_EQ(c1, c2);
}

TEST(ScalarQuantizerTest, EncodeClampsAtRangeBoundaries) {
  // Regression: rounding (v - min) / step could land on 256 for values at or
  // past the trained max, wrapping the uint8 code to 0 — the far end of the
  // range. Out-of-range values must saturate at 0 / 255 instead.
  std::vector<float> data(2 * 4);
  for (size_t d = 0; d < 4; ++d) {
    data[d] = 0.0f;      // trained min
    data[4 + d] = 1.0f;  // trained max
  }
  ScalarQuantizer sq;
  ASSERT_TRUE(sq.Train(data.data(), 2, 4).ok());
  std::vector<uint8_t> code(4);
  float above[4] = {2.0f, 1.5f, 1.001f, 100.0f};
  sq.Encode(above, code.data());
  for (size_t d = 0; d < 4; ++d) EXPECT_EQ(code[d], 255) << "dim " << d;
  float below[4] = {-2.0f, -0.5f, -0.001f, -100.0f};
  sq.Encode(below, code.data());
  for (size_t d = 0; d < 4; ++d) EXPECT_EQ(code[d], 0) << "dim " << d;
  // Exactly at the trained max must be the end code, not a wrap.
  sq.Encode(data.data() + 4, code.data());
  for (size_t d = 0; d < 4; ++d) EXPECT_EQ(code[d], 255) << "dim " << d;
}

// ---------------------------------------------------------------------------
// PrecisionStore (reduced-precision first-pass tier, DESIGN.md §13)
// ---------------------------------------------------------------------------

class PrecisionStoreTest : public ::testing::TestWithParam<Precision> {
 protected:
  /// fp16/bf16 codes decode to exact fp32 values, so store distances match
  /// the decoded reference up to accumulation order. int8 batch kernels
  /// quantize the query onto the shared grid (step s = maxabs/127) while
  /// the decoded reference keeps it fp32, so the allowance is the
  /// first-order grid error of each metric's accumulation.
  static float Tol(Precision p, Metric m, float ref, float maxabs,
                   size_t dim) {
    if (p != Precision::kInt8) return 1e-3f * std::max(1.0f, std::fabs(ref));
    float s = maxabs / 127.0f;
    float fdim = static_cast<float>(dim);
    switch (m) {
      case Metric::kL2:  // sum of 2*(q-b)*delta terms, |delta| <= s
        return 2.0f * s * std::sqrt(fdim * std::max(ref, 1.0f)) +
               fdim * s * s;
      case Metric::kInnerProduct:  // sum of |b| * qstep terms
        return s * maxabs * fdim;
      default:  // cosine: normalized, the grid error shrinks with the norms
        return 0.01f;
    }
  }
};

TEST_P(PrecisionStoreTest, DistancesMatchDecodedReference) {
  constexpr size_t kRows = 300;  // straddles the kMaxBatch boundary
  auto data = MakeClusteredVectors(kRows, kDim, 6, 29);
  float maxabs = 0.0f;
  for (float x : data) maxabs = std::max(maxabs, std::fabs(x));
  for (Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    PrecisionStore store;
    store.Configure(GetParam(), kDim, metric);
    store.Train(data.data(), kRows);
    store.Append(data.data(), kRows);
    ASSERT_EQ(store.size(), kRows);
    const float* query = data.data() + 7 * kDim;
    PrecisionStore::QueryCtx ctx;
    store.PrepareQuery(query, &ctx);
    std::vector<float> dist(kRows);
    store.BatchDistance(ctx, 0, PrecisionStore::kMaxBatch, dist.data());
    store.BatchDistance(ctx, PrecisionStore::kMaxBatch,
                        kRows - PrecisionStore::kMaxBatch,
                        dist.data() + PrecisionStore::kMaxBatch);
    std::vector<float> decoded(kDim);
    for (size_t i = 0; i < kRows; ++i) {
      store.Decode(i, decoded.data());
      float ref = Distance(metric, query, decoded.data(), kDim);
      float tol = Tol(GetParam(), metric, ref, maxabs, kDim);
      EXPECT_NEAR(dist[i], ref, tol)
          << PrecisionName(GetParam()) << " metric=" << static_cast<int>(metric)
          << " row=" << i;
      EXPECT_NEAR(store.Distance1(ctx, i), dist[i], tol) << "row " << i;
      EXPECT_NEAR(store.DistanceToRow(query, i), dist[i], tol) << "row " << i;
    }
  }
}

TEST_P(PrecisionStoreTest, GatheredTileMatchesInPlaceScan) {
  constexpr size_t kRows = 120;
  auto data = MakeClusteredVectors(kRows, kDim, 4, 31);
  for (Metric metric : {Metric::kL2, Metric::kCosine}) {
    PrecisionStore store;
    store.Configure(GetParam(), kDim, metric);
    store.Train(data.data(), kRows);
    store.Append(data.data(), kRows);
    PrecisionStore::QueryCtx ctx;
    store.PrepareQuery(data.data(), &ctx);
    // Gather every third row into a dense tile, the filtered-scan shape.
    std::vector<size_t> rows;
    for (size_t i = 0; i < kRows; i += 3) rows.push_back(i);
    const size_t rb = store.row_bytes();
    std::vector<uint8_t> tile(rows.size() * rb);
    std::vector<float> norms(rows.size(), 0.0f);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::memcpy(tile.data() + i * rb, store.RowPtr(rows[i]), rb);
      if (metric == Metric::kCosine) norms[i] = store.norms()[rows[i]];
    }
    std::vector<float> got(rows.size());
    store.BatchDistanceCodes(ctx, tile.data(), norms.data(), rows.size(),
                             got.data());
    std::vector<float> all(kRows);
    store.BatchDistance(ctx, 0, kRows, all.data());
    for (size_t i = 0; i < rows.size(); ++i)
      EXPECT_FLOAT_EQ(got[i], all[rows[i]]) << "tile slot " << i;
  }
}

TEST_P(PrecisionStoreTest, SerializationPreservesDistances) {
  auto data = MakeClusteredVectors(100, kDim, 4, 33);
  PrecisionStore store;
  store.Configure(GetParam(), kDim, Metric::kCosine);
  store.Train(data.data(), 100);
  store.Append(data.data(), 100);
  std::string buf;
  common::BinaryWriter w(&buf);
  store.Serialize(&w);
  PrecisionStore loaded;
  common::BinaryReader r(buf);
  ASSERT_TRUE(loaded.Deserialize(&r).ok());
  EXPECT_EQ(loaded.precision(), store.precision());
  EXPECT_EQ(loaded.dim(), store.dim());
  EXPECT_EQ(loaded.size(), store.size());
  PrecisionStore::QueryCtx c1, c2;
  store.PrepareQuery(data.data(), &c1);
  loaded.PrepareQuery(data.data(), &c2);
  std::vector<float> d1(100), d2(100);
  store.BatchDistance(c1, 0, 100, d1.data());
  loaded.BatchDistance(c2, 0, 100, d2.data());
  // Identical codes + scale + norms: distances must be bitwise equal.
  EXPECT_EQ(0, std::memcmp(d1.data(), d2.data(), d1.size() * sizeof(float)));
}

TEST_P(PrecisionStoreTest, MemoryStaysBelowFp32Footprint) {
  constexpr size_t kRows = 512;
  auto data = MakeClusteredVectors(kRows, kDim, 4, 35);
  PrecisionStore store;
  store.Configure(GetParam(), kDim, Metric::kL2);
  store.Train(data.data(), kRows);
  store.Append(data.data(), kRows);
  size_t fp32_bytes = kRows * kDim * sizeof(float);
  double limit = GetParam() == Precision::kInt8 ? 0.3 : 0.55;
  EXPECT_LE(store.MemoryBytes(), static_cast<size_t>(limit * fp32_bytes));
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, PrecisionStoreTest,
                         ::testing::Values(Precision::kFp16, Precision::kBf16,
                                           Precision::kInt8),
                         [](const auto& info) {
                           return PrecisionName(info.param);
                         });

TEST(ProductQuantizerTest, AdcApproximatesTrueDistance) {
  auto data = MakeClusteredVectors(1000, kDim, 8, 13);
  ProductQuantizer pq;
  ASSERT_TRUE(pq.Train(data.data(), 1000, kDim, 8, 8).ok());
  std::vector<uint8_t> code(pq.code_size());
  std::vector<float> table(pq.m() * pq.ks());
  const float* query = data.data();
  pq.BuildAdcTable(query, table.data());

  // ADC distance should correlate strongly with true distance: check that
  // the ADC-nearest of two far-apart points is the truly nearer one.
  double rank_agree = 0, trials = 0;
  for (size_t i = 100; i < 200; ++i) {
    for (size_t j = 500; j < 520; ++j) {
      float true_i = L2Sqr(query, data.data() + i * kDim, kDim);
      float true_j = L2Sqr(query, data.data() + j * kDim, kDim);
      if (std::abs(true_i - true_j) < 1.0f) continue;  // too close to call
      pq.Encode(data.data() + i * kDim, code.data());
      float adc_i = pq.AdcDistance(table.data(), code.data());
      pq.Encode(data.data() + j * kDim, code.data());
      float adc_j = pq.AdcDistance(table.data(), code.data());
      rank_agree += ((adc_i < adc_j) == (true_i < true_j)) ? 1 : 0;
      trials += 1;
    }
  }
  ASSERT_GT(trials, 100);
  EXPECT_GT(rank_agree / trials, 0.9);
}

TEST(ProductQuantizerTest, DimNotDivisibleRejected) {
  ProductQuantizer pq;
  std::vector<float> data(10 * 30);
  EXPECT_FALSE(pq.Train(data.data(), 10, 30, 8, 8).ok());
}

TEST(ProductQuantizerTest, FourBitCodebookSize) {
  auto data = MakeClusteredVectors(500, kDim, 4, 17);
  ProductQuantizer pq;
  ASSERT_TRUE(pq.Train(data.data(), 500, kDim, 8, 4).ok());
  EXPECT_EQ(pq.ks(), 16u);
}

// ---------------------------------------------------------------------------
// Index correctness, shared across all index types (TEST_P sweep)
// ---------------------------------------------------------------------------

VectorIndexPtr MakeIndex(const std::string& type, size_t dim) {
  IndexSpec spec;
  // "TYPE:precision" selects reduced-precision storage (DESIGN.md §13),
  // e.g. "FLAT:int8" — exercises the same factory path as the PRECISION
  // index param in SQL.
  std::string name = type;
  if (auto colon = name.find(':'); colon != std::string::npos) {
    spec.params["PRECISION"] = name.substr(colon + 1);
    name.resize(colon);
  }
  spec.type = name;
  spec.dim = dim;
  spec.params["NLIST"] = "16";
  spec.params["PQ_M"] = "8";
  spec.params["SIMULATE_DISK"] = "0";  // unit tests skip SSD sleeps
  auto created = IndexFactory::Global().Create(spec);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(*created);
}

class IndexParamTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    data_ = MakeClusteredVectors(kN, kDim, 10, 21);
    ids_ = SequentialIds(kN);
    index_ = MakeIndex(GetParam(), kDim);
    ASSERT_NE(index_, nullptr);
    if (index_->NeedsTraining()) {
      ASSERT_TRUE(index_->Train(data_.data(), kN).ok());
    }
    ASSERT_TRUE(index_->AddWithIds(data_.data(), ids_.data(), kN).ok());
  }

  SearchParams DefaultParams() const {
    SearchParams p;
    p.k = 10;
    p.ef_search = 128;
    p.nprobe = 8;
    return p;
  }

  std::vector<float> data_;
  std::vector<IdType> ids_;
  VectorIndexPtr index_;
};

TEST_P(IndexParamTest, SizeAndDim) {
  EXPECT_EQ(index_->Size(), kN);
  EXPECT_EQ(index_->Dim(), kDim);
  EXPECT_GT(index_->MemoryUsage(), 0u);
}

TEST_P(IndexParamTest, TopKRecallAboveThreshold) {
  double total_recall = 0;
  const int kQueries = 20;
  for (int q = 0; q < kQueries; ++q) {
    const float* query = data_.data() + (q * 97 % kN) * kDim;
    auto truth = BruteForceTopK(data_, kDim, query, 10);
    auto found = index_->SearchWithFilter(query, DefaultParams());
    ASSERT_TRUE(found.ok());
    total_recall += Recall(*found, truth);
  }
  // Quantized indexes trade recall; all should stay well above chance.
  double threshold = GetParam() == "IVFPQFS" ? 0.6 : 0.8;
  EXPECT_GT(total_recall / kQueries, threshold) << GetParam();
}

TEST_P(IndexParamTest, ResultsSortedByDistance) {
  auto found = index_->SearchWithFilter(data_.data(), DefaultParams());
  ASSERT_TRUE(found.ok());
  for (size_t i = 1; i < found->size(); ++i)
    EXPECT_LE((*found)[i - 1].distance, (*found)[i].distance);
}

TEST_P(IndexParamTest, SelfQueryFindsSelf) {
  if (GetParam() == "IVFPQFS" || GetParam() == "IVFPQ") return;  // approx codes
  // DISKANN re-ranks expanded nodes exactly, so self-query works too.
  const float* query = data_.data() + 123 * kDim;
  auto found = index_->SearchWithFilter(query, DefaultParams());
  ASSERT_TRUE(found.ok());
  ASSERT_FALSE(found->empty());
  EXPECT_EQ(found->front().id, 123);
}

TEST_P(IndexParamTest, FilterIsRespected) {
  common::Bitset allowed(kN);
  for (size_t i = 0; i < kN; i += 7) allowed.Set(i);  // ~14% selectivity
  SearchParams p = DefaultParams();
  p.filter = &allowed;
  auto found = index_->SearchWithFilter(data_.data(), p);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found->empty());
  for (const auto& n : *found)
    EXPECT_TRUE(allowed.Test(static_cast<size_t>(n.id))) << n.id;
}

TEST_P(IndexParamTest, EmptyFilterYieldsNothing) {
  common::Bitset none(kN);
  SearchParams p = DefaultParams();
  p.filter = &none;
  auto found = index_->SearchWithFilter(data_.data(), p);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found->empty());
}

TEST_P(IndexParamTest, InvalidKRejected) {
  SearchParams p = DefaultParams();
  p.k = 0;
  auto found = index_->SearchWithFilter(data_.data(), p);
  EXPECT_FALSE(found.ok());
}

TEST_P(IndexParamTest, SaveLoadPreservesResults) {
  std::string bytes;
  ASSERT_TRUE(index_->Save(&bytes).ok());
  IndexSpec spec;
  spec.dim = kDim;
  auto loaded = IndexFactory::Global().CreateFromSaved(spec, bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Size(), index_->Size());
  EXPECT_EQ((*loaded)->Type(), index_->Type());

  const float* query = data_.data() + 55 * kDim;
  auto before = index_->SearchWithFilter(query, DefaultParams());
  auto after = (*loaded)->SearchWithFilter(query, DefaultParams());
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i)
    EXPECT_EQ((*before)[i].id, (*after)[i].id);
}

TEST_P(IndexParamTest, CorruptLoadFailsCleanly) {
  std::string bytes;
  ASSERT_TRUE(index_->Save(&bytes).ok());
  bytes.resize(bytes.size() / 2);
  auto fresh = MakeIndex(GetParam(), kDim);
  EXPECT_FALSE(fresh->Load(bytes).ok());
}

TEST_P(IndexParamTest, IteratorYieldsIncreasingDistancesNoDuplicates) {
  auto iter_result = index_->MakeIterator(data_.data(), DefaultParams());
  ASSERT_TRUE(iter_result.ok());
  auto iter = std::move(*iter_result);
  std::unordered_set<IdType> seen;
  size_t total = 0;
  for (int round = 0; round < 5; ++round) {
    auto batch = iter->Next(20);
    if (batch.empty()) break;
    for (const auto& n : batch) {
      EXPECT_TRUE(seen.insert(n.id).second) << "duplicate id " << n.id;
    }
    total += batch.size();
  }
  EXPECT_GT(total, 0u);
}

TEST_P(IndexParamTest, IteratorEarlyBatchesAreNear) {
  // The first iterator batch should contain most of the true top-10.
  const float* query = data_.data() + 321 * kDim;
  auto truth = BruteForceTopK(data_, kDim, query, 10);
  auto iter_result = index_->MakeIterator(query, DefaultParams());
  ASSERT_TRUE(iter_result.ok());
  auto batch = (*iter_result)->Next(30);
  double r = Recall(batch, truth);
  EXPECT_GT(r, GetParam() == "IVFPQFS" ? 0.4 : 0.6);
}

TEST_P(IndexParamTest, RangeSearchHonorsRadius) {
  const float* query = data_.data() + 11 * kDim;
  auto top = index_->SearchWithFilter(query, DefaultParams());
  ASSERT_TRUE(top.ok());
  ASSERT_GE(top->size(), 5u);
  float radius = (*top)[4].distance;  // radius covering ~5 results
  auto in_range = index_->SearchWithRange(query, radius, DefaultParams());
  ASSERT_TRUE(in_range.ok());
  for (const auto& n : *in_range) EXPECT_LE(n.distance, radius);
  EXPECT_GE(in_range->size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(AllIndexTypes, IndexParamTest,
                         ::testing::Values("FLAT", "HNSW", "HNSWSQ", "IVFFLAT",
                                           "IVFPQ", "IVFPQFS", "DISKANN",
                                           "FLAT:fp16", "FLAT:bf16",
                                           "FLAT:int8", "HNSW:fp16",
                                           "HNSW:int8", "IVFFLAT:fp16",
                                           "IVFFLAT:int8"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == ':') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Index-specific behaviours
// ---------------------------------------------------------------------------

TEST(FlatIndexTest, ExactlyMatchesBruteForce) {
  auto data = MakeClusteredVectors(500, 16, 4, 31);
  FlatIndex index(16, Metric::kL2);
  auto ids = SequentialIds(500);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 500).ok());
  SearchParams p;
  p.k = 20;
  for (int q = 0; q < 5; ++q) {
    const float* query = data.data() + q * 31 * 16;
    auto truth = BruteForceTopK(data, 16, query, 20);
    auto found = index.SearchWithFilter(query, p);
    ASSERT_TRUE(found.ok());
    EXPECT_DOUBLE_EQ(Recall(*found, truth), 1.0);
  }
}

// Reference for the filter-aware scan paths: exact top-k over only the
// allowed rows.
std::vector<IdType> BruteForceTopKFiltered(const std::vector<float>& data,
                                           size_t dim, const float* query,
                                           size_t k,
                                           const common::Bitset& allowed,
                                           Metric metric = Metric::kL2) {
  std::vector<Neighbor> all;
  for (size_t i = 0; i < data.size() / dim; ++i) {
    if (!allowed.Test(i)) continue;
    all.push_back({static_cast<IdType>(i),
                   Distance(metric, query, data.data() + i * dim, dim)});
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end());
  std::vector<IdType> ids(k);
  for (size_t i = 0; i < k; ++i) ids[i] = all[i].id;
  return ids;
}

// Mixes a long contiguous run with scattered survivors so the compacted
// scan exercises both the in-place and the gather tile paths.
common::Bitset MixedFilter(size_t n) {
  common::Bitset allowed(n);
  for (size_t i = 300; i < 812 && i < n; ++i) allowed.Set(i);
  for (size_t i = 0; i < n; i += 7) allowed.Set(i);
  return allowed;
}

TEST(FlatIndexTest, FilteredScanExactOverSubset) {
  const size_t n = 1200, dim = 16;
  auto data = MakeClusteredVectors(n, dim, 6, 33);
  for (Metric metric : {Metric::kL2, Metric::kCosine}) {
    FlatIndex index(dim, metric);
    auto ids = SequentialIds(n);
    ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
    common::Bitset allowed = MixedFilter(n);
    SearchParams p;
    p.k = 25;
    p.filter = &allowed;
    for (int q = 0; q < 5; ++q) {
      const float* query = data.data() + (q * 211 % n) * dim;
      auto truth =
          BruteForceTopKFiltered(data, dim, query, 25, allowed, metric);
      auto found = index.SearchWithFilter(query, p);
      ASSERT_TRUE(found.ok());
      EXPECT_DOUBLE_EQ(Recall(*found, truth), 1.0)
          << "metric=" << static_cast<int>(metric) << " q=" << q;
    }
  }
}

TEST(FlatIndexTest, FilteredScanWithRemappedIds) {
  // Non-identity ids: filter bits address ids, so the compacted offset scan
  // must not engage and results must still honor the filter.
  const size_t n = 400, dim = 8;
  auto data = MakeClusteredVectors(n, dim, 4, 17);
  FlatIndex index(dim, Metric::kL2);
  std::vector<IdType> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<IdType>(1000 + i);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  common::Bitset allowed(1000 + n);
  for (size_t i = 0; i < n; i += 3) allowed.Set(1000 + i);
  SearchParams p;
  p.k = 15;
  p.filter = &allowed;
  auto found = index.SearchWithFilter(data.data(), p);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->size(), 15u);
  for (const auto& nb : *found)
    EXPECT_TRUE(allowed.Test(static_cast<size_t>(nb.id))) << nb.id;
}

TEST(FlatIndexTest, FilteredRangeSearch) {
  const size_t n = 600, dim = 8;
  auto data = MakeClusteredVectors(n, dim, 4, 29);
  FlatIndex index(dim, Metric::kL2);
  auto ids = SequentialIds(n);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  common::Bitset allowed = MixedFilter(n);
  const float* query = data.data() + 123 * dim;
  const float radius = 1.5f;
  SearchParams p;
  p.filter = &allowed;
  auto found = index.SearchWithRange(query, radius, p);
  ASSERT_TRUE(found.ok());
  std::vector<IdType> expect;
  for (size_t i = 0; i < n; ++i) {
    if (!allowed.Test(i)) continue;
    if (Distance(Metric::kL2, query, data.data() + i * dim, dim) <= radius)
      expect.push_back(static_cast<IdType>(i));
  }
  ASSERT_EQ(found->size(), expect.size());
  for (const auto& nb : *found) {
    EXPECT_LE(nb.distance, radius);
    EXPECT_TRUE(allowed.Test(static_cast<size_t>(nb.id)));
  }
}

TEST(IvfIndexTest, FilteredFullProbeExactOverSubset) {
  // With nprobe == nlist, IVF-FLAT degenerates to an exact scan, so the
  // filtered posting-list compaction must reproduce brute force exactly.
  const size_t n = 1000, dim = 16;
  auto data = MakeClusteredVectors(n, dim, 8, 57);
  IvfOptions opts;
  opts.nlist = 8;
  IvfFlatIndex index(dim, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), n).ok());
  auto ids = SequentialIds(n);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  common::Bitset allowed = MixedFilter(n);
  SearchParams p;
  p.k = 20;
  p.nprobe = 8;
  p.filter = &allowed;
  for (int q = 0; q < 5; ++q) {
    const float* query = data.data() + (q * 171 % n) * dim;
    auto truth = BruteForceTopKFiltered(data, dim, query, 20, allowed);
    auto found = index.SearchWithFilter(query, p);
    ASSERT_TRUE(found.ok());
    EXPECT_DOUBLE_EQ(Recall(*found, truth), 1.0) << q;
  }
}

TEST(HnswIndexTest, SparseFilterWidensSearch) {
  // ~1% selectivity: the density-aware ef widening must still surface
  // allowed neighbors instead of exhausting ef on filtered-out nodes.
  const size_t n = 3000;
  auto data = MakeClusteredVectors(n, kDim, 16, 71, 0.3f);
  HnswIndex index(kDim, Metric::kL2);
  auto ids = SequentialIds(n);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  common::Bitset allowed(n);
  for (size_t i = 0; i < n; i += 100) allowed.Set(i);  // 30 rows
  SearchParams p;
  p.k = 10;
  p.ef_search = 50;
  p.filter = &allowed;
  size_t total_found = 0;
  for (int q = 0; q < 10; ++q) {
    const float* query = data.data() + (q * 313 % n) * kDim;
    auto found = index.SearchWithFilter(query, p);
    ASSERT_TRUE(found.ok());
    for (const auto& nb : *found)
      ASSERT_TRUE(allowed.Test(static_cast<size_t>(nb.id))) << nb.id;
    total_found += found->size();
  }
  // Unwidened ef=50 over a 1%-dense filter would strand most queries with
  // nearly nothing; widened search should average several hits per query.
  EXPECT_GE(total_found, 30u);
}

TEST(HnswIndexTest, NativeIteratorFlagged) {
  HnswIndex index(8, Metric::kL2);
  EXPECT_TRUE(index.HasNativeIterator());
  // Every index family now carries a native resumable iterator; FLAT's
  // caches the full score array on first Next().
  FlatIndex flat(8, Metric::kL2);
  EXPECT_TRUE(flat.HasNativeIterator());
}

TEST(HnswIndexTest, HighEfImprovesRecall) {
  auto data = MakeClusteredVectors(3000, kDim, 16, 41, 0.3f);
  HnswOptions opts;
  opts.M = 8;
  opts.ef_construction = 60;
  HnswIndex index(kDim, Metric::kL2, opts);
  auto ids = SequentialIds(3000);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 3000).ok());

  double recall_low = 0, recall_high = 0;
  for (int q = 0; q < 20; ++q) {
    const float* query = data.data() + (q * 131 % 3000) * kDim;
    auto truth = BruteForceTopK(data, kDim, query, 10);
    SearchParams lo;
    lo.k = 10;
    lo.ef_search = 10;
    SearchParams hi;
    hi.k = 10;
    hi.ef_search = 400;
    auto rl = index.SearchWithFilter(query, lo);
    auto rh = index.SearchWithFilter(query, hi);
    ASSERT_TRUE(rl.ok() && rh.ok());
    recall_low += Recall(*rl, truth);
    recall_high += Recall(*rh, truth);
  }
  EXPECT_GE(recall_high, recall_low);
  EXPECT_GT(recall_high / 20, 0.95);
}

TEST(HnswIndexTest, IteratorReachesDeepResults) {
  // Iterate far past k and confirm coverage keeps growing (the property the
  // post-filter strategy depends on).
  auto data = MakeClusteredVectors(1000, 16, 8, 51);
  HnswIndex index(16, Metric::kL2);
  auto ids = SequentialIds(1000);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 1000).ok());
  SearchParams p;
  p.k = 10;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  size_t total = 0;
  while (true) {
    auto batch = iter->Next(100);
    if (batch.empty()) break;
    total += batch.size();
    if (total >= 900) break;
  }
  EXPECT_GE(total, 900u);  // HNSW graphs are connected: nearly all reachable
}

// ---------------------------------------------------------------------------
// VisitedSet
// ---------------------------------------------------------------------------

TEST(VisitedSetTest, ResetForgetsEveryId) {
  VisitedSet set;
  set.Reset(8);
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(3));
  EXPECT_TRUE(set.Contains(3));
  EXPECT_FALSE(set.Contains(4));
  set.Reset(8);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Insert(3));
}

TEST(VisitedSetTest, GrowingKeepsOldIdsForgotten) {
  VisitedSet set;
  set.Reset(4);
  ASSERT_TRUE(set.Insert(2));
  set.Reset(100);
  EXPECT_FALSE(set.Contains(2));
  EXPECT_TRUE(set.Insert(99));
  EXPECT_TRUE(set.Contains(99));
}

TEST(VisitedSetTest, EpochWrapClearsStaleTags) {
  // An id tagged in the first walk must not read as visited when the
  // 16-bit epoch comes back round to the same value.
  VisitedSet set;
  set.Reset(8);
  ASSERT_TRUE(set.Insert(3));
  size_t stale = 0;
  for (int i = 0; i < 70000; ++i) {
    set.Reset(8);
    stale += set.Contains(3) ? 1 : 0;
  }
  EXPECT_EQ(stale, 0u);
  EXPECT_TRUE(set.Insert(3));
}

// ---------------------------------------------------------------------------
// HNSW visited set: the dense per-thread / per-iterator set must leave the
// built graph, the walk order and the iterator's cost accounting unchanged.
// ---------------------------------------------------------------------------

/// Clustered vectors rounded to multiples of 1/8. Every L2 distance between
/// them is exact in fp32, so the built graph does not depend on the SIMD
/// tier's summation order and its saved bytes can be pinned.
std::vector<float> ExactGridVectors(size_t n, size_t dim, uint64_t seed) {
  auto data = MakeClusteredVectors(n, dim, 12, seed);
  for (float& v : data) v = std::round(v * 8.0f) / 8.0f;
  return data;
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string SeededHnswBytes(size_t m) {
  constexpr size_t kGridN = 1500, kGridDim = 24;
  auto data = ExactGridVectors(kGridN, kGridDim, 91);
  HnswOptions opts;
  opts.M = m;
  opts.ef_construction = 100;
  opts.seed = 7;
  HnswIndex index(kGridDim, Metric::kL2, opts);
  auto ids = SequentialIds(kGridN);
  EXPECT_TRUE(index.AddWithIds(data.data(), ids.data(), kGridN).ok());
  std::string bytes;
  EXPECT_TRUE(index.Save(&bytes).ok());
  return bytes;
}

// The pinned sizes and FNV-1a hashes are those of the hash-set visited
// tracking this set replaced; a change that moves the graph moves them.
TEST(HnswVisitedSetTest, SeededBuildM16SavesPinnedBytes) {
  std::string bytes = SeededHnswBytes(16);
  EXPECT_EQ(bytes.size(), 332126u);
  EXPECT_EQ(Fnv1a(bytes), 7526156887413778493ULL);
}

TEST(HnswVisitedSetTest, SeededBuildM8SavesPinnedBytes) {
  std::string bytes = SeededHnswBytes(8);
  EXPECT_EQ(bytes.size(), 259662u);
  EXPECT_EQ(Fnv1a(bytes), 12019590518163140927ULL);
}

TEST(HnswVisitedSetTest, IteratorRowsVisitedIsPinned) {
  constexpr size_t kGridN = 1500, kGridDim = 24;
  auto data = ExactGridVectors(kGridN, kGridDim, 91);
  HnswIndex index(kGridDim, Metric::kL2,
                  HnswOptions{.M = 8, .ef_construction = 100, .seed = 7});
  auto ids = SequentialIds(kGridN);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), kGridN).ok());
  SearchParams p;
  p.k = 10;
  p.ef_search = 40;
  // Pinned counts, as for the saved bytes above: the ledger's
  // iter_rows_visited and the cost model read these numbers.
  auto iter = std::move(*index.MakeIterator(data.data() + 37 * kGridDim, p));
  EXPECT_EQ(iter->VisitedCount(), 129u);
  size_t served = 0;
  for (int b = 0; b < 4; ++b) served += iter->Next(50).size();
  EXPECT_EQ(served, 200u);
  SearchIterator::Stats stats = iter->GetStats();
  EXPECT_EQ(stats.rows_visited, 397u);
  EXPECT_EQ(iter->VisitedCount(), stats.rows_visited);
  EXPECT_EQ(stats.batches, 4u);
}

std::vector<std::vector<Neighbor>> SearchAll(const HnswIndex& index,
                                             const std::vector<float>& queries,
                                             size_t dim,
                                             const SearchParams& p) {
  std::vector<std::vector<Neighbor>> out;
  for (size_t q = 0; q * dim < queries.size(); ++q) {
    auto found = index.SearchWithFilter(queries.data() + q * dim, p);
    EXPECT_TRUE(found.ok());
    out.push_back(found.ok() ? *found : std::vector<Neighbor>{});
  }
  return out;
}

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
  return true;
}

TEST(HnswVisitedSetTest, EpochWrapMatchesFreshThread) {
  // A 16-bit epoch wraps after 65,536 resets; each search resets once.
  // Every search on a thread that wraps must match a fresh thread's answer.
  constexpr size_t kTinyN = 64, kTinyDim = 4, kQueries = 8;
  auto data = MakeClusteredVectors(kTinyN, kTinyDim, 4, 17);
  HnswIndex index(kTinyDim, Metric::kL2,
                  HnswOptions{.M = 4, .ef_construction = 32, .seed = 5});
  auto ids = SequentialIds(kTinyN);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), kTinyN).ok());
  auto queries = MakeClusteredVectors(kQueries, kTinyDim, 4, 18);
  SearchParams p;
  p.k = 5;
  p.ef_search = 16;

  std::vector<std::vector<Neighbor>> reference;
  std::thread([&] { reference = SearchAll(index, queries, kTinyDim, p); })
      .join();
  ASSERT_EQ(reference.size(), kQueries);

  size_t mismatches = 0;
  std::thread([&] {
    for (size_t i = 0; i < 70000; ++i) {
      size_t q = i % kQueries;
      auto found = index.SearchWithFilter(queries.data() + q * kTinyDim, p);
      if (!found.ok() || !SameNeighbors(*found, reference[q])) ++mismatches;
    }
  }).join();
  EXPECT_EQ(mismatches, 0u);
}

TEST(HnswVisitedSetTest, IteratorIsolatedFromInterleavedSearch) {
  // A live iterator on index A must not share visited state with one-shot
  // searches on a larger index B (or on A itself) run on the same thread.
  auto data_a = MakeClusteredVectors(400, 8, 6, 23);
  auto data_b = MakeClusteredVectors(2000, 8, 6, 24);
  HnswIndex a(8, Metric::kL2,
              HnswOptions{.M = 8, .ef_construction = 60, .seed = 1});
  HnswIndex b(8, Metric::kL2,
              HnswOptions{.M = 8, .ef_construction = 60, .seed = 2});
  auto ids_a = SequentialIds(400);
  auto ids_b = SequentialIds(2000);
  ASSERT_TRUE(a.AddWithIds(data_a.data(), ids_a.data(), 400).ok());
  ASSERT_TRUE(b.AddWithIds(data_b.data(), ids_b.data(), 2000).ok());
  SearchParams p;
  p.k = 10;
  p.ef_search = 32;
  const float* query = data_a.data() + 5 * 8;

  std::vector<std::vector<Neighbor>> alone;
  auto solo = std::move(*a.MakeIterator(query, p));
  for (int i = 0; i < 6; ++i) alone.push_back(solo->Next(25));

  auto iter = std::move(*a.MakeIterator(query, p));
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 3; ++j) {
      ASSERT_TRUE(b.SearchWithFilter(data_b.data() + j * 8, p).ok());
      ASSERT_TRUE(a.SearchWithFilter(data_a.data() + j * 8, p).ok());
    }
    EXPECT_TRUE(SameNeighbors(iter->Next(25), alone[i])) << "batch " << i;
  }
  EXPECT_EQ(iter->GetStats().rows_visited, solo->GetStats().rows_visited);
}

// ---------------------------------------------------------------------------
// HNSW Load validation: graph walks index a dense visited array by node id,
// so every id, level and size in the saved bytes is checked before use.
// ---------------------------------------------------------------------------

template <typename T>
T ReadAt(const std::string& bytes, size_t off) {
  T v;
  std::memcpy(&v, bytes.data() + off, sizeof(T));
  return v;
}

template <typename T>
void WriteAt(std::string* bytes, size_t off, T v) {
  std::memcpy(bytes->data() + off, &v, sizeof(T));
}

/// Byte offsets inside HnswIndex::Save's fp32 layout: type string, dim,
/// metric, M, ef_construction, two tag bytes, entry point, max level, ids,
/// levels, vectors, then per node a level count and one id list per level.
struct HnswLayout {
  size_t dim, metric, m, entry, max_level, levels;
  size_t n = 0;
  /// [node][level] -> offset of that level's u64 length prefix.
  std::vector<std::vector<size_t>> lists;
  std::vector<size_t> level_count;  // offset of each node's u32 level count
};

HnswLayout ParseHnswLayout(const std::string& b, size_t dim) {
  HnswLayout l;
  l.dim = 8 + ReadAt<uint64_t>(b, 0);
  l.metric = l.dim + 8;
  l.m = l.metric + 4;
  l.entry = l.m + 8 + 8 + 2;
  l.max_level = l.entry + 4;
  l.n = ReadAt<uint64_t>(b, l.max_level + 4);
  size_t off = l.max_level + 4 + 8 + l.n * sizeof(IdType);
  l.levels = off + 8;
  off = l.levels + l.n;
  off += 8 + l.n * dim * sizeof(float) + 8;  // vectors, node count
  for (size_t i = 0; i < l.n; ++i) {
    l.level_count.push_back(off);
    uint32_t levels = ReadAt<uint32_t>(b, off);
    off += 4;
    l.lists.emplace_back();
    for (uint32_t lv = 0; lv < levels; ++lv) {
      l.lists.back().push_back(off);
      off += 8 + ReadAt<uint64_t>(b, off) * sizeof(uint32_t);
    }
  }
  EXPECT_EQ(off, b.size());
  return l;
}

class HnswLoadTest : public ::testing::Test {
 protected:
  static constexpr size_t kLoadN = 300, kLoadDim = 8;

  void SetUp() override {
    data_ = MakeClusteredVectors(kLoadN, kLoadDim, 6, 33);
    HnswIndex index(kLoadDim, Metric::kL2,
                    HnswOptions{.M = 8, .ef_construction = 60, .seed = 3});
    auto ids = SequentialIds(kLoadN);
    ASSERT_TRUE(index.AddWithIds(data_.data(), ids.data(), kLoadN).ok());
    ASSERT_TRUE(index.Save(&bytes_).ok());
    layout_ = ParseHnswLayout(bytes_, kLoadDim);
    ASSERT_EQ(layout_.n, kLoadN);
  }

  common::Status LoadFresh(const std::string& bytes) const {
    HnswIndex fresh(kLoadDim, Metric::kL2);
    return fresh.Load(bytes);
  }

  /// Some node other than the entry point whose top level is `level`.
  uint32_t NodeAtLevel(uint8_t level) const {
    uint32_t entry = ReadAt<uint32_t>(bytes_, layout_.entry);
    for (uint32_t i = 0; i < kLoadN; ++i)
      if (i != entry && ReadAt<uint8_t>(bytes_, layout_.levels + i) == level)
        return i;
    ADD_FAILURE() << "no node at level " << int{level};
    return 0;
  }

  std::vector<float> data_;
  std::string bytes_;
  HnswLayout layout_;
};

TEST_F(HnswLoadTest, IntactBytesLoad) { EXPECT_TRUE(LoadFresh(bytes_).ok()); }

TEST_F(HnswLoadTest, RejectsMetricTagPastCosine) {
  WriteAt<uint32_t>(&bytes_, layout_.metric,
                    static_cast<uint32_t>(Metric::kCosine) + 1);
  EXPECT_TRUE(LoadFresh(bytes_).IsCorruption());
}

TEST_F(HnswLoadTest, RejectsEntryPointOutOfRange) {
  WriteAt<uint32_t>(&bytes_, layout_.entry, kLoadN);
  EXPECT_TRUE(LoadFresh(bytes_).IsCorruption());
}

TEST_F(HnswLoadTest, RejectsMaxLevelDisagreeingWithLevels) {
  int32_t max_level = ReadAt<int32_t>(bytes_, layout_.max_level);
  std::string higher = bytes_;
  WriteAt<int32_t>(&higher, layout_.max_level, max_level + 1);
  EXPECT_TRUE(LoadFresh(higher).IsCorruption());
  std::string none = bytes_;
  WriteAt<int32_t>(&none, layout_.max_level, -1);
  EXPECT_TRUE(LoadFresh(none).IsCorruption());
}

TEST_F(HnswLoadTest, RejectsNodeLevelCountMismatch) {
  WriteAt<uint8_t>(&bytes_, layout_.levels + NodeAtLevel(0), 1);
  EXPECT_TRUE(LoadFresh(bytes_).IsCorruption());
}

TEST_F(HnswLoadTest, RejectsNeighborIdOutOfRange) {
  size_t list = layout_.lists[0][0];
  ASSERT_GT(ReadAt<uint64_t>(bytes_, list), 0u);
  WriteAt<uint32_t>(&bytes_, list + 8, kLoadN);
  EXPECT_TRUE(LoadFresh(bytes_).IsCorruption());
}

TEST_F(HnswLoadTest, RejectsUpperLevelLinkToLowerNode) {
  // A level-1 edge into a node that has no level-1 list would make the
  // greedy descent read past that node's levels.
  uint32_t upper = NodeAtLevel(1);
  size_t list = layout_.lists[upper][1];
  ASSERT_GT(ReadAt<uint64_t>(bytes_, list), 0u);
  WriteAt<uint32_t>(&bytes_, list + 8, NodeAtLevel(0));
  EXPECT_TRUE(LoadFresh(bytes_).IsCorruption());
}

TEST_F(HnswLoadTest, RejectsDegreeAboveMaxLinks) {
  // M=1 caps level 0 at two links; the saved graph was built with M=8.
  WriteAt<uint64_t>(&bytes_, layout_.m, 1);
  EXPECT_TRUE(LoadFresh(bytes_).IsCorruption());
}

TEST_F(HnswLoadTest, RejectsVectorCountMismatch) {
  WriteAt<uint64_t>(&bytes_, layout_.dim, kLoadDim + 1);
  EXPECT_TRUE(LoadFresh(bytes_).IsCorruption());
}

TEST_F(HnswLoadTest, RejectsNonFiniteVector) {
  size_t first_float = layout_.levels + kLoadN + 8;
  WriteAt<float>(&bytes_, first_float, std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(LoadFresh(bytes_).IsCorruption());
}

TEST(HnswLoadStorageTest, RejectsDimMismatchForEveryStorage) {
  // SQ codes and reduced-precision stores carry their own dim; a header dim
  // that disagrees with the stored vectors must fail for each storage form.
  auto data = MakeClusteredVectors(200, 8, 4, 35);
  auto ids = SequentialIds(200);
  for (const char* type : {"HNSW", "HNSWSQ", "HNSW:fp16", "HNSW:int8"}) {
    SCOPED_TRACE(type);
    auto index = MakeIndex(type, 8);
    if (index->NeedsTraining()) {
      ASSERT_TRUE(index->Train(data.data(), 200).ok());
    }
    ASSERT_TRUE(index->AddWithIds(data.data(), ids.data(), 200).ok());
    std::string bytes;
    ASSERT_TRUE(index->Save(&bytes).ok());
    ASSERT_TRUE(MakeIndex(type, 8)->Load(bytes).ok());
    WriteAt<uint64_t>(&bytes, 8 + ReadAt<uint64_t>(bytes, 0), 9);
    EXPECT_TRUE(MakeIndex(type, 8)->Load(bytes).IsCorruption());
  }
}

TEST_F(HnswLoadTest, BitFlipAndTruncationSweepStaysInBounds) {
  // Each corrupted copy either fails to load or loads into an index whose
  // searches and iterators stay in bounds (the sanitizer legs check the
  // memory accesses; this checks the shapes of the answers).
  common::Rng rng(20251);
  common::Bitset half(kLoadN);
  for (size_t i = 0; i < kLoadN; i += 2) half.Set(i);
  SearchParams p;
  p.k = 10;
  p.ef_search = 32;
  size_t loaded = 0, rejected = 0;
  auto probe = [&](const std::string& bytes) {
    HnswIndex fresh(kLoadDim, Metric::kL2);
    if (!fresh.Load(bytes).ok()) {
      ++rejected;
      return;
    }
    ++loaded;
    for (int q = 0; q < 2; ++q) {
      const float* query = data_.data() + (q * 97 % kLoadN) * kLoadDim;
      SearchParams fp = p;
      fp.filter = q == 0 ? nullptr : &half;
      auto found = fresh.SearchWithFilter(query, fp);
      ASSERT_TRUE(found.ok());
      ASSERT_LE(found->size(), 10u);
      auto iter = std::move(*fresh.MakeIterator(query, fp));
      for (int b = 0; b < 3; ++b) ASSERT_LE(iter->Next(40).size(), 40u);
    }
  };
  const size_t bits = bytes_.size() * 8;
  for (int i = 0; i < 3000; ++i) {
    size_t bit = static_cast<size_t>(rng.UniformInt(0, bits - 1));
    std::string flipped = bytes_;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    probe(flipped);
  }
  for (int i = 0; i < 300; ++i) {
    size_t keep = static_cast<size_t>(rng.UniformInt(0, bytes_.size() - 1));
    probe(bytes_.substr(0, keep));
  }
  // Truncations always fail; most single-bit flips land in vector payloads
  // and load.
  EXPECT_GE(rejected, 300u);
  EXPECT_GT(loaded, 0u);
}

TEST(IvfIndexTest, MoreProbesImproveRecall) {
  auto data = MakeClusteredVectors(2000, kDim, 16, 61);
  IvfOptions opts;
  opts.nlist = 32;
  IvfFlatIndex index(kDim, Metric::kL2, opts);
  auto ids = SequentialIds(2000);
  ASSERT_TRUE(index.Train(data.data(), 2000).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 2000).ok());

  double recall1 = 0, recall_all = 0;
  for (int q = 0; q < 20; ++q) {
    const float* query = data.data() + (q * 101 % 2000) * kDim;
    auto truth = BruteForceTopK(data, kDim, query, 10);
    SearchParams p1;
    p1.k = 10;
    p1.nprobe = 1;
    SearchParams pall;
    pall.k = 10;
    pall.nprobe = 32;
    recall1 += Recall(*index.SearchWithFilter(query, p1), truth);
    recall_all += Recall(*index.SearchWithFilter(query, pall), truth);
  }
  EXPECT_GE(recall_all, recall1);
  EXPECT_NEAR(recall_all / 20, 1.0, 1e-9);  // probing all lists is exact
}

TEST(IvfIndexTest, UntrainedSearchFails) {
  IvfFlatIndex index(8, Metric::kL2);
  SearchParams p;
  float q[8] = {};
  EXPECT_FALSE(index.SearchWithFilter(q, p).ok());
}

TEST(IvfIndexTest, AddAutoTrains) {
  auto data = MakeClusteredVectors(500, 8, 4, 71);
  IvfFlatIndex index(8, Metric::kL2);
  auto ids = SequentialIds(500);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 500).ok());
  EXPECT_TRUE(index.trained());
  EXPECT_EQ(index.Size(), 500u);
}

TEST(IvfPqTest, RefineImprovesOverPureAdc) {
  auto data = MakeClusteredVectors(2000, kDim, 8, 81);
  auto ids = SequentialIds(2000);
  IvfOptions ivf;
  ivf.nlist = 16;

  IvfPqOptions with_refine;
  with_refine.keep_raw_for_refine = true;
  IvfPqIndex refined(kDim, Metric::kL2, ivf, with_refine);
  ASSERT_TRUE(refined.Train(data.data(), 2000).ok());
  ASSERT_TRUE(refined.AddWithIds(data.data(), ids.data(), 2000).ok());

  IvfPqOptions no_refine;
  no_refine.keep_raw_for_refine = false;
  IvfPqIndex unrefined(kDim, Metric::kL2, ivf, no_refine);
  ASSERT_TRUE(unrefined.Train(data.data(), 2000).ok());
  ASSERT_TRUE(unrefined.AddWithIds(data.data(), ids.data(), 2000).ok());

  double r_refined = 0, r_unrefined = 0;
  SearchParams p;
  p.k = 10;
  p.nprobe = 8;
  p.refine_factor = 4;
  for (int q = 0; q < 20; ++q) {
    const float* query = data.data() + (q * 91 % 2000) * kDim;
    auto truth = BruteForceTopK(data, kDim, query, 10);
    r_refined += Recall(*refined.SearchWithFilter(query, p), truth);
    r_unrefined += Recall(*unrefined.SearchWithFilter(query, p), truth);
  }
  EXPECT_GE(r_refined, r_unrefined);
}

// ---------------------------------------------------------------------------
// Factory & auto-index
// ---------------------------------------------------------------------------

TEST(IndexFactoryTest, AllBuiltinsRegistered) {
  auto& factory = IndexFactory::Global();
  for (const char* type : {"FLAT", "HNSW", "HNSWSQ", "IVFFLAT", "IVFPQ",
                           "IVFPQFS", "DISKANN"})
    EXPECT_TRUE(factory.Has(type)) << type;
}

TEST(IndexFactoryTest, UnknownTypeIsNotFound) {
  IndexSpec spec;
  spec.type = "DISKANN_V9";
  spec.dim = 8;
  auto r = IndexFactory::Global().Create(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(IndexFactoryTest, PluggableRegistration) {
  // The extensibility contribution: a new library plugs in via Register.
  auto& factory = IndexFactory::Global();
  factory.Register("MYLIB_FLAT", [](const IndexSpec& spec) {
    return common::Result<VectorIndexPtr>(
        VectorIndexPtr(new FlatIndex(spec.dim, spec.metric)));
  });
  IndexSpec spec;
  spec.type = "MYLIB_FLAT";
  spec.dim = 8;
  auto r = factory.Create(spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Dim(), 8u);
}

TEST(IndexFactoryTest, ZeroDimRejected) {
  IndexSpec spec;
  spec.type = "FLAT";
  auto r = IndexFactory::Global().Create(spec);
  EXPECT_FALSE(r.ok());
}

TEST(IndexSpecTest, GetIntParsesAndDefaults) {
  IndexSpec spec;
  spec.params["M"] = "32";
  spec.params["BAD"] = "xyz";
  EXPECT_EQ(spec.GetInt("M", 16), 32);
  EXPECT_EQ(spec.GetInt("MISSING", 16), 16);
  EXPECT_EQ(spec.GetInt("BAD", 5), 5);
}

TEST(AutoIndexTest, NlistGrowsWithN) {
  EXPECT_EQ(AutoSelectIvfNlist(0), 1u);
  size_t small = AutoSelectIvfNlist(1000);
  size_t large = AutoSelectIvfNlist(100000);
  EXPECT_LT(small, large);
  // Each list keeps at least ~39 points.
  EXPECT_LE(AutoSelectIvfNlist(1000), 1000 / 39 + 1);
}

TEST(AutoIndexTest, AutoTuneSpecFillsNlist) {
  IndexSpec spec;
  spec.type = "IVFFLAT";
  spec.dim = 16;
  IndexSpec tuned = AutoTuneSpec(spec, 10000);
  EXPECT_NE(tuned.params.find("NLIST"), tuned.params.end());
  // Explicit user NLIST wins.
  spec.params["NLIST"] = "7";
  tuned = AutoTuneSpec(spec, 10000);
  EXPECT_EQ(tuned.params.at("NLIST"), "7");
}

TEST(AutoIndexTest, MeasuredAutoTuneReturnsCandidate) {
  auto data = MakeClusteredVectors(2000, 16, 8, 91);
  auto report = MeasuredAutoTuneIvf(data.data(), 2000, 16, 4, 10);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->chosen_nlist, 0u);
  EXPECT_GE(report->candidates.size(), 2u);
}

// ---------------------------------------------------------------------------
// DiskANN specifics
// ---------------------------------------------------------------------------

TEST(DiskAnnTest, DiskReadsCountedAndCached) {
  auto data = MakeClusteredVectors(1000, 16, 8, 77);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  DiskAnnIndex index(16, Metric::kL2, opts);
  auto ids = SequentialIds(1000);
  ASSERT_TRUE(index.Train(data.data(), 1000).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 1000).ok());

  SearchParams p;
  p.k = 10;
  p.ef_search = 32;
  uint64_t before = index.disk_reads();
  ASSERT_TRUE(index.SearchWithFilter(data.data(), p).ok());
  uint64_t first_query = index.disk_reads() - before;
  EXPECT_GT(first_query, 0u);  // beam expansion hits "disk"
  // Repeating the same query is served mostly from the block cache.
  before = index.disk_reads();
  ASSERT_TRUE(index.SearchWithFilter(data.data(), p).ok());
  EXPECT_LT(index.disk_reads() - before, first_query / 2 + 1);
}

TEST(DiskAnnTest, MemoryFootprintFarBelowHnsw) {
  // The point of the disk-based index: resident memory is PQ codes + cache,
  // not vectors + graph.
  auto data = MakeClusteredVectors(2000, kDim, 8, 78);
  auto ids = SequentialIds(2000);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  opts.cached_nodes = 16;  // tiny cache to expose the raw footprint
  DiskAnnIndex diskann(kDim, Metric::kL2, opts);
  ASSERT_TRUE(diskann.Train(data.data(), 2000).ok());
  ASSERT_TRUE(diskann.AddWithIds(data.data(), ids.data(), 2000).ok());
  HnswIndex hnsw(kDim, Metric::kL2);
  ASSERT_TRUE(hnsw.AddWithIds(data.data(), ids.data(), 2000).ok());
  EXPECT_LT(diskann.MemoryUsage() * 4, hnsw.MemoryUsage());
}

TEST(DiskAnnTest, SealedIndexRejectsFurtherAdds) {
  auto data = MakeClusteredVectors(200, 16, 4, 79);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  DiskAnnIndex index(16, Metric::kL2, opts);
  auto ids = SequentialIds(200);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 200).ok());
  common::Status again = index.AddWithIds(data.data(), ids.data(), 200);
  EXPECT_TRUE(again.IsNotSupported());
}

TEST(DiskAnnTest, BitFlipAndTruncationSweepStaysInBounds) {
  // DiskANN walks index dense seen/expanded sets by neighbor id; a corrupt
  // id must be rejected at Load or by the block decoder, never walked.
  auto data = MakeClusteredVectors(300, 8, 6, 83);
  DiskAnnOptions opts;
  opts.R = 12;
  opts.L_build = 24;
  opts.pq_m = 4;
  opts.simulate_disk_latency = false;
  DiskAnnIndex index(8, Metric::kL2, opts);
  auto ids = SequentialIds(300);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 300).ok());
  std::string bytes;
  ASSERT_TRUE(index.Save(&bytes).ok());
  common::Rng rng(20252);
  SearchParams p;
  p.k = 10;
  p.ef_search = 24;
  size_t loaded = 0;
  auto probe = [&](const std::string& corrupt) {
    DiskAnnIndex fresh(8, Metric::kL2, opts);
    if (!fresh.Load(corrupt).ok()) return;
    ++loaded;
    const float* query = data.data() + 41 * 8;
    auto found = fresh.SearchWithFilter(query, p);
    ASSERT_TRUE(found.ok());
    ASSERT_LE(found->size(), 10u);
    auto iter = std::move(*fresh.MakeIterator(query, p));
    for (int b = 0; b < 3; ++b) ASSERT_LE(iter->Next(40).size(), 40u);
  };
  const size_t bits = bytes.size() * 8;
  for (int i = 0; i < 1500; ++i) {
    size_t bit = static_cast<size_t>(rng.UniformInt(0, bits - 1));
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    probe(flipped);
  }
  for (int i = 0; i < 150; ++i)
    probe(bytes.substr(0, static_cast<size_t>(
                              rng.UniformInt(0, bytes.size() - 1))));
  EXPECT_GT(loaded, 0u);
}

TEST(GenericIteratorTest, ExhaustsSmallIndex) {
  auto data = MakeClusteredVectors(100, 8, 2, 101);
  FlatIndex index(8, Metric::kL2);
  auto ids = SequentialIds(100);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 100).ok());
  SearchParams p;
  p.k = 10;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  std::set<IdType> seen;
  for (;;) {
    auto batch = iter->Next(16);
    if (batch.empty()) break;
    for (const auto& n : batch) seen.insert(n.id);
  }
  EXPECT_EQ(seen.size(), 100u);  // generic iterator reaches everything
}

// ---------------------------------------------------------------------------
// Native resumable iterators: parity, sorted-batch contract, honest stats
// ---------------------------------------------------------------------------

/// Drains an iterator with `batch_size` refills, checking the sorted-batch
/// contract on every batch, until exhaustion or `max_rows` collected.
std::vector<Neighbor> DrainIterator(SearchIterator* iter, size_t batch_size,
                                    size_t max_rows) {
  std::vector<Neighbor> all;
  for (;;) {
    std::vector<Neighbor> batch = iter->Next(batch_size);
    if (batch.empty()) break;
    EXPECT_TRUE(IsSortedBatch(batch));
    all.insert(all.end(), batch.begin(), batch.end());
    if (all.size() >= max_rows) break;
  }
  return all;
}

void ExpectExactlyEqual(const std::vector<Neighbor>& got,
                        const std::vector<Neighbor>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << label << " rank " << i;
  }
}

TEST(NativeIteratorParityTest, FlatMatchesOneShotAcrossTiers) {
  // Concatenated Next() batches must be bit-identical to the one-shot
  // sorted top-n, per metric and per precision tier: the iterator's first
  // Next() runs the exact same scan, later batches only reorder service.
  constexpr size_t n = 400;
  auto data = MakeClusteredVectors(n, kDim, 6, 201);
  auto ids = SequentialIds(n);
  for (Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    for (Precision prec :
         {Precision::kFp32, Precision::kFp16, Precision::kInt8}) {
      FlatIndex index(kDim, metric, prec);
      ASSERT_TRUE(index.Train(data.data(), n).ok());
      ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
      ASSERT_TRUE(index.HasNativeIterator());
      SearchParams p;
      p.k = static_cast<int>(n);
      auto one_shot = index.SearchWithFilter(data.data() + 5 * kDim, p);
      ASSERT_TRUE(one_shot.ok());
      auto iter = std::move(*index.MakeIterator(data.data() + 5 * kDim, p));
      std::vector<Neighbor> streamed = DrainIterator(iter.get(), 37, n);
      ExpectExactlyEqual(streamed, *one_shot,
                         std::string("flat ") + PrecisionName(prec) +
                             " metric=" +
                             std::to_string(static_cast<int>(metric)));
    }
  }
}

TEST(NativeIteratorParityTest, FlatFilteredMatchesOneShot) {
  constexpr size_t n = 500;
  auto data = MakeClusteredVectors(n, kDim, 4, 203);
  auto ids = SequentialIds(n);
  common::Bitset allowed(n);
  size_t qualifying = 0;
  for (size_t i = 0; i < n; i += 7) {
    allowed.Set(i);
    ++qualifying;
  }
  for (Precision prec : {Precision::kFp32, Precision::kInt8}) {
    FlatIndex index(kDim, Metric::kL2, prec);
    ASSERT_TRUE(index.Train(data.data(), n).ok());
    ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
    SearchParams p;
    p.k = static_cast<int>(qualifying);
    p.filter = &allowed;
    auto one_shot = index.SearchWithFilter(data.data(), p);
    ASSERT_TRUE(one_shot.ok());
    auto iter = std::move(*index.MakeIterator(data.data(), p));
    std::vector<Neighbor> streamed = DrainIterator(iter.get(), 11, n);
    ExpectExactlyEqual(streamed, *one_shot,
                       std::string("filtered flat ") + PrecisionName(prec));
  }
}

TEST(NativeIteratorParityTest, IvfFlatFullProbeMatchesOneShot) {
  // nprobe = nlist drains every list, so the concatenated stream must equal
  // the one-shot full sort exactly — including the quantized tier.
  constexpr size_t n = 600;
  auto data = MakeClusteredVectors(n, kDim, 8, 205);
  auto ids = SequentialIds(n);
  IvfOptions opts;
  opts.nlist = 8;
  for (Precision prec : {Precision::kFp32, Precision::kInt8}) {
    IvfFlatIndex index(kDim, Metric::kL2, opts, prec);
    ASSERT_TRUE(index.Train(data.data(), n).ok());
    ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
    ASSERT_TRUE(index.HasNativeIterator());
    SearchParams p;
    p.k = static_cast<int>(n);
    p.nprobe = static_cast<int>(opts.nlist);
    auto one_shot = index.SearchWithFilter(data.data() + kDim, p);
    ASSERT_TRUE(one_shot.ok());
    auto iter = std::move(*index.MakeIterator(data.data() + kDim, p));
    std::vector<Neighbor> streamed = DrainIterator(iter.get(), 53, n);
    ExpectExactlyEqual(streamed, *one_shot,
                       std::string("ivfflat ") + PrecisionName(prec));
  }
}

TEST(NativeIteratorParityTest, IvfFirstBatchMatchesOneShotNprobe) {
  // At matching nprobe the iterator's first window scans exactly the lists
  // the one-shot search scans, so the first batch is the one-shot top-k.
  auto data = MakeClusteredVectors(kN, kDim, 16, 207);
  auto ids = SequentialIds(kN);
  IvfOptions opts;
  opts.nlist = 16;
  IvfFlatIndex index(kDim, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), kN).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), kN).ok());
  SearchParams p;
  p.k = 20;
  p.nprobe = 4;
  auto one_shot = index.SearchWithFilter(data.data() + 3 * kDim, p);
  ASSERT_TRUE(one_shot.ok());
  auto iter = std::move(*index.MakeIterator(data.data() + 3 * kDim, p));
  std::vector<Neighbor> first = iter->Next(20);
  ExpectExactlyEqual(first, *one_shot, "ivf first batch");
}

TEST(NativeIteratorParityTest, IvfPqFallsBackToGeneric) {
  // PQ refine re-ranks a k-dependent shortlist, which cannot be reproduced
  // incrementally; MakeIterator must hand back the restart wrapper.
  auto data = MakeClusteredVectors(800, kDim, 8, 209);
  auto ids = SequentialIds(800);
  IvfPqIndex index(kDim, Metric::kL2);
  ASSERT_TRUE(index.Train(data.data(), 800).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 800).ok());
  EXPECT_FALSE(index.HasNativeIterator());
  SearchParams p;
  p.k = 10;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  auto batch = iter->Next(10);
  EXPECT_FALSE(batch.empty());
  // The restart wrapper reports recompute rounds; a native iterator never
  // would.
  EXPECT_GE(iter->GetStats().recompute_rounds, 1u);
}

TEST(NativeIteratorParityTest, DiskAnnFirstBatchMatchesOneShot) {
  // Phase one of the resumable iterator replicates the one-shot bounded
  // beam exactly, so the first k served rows are bit-identical.
  auto data = MakeClusteredVectors(800, 16, 8, 211);
  auto ids = SequentialIds(800);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  DiskAnnIndex index(16, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), 800).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 800).ok());
  ASSERT_TRUE(index.HasNativeIterator());
  for (int k : {5, 17}) {
    SearchParams p;
    p.k = k;
    p.ef_search = 32;
    auto one_shot = index.SearchWithFilter(data.data() + 9 * 16, p);
    ASSERT_TRUE(one_shot.ok());
    auto iter = std::move(*index.MakeIterator(data.data() + 9 * 16, p));
    std::vector<Neighbor> first = iter->Next(static_cast<size_t>(k));
    ExpectExactlyEqual(first, *one_shot,
                       "diskann k=" + std::to_string(k));
  }
}

TEST(NativeIteratorParityTest, DiskAnnFilteredFirstBatchMatchesOneShot) {
  auto data = MakeClusteredVectors(600, 16, 6, 213);
  auto ids = SequentialIds(600);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  DiskAnnIndex index(16, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), 600).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 600).ok());
  common::Bitset allowed(600);
  for (size_t i = 0; i < 600; i += 3) allowed.Set(i);
  SearchParams p;
  p.k = 10;
  p.ef_search = 32;
  p.filter = &allowed;
  auto one_shot = index.SearchWithFilter(data.data(), p);
  ASSERT_TRUE(one_shot.ok());
  ASSERT_FALSE(one_shot->empty());
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  std::vector<Neighbor> first = iter->Next(one_shot->size());
  ExpectExactlyEqual(first, *one_shot, "diskann filtered");
  for (const Neighbor& nb : first)
    EXPECT_TRUE(allowed.Test(static_cast<size_t>(nb.id)));
}

TEST(NativeIteratorParityTest, DiskAnnResumeGoesDeepWithoutRestart) {
  // Resuming past the first beam must keep producing fresh ids (the spill
  // frontier widens the beam) and must not re-pay SSD reads for blocks the
  // first phase already expanded.
  auto data = MakeClusteredVectors(1000, 16, 8, 215);
  auto ids = SequentialIds(1000);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  opts.cached_nodes = 4;  // tiny cache: a re-walk would show up as re-reads
  DiskAnnIndex index(16, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), 1000).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 1000).ok());
  SearchParams p;
  p.k = 10;
  p.ef_search = 16;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  std::set<IdType> seen;
  size_t total = 0;
  for (;;) {
    auto batch = iter->Next(50);
    if (batch.empty()) break;
    for (const Neighbor& nb : batch) EXPECT_TRUE(seen.insert(nb.id).second);
    total += batch.size();
    if (total >= 600) break;
  }
  EXPECT_GE(total, 600u);  // far past the initial ef=16 beam
  // Every expanded node costs exactly one ReadBlock; with resume the reads
  // can't exceed expansions by more than the graph's revisits (none).
  EXPECT_LE(index.disk_reads(), 1000u + iter->GetStats().rows_visited);
}

TEST(SortedBatchContractTest, ShuffledBatchWouldBreakRangeEarlyExit) {
  // The executor's range early-exit reads batch.back() as the worst hit in
  // the batch; a shuffled batch silently truncates results. IsSortedBatch
  // is the guard every iterator DCHECKs.
  auto data = MakeClusteredVectors(200, 8, 4, 217);
  FlatIndex index(8, Metric::kL2);
  auto ids = SequentialIds(200);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 200).ok());
  SearchParams p;
  p.k = 50;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  std::vector<Neighbor> batch = iter->Next(50);
  ASSERT_EQ(batch.size(), 50u);
  ASSERT_TRUE(IsSortedBatch(batch));
  float worst = batch.back().distance;
  for (const Neighbor& nb : batch) EXPECT_LE(nb.distance, worst);
  // A shuffled batch violates the contract: back() is no longer the worst,
  // so "whole batch past the radius" inferences would be unsound.
  std::reverse(batch.begin(), batch.end());
  ASSERT_FALSE(IsSortedBatch(batch));
  EXPECT_LT(batch.back().distance, worst);
}

TEST(IteratorStatsTest, GenericIteratorReportsHonestCosts) {
  // The old accounting charged ef_search per Next() regardless of work; the
  // honest version counts rows actually materialized per restart round.
  auto data = MakeClusteredVectors(300, 8, 4, 219);
  FlatIndex index(8, Metric::kL2);
  auto ids = SequentialIds(300);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 300).ok());
  SearchParams p;
  p.k = 10;
  GenericSearchIterator iter(&index, data.data(), p);
  size_t drained = 0;
  size_t batches = 0;
  for (;;) {
    auto batch = iter.Next(40);
    if (batch.empty()) break;
    drained += batch.size();
    ++batches;
    if (drained >= 200) break;
  }
  SearchIterator::Stats stats = iter.GetStats();
  EXPECT_EQ(stats.batches, batches);
  // Restarts re-materialize earlier rows: cumulative rows visited must
  // exceed the rows actually served.
  EXPECT_GE(stats.recompute_rounds, 2u);
  EXPECT_GT(stats.rows_visited, drained);
  EXPECT_EQ(iter.VisitedCount(), stats.rows_visited);
}

TEST(IteratorStatsTest, FlatIteratorScansOnceRegardlessOfBatches) {
  constexpr size_t n = 250;
  auto data = MakeClusteredVectors(n, 8, 4, 221);
  FlatIndex index(8, Metric::kL2);
  auto ids = SequentialIds(n);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  SearchParams p;
  p.k = 10;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  size_t batches = 0;
  while (!iter->Next(17).empty()) ++batches;
  SearchIterator::Stats stats = iter->GetStats();
  // One full scan total — resumable batches never recompute distances.
  EXPECT_EQ(stats.rows_visited, n);
  EXPECT_EQ(stats.recompute_rounds, 0u);
  EXPECT_EQ(stats.batches, batches);
}

TEST(IteratorStatsTest, IvfIteratorVisitsOnlyProbedLists) {
  auto data = MakeClusteredVectors(kN, kDim, 16, 223);
  auto ids = SequentialIds(kN);
  IvfOptions opts;
  opts.nlist = 16;
  IvfFlatIndex index(kDim, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), kN).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), kN).ok());
  SearchParams p;
  p.k = 10;
  p.nprobe = 2;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  auto first = iter->Next(10);
  ASSERT_FALSE(first.empty());
  size_t after_one_window = iter->GetStats().rows_visited;
  // ~2 of 16 lists scanned: far less than the whole index.
  EXPECT_LT(after_one_window, kN / 2);
  // Draining deeper extends the probe schedule instead of rescanning.
  DrainIterator(iter.get(), 200, kN);
  SearchIterator::Stats stats = iter->GetStats();
  EXPECT_EQ(stats.rows_visited, kN);  // every row's distance computed once
  EXPECT_EQ(stats.recompute_rounds, 0u);
}

}  // namespace
}  // namespace blendhouse::vecindex
