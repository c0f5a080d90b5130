#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/histogram.h"
#include "common/io.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/threadpool.h"

namespace blendhouse::common {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("segment seg_1");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: segment seg_1");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = [] { return Status::IoError("disk"); };
  auto outer = [&]() -> Status {
    BH_RETURN_IF_ERROR(inner());
    return Status::Ok();
  };
  EXPECT_TRUE(outer().IsIoError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(3);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 3);
}

TEST(BitsetTest, SetTestClear) {
  Bitset b(130);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitsetTest, OutOfRangeTestIsFalse) {
  Bitset b(10);
  EXPECT_FALSE(b.Test(10));
  EXPECT_FALSE(b.Test(1000));
}

TEST(BitsetTest, SetAllRespectsSize) {
  Bitset b(70);
  b.SetAll();
  EXPECT_EQ(b.Count(), 70u);
}

TEST(BitsetTest, InitialAllSet) {
  Bitset b(65, /*initial=*/true);
  EXPECT_EQ(b.Count(), 65u);
  EXPECT_TRUE(b.Test(64));
}

TEST(BitsetTest, AndOr) {
  Bitset a(100), b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  Bitset both = a;
  both.And(b);
  EXPECT_EQ(both.Count(), 1u);
  EXPECT_TRUE(both.Test(50));
  Bitset either = a;
  either.Or(b);
  EXPECT_EQ(either.Count(), 3u);
}

TEST(BitsetTest, AndNot) {
  Bitset a(130, /*initial=*/true);
  Bitset deletes(130);
  deletes.Set(0);
  deletes.Set(64);
  deletes.Set(129);
  a.AndNot(deletes);
  EXPECT_EQ(a.Count(), 127u);
  EXPECT_FALSE(a.Test(0));
  EXPECT_FALSE(a.Test(64));
  EXPECT_FALSE(a.Test(129));
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(128));
}

TEST(BitsetTest, NotRespectsTail) {
  Bitset b(70);
  b.Set(0);
  b.Set(69);
  b.Not();
  EXPECT_EQ(b.Count(), 68u);
  EXPECT_FALSE(b.Test(0));
  EXPECT_FALSE(b.Test(69));
  EXPECT_TRUE(b.Test(1));
  // Bits past size() must stay clear so Count() and word-level consumers
  // agree with Test()'s out-of-range-is-false convention.
  EXPECT_FALSE(b.Test(70));
  b.Not();
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitsetTest, RangedCount) {
  Bitset b(200);
  for (size_t i = 0; i < 200; i += 3) b.Set(i);
  for (size_t begin = 0; begin < 200; begin += 17) {
    for (size_t end = begin; end <= 210; end += 23) {
      size_t expect = 0;
      for (size_t i = begin; i < end && i < 200; ++i)
        if (b.Test(i)) ++expect;
      EXPECT_EQ(b.Count(begin, end), expect) << begin << ":" << end;
    }
  }
  EXPECT_EQ(b.Count(0, 200), b.Count());
  EXPECT_EQ(b.Count(64, 128), b.Count() - b.Count(0, 64) - b.Count(128, 200));
}

TEST(BitsetTest, ForEachSetBit) {
  Bitset b(300);
  std::vector<size_t> expect = {0, 1, 63, 64, 65, 127, 128, 199, 299};
  for (size_t i : expect) b.Set(i);
  std::vector<size_t> got;
  b.ForEachSetBit([&](size_t i) { got.push_back(i); });
  EXPECT_EQ(got, expect);
  Bitset empty(300);
  size_t calls = 0;
  empty.ForEachSetBit([&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

#if !defined(NDEBUG) || defined(BLENDHOUSE_DCHECKS)
TEST(BitsetDeathTest, WordOpsCheckSizes) {
  Bitset a(100), b(90);
  EXPECT_DEATH(a.And(b), "Bitset::And size mismatch");
  EXPECT_DEATH(a.Or(b), "Bitset::Or size mismatch");
  EXPECT_DEATH(a.AndNot(b), "Bitset::AndNot size mismatch");
}
#endif

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(99), 99.01, 0.01);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, PercentileClampsOutOfRangeInputs) {
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.Add(i);
  // p > 100 used to read one past the end; p < 0 wrapped the size_t index.
  EXPECT_DOUBLE_EQ(h.Percentile(150), h.Percentile(100));
  EXPECT_DOUBLE_EQ(h.Percentile(-5), h.Percentile(0));
  EXPECT_DOUBLE_EQ(h.Percentile(100), 10.0);
}

TEST(HistogramTest, MergeAppendsSamples) {
  Histogram a, b;
  for (int i = 1; i <= 50; ++i) a.Add(i);
  for (int i = 51; i <= 100; ++i) b.Add(i);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 100u);
  EXPECT_NEAR(a.Percentile(50), 50.5, 0.01);
  EXPECT_DOUBLE_EQ(a.Max(), 100.0);
}

TEST(BucketedHistogramTest, EmptyPercentileIsZero) {
  BucketedHistogram h({1, 10, 100});
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
  EXPECT_EQ(h.Count(), 0u);
}

TEST(BucketedHistogramTest, PercentileInterpolatesWithinBuckets) {
  BucketedHistogram h({10, 100, 1000});
  for (int i = 0; i < 100; ++i) h.Add(5);     // all in [0, 10)
  EXPECT_GT(h.Percentile(50), 0.0);
  EXPECT_LE(h.Percentile(50), 10.0);
  h.Add(500);  // one sample in (100, 1000]
  EXPECT_LE(h.Percentile(99), 1000.0);
  EXPECT_GT(h.Percentile(99.9), 100.0);
}

TEST(BucketedHistogramTest, OverflowBucketReportsLastBound) {
  BucketedHistogram h({10, 100});
  h.Add(1e9);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 100.0);
  EXPECT_EQ(h.bucket_counts().back(), 1u);
}

TEST(BucketedHistogramTest, MergeMismatchedBoundsIsInvalidArgument) {
  BucketedHistogram a({10, 100});
  BucketedHistogram b({10, 200});
  a.Add(5);
  b.Add(150);
  Status s = a.Merge(b);
  EXPECT_TRUE(s.IsInvalidArgument());
  // The failed merge left the target untouched.
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_DOUBLE_EQ(a.Sum(), 5.0);
}

TEST(BucketedHistogramTest, MergeMatchingBoundsAccumulates) {
  BucketedHistogram a({10, 100});
  BucketedHistogram b({10, 100});
  a.Add(5);
  b.Add(50);
  b.Add(7);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_DOUBLE_EQ(a.Sum(), 62.0);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.Submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, WaitDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SingleThreadRunsTasksInFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i)
    pool.Submit([&order, i] { order.push_back(i); });
  pool.Wait();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(IoTest, RoundTripPodAndVectors) {
  std::string buf;
  BinaryWriter w(&buf);
  w.Write<uint64_t>(77);
  w.WriteString("hello");
  w.WriteVector(std::vector<float>{1.5f, -2.5f});

  BinaryReader r(buf);
  uint64_t x = 0;
  ASSERT_TRUE(r.Read(&x).ok());
  EXPECT_EQ(x, 77u);
  std::string s;
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(s, "hello");
  std::vector<float> v;
  ASSERT_TRUE(r.ReadVector(&v).ok());
  EXPECT_EQ(v, (std::vector<float>{1.5f, -2.5f}));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(IoTest, TruncationIsCorruption) {
  std::string buf;
  BinaryWriter w(&buf);
  w.WriteVector(std::vector<double>{1.0, 2.0, 3.0});
  buf.resize(buf.size() - 4);  // chop the tail

  BinaryReader r(buf);
  std::vector<double> v;
  Status s = r.ReadVector(&v);
  EXPECT_FALSE(s.ok());
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
}

}  // namespace
}  // namespace blendhouse::common
