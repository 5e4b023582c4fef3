#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/atomic_file.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/math.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/strings.h"
#include "util/table.h"

namespace lmkg::util {
namespace {

// --- check ------------------------------------------------------------------

TEST(CheckTest, PassingCheckDoesNothing) {
  LMKG_CHECK(true) << "never printed";
  LMKG_CHECK_EQ(1, 1);
  LMKG_CHECK_LT(1, 2);
  LMKG_CHECK_GE(2, 2);
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(LMKG_CHECK(false) << "boom", "LMKG_CHECK failed");
  EXPECT_DEATH(LMKG_CHECK_EQ(1, 2), "1 vs 2");
}

// --- random -----------------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Pcg32 a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 5);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, UniformIntBounds) {
  Pcg32 rng(7);
  std::set<uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint32_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit in 1000 draws
}

TEST(RandomTest, UniformIntIsRoughlyUniform) {
  Pcg32 rng(11);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(8)];
  for (int c : counts) {
    EXPECT_GT(c, n / 8 * 0.9);
    EXPECT_LT(c, n / 8 * 1.1);
  }
}

TEST(RandomTest, UniformInt64Range) {
  Pcg32 rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, GaussianMoments) {
  Pcg32 rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RandomTest, BernoulliFrequency) {
  Pcg32 rng(17);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (rng.Bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RandomTest, ShufflePreservesElements) {
  Pcg32 rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ZipfTest, PmfSumsToOneAndDecreases) {
  ZipfDistribution zipf(100, 1.1);
  double sum = 0.0;
  for (size_t k = 0; k < 100; ++k) sum += zipf.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(50));
}

TEST(ZipfTest, SampleMatchesPmf) {
  ZipfDistribution zipf(10, 1.0);
  Pcg32 rng(23);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (size_t k = 0; k < 10; ++k)
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.Pmf(k), 0.01);
}

TEST(DiscreteDistributionTest, RespectsWeights) {
  DiscreteDistribution dist({1.0, 0.0, 3.0});
  Pcg32 rng(29);
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[dist.Sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(DiscreteDistributionDeathTest, AllZeroWeightsAbort) {
  EXPECT_DEATH(DiscreteDistribution({0.0, 0.0}), "all weights zero");
}

// --- math -------------------------------------------------------------------

TEST(MathTest, QErrorBasics) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(20, 10), 2.0);
  EXPECT_DOUBLE_EQ(QError(10, 20), 2.0);
  // Floored at 1 on both sides (empty results do not divide by zero).
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.5, 5), 5.0);
}

TEST(MathTest, Log2Ceil) {
  EXPECT_EQ(Log2Ceil(1), 0);
  EXPECT_EQ(Log2Ceil(2), 1);
  EXPECT_EQ(Log2Ceil(3), 2);
  EXPECT_EQ(Log2Ceil(4), 2);
  EXPECT_EQ(Log2Ceil(5), 3);
  EXPECT_EQ(Log2Ceil(1024), 10);
  EXPECT_EQ(Log2Ceil(1025), 11);
}

class BinaryBitsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinaryBitsTest, EncodingFitsAllIdsAndReservesZero) {
  uint64_t domain = GetParam();
  int bits = BinaryEncodingBits(domain);
  // Every id in [1, domain] must fit.
  EXPECT_LT(domain, (1ULL << bits));
  // The paper's formula: ceil(log2 d) + 1.
  if (domain > 1) {
    EXPECT_EQ(bits, Log2Ceil(domain) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, BinaryBitsTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 100,
                                           171, 1000, 76000, 12000000));

TEST(MathTest, Percentile) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(MathTest, QErrorStats) {
  QErrorStats stats = QErrorStats::Compute({1, 2, 4, 8});
  EXPECT_DOUBLE_EQ(stats.mean, 3.75);
  EXPECT_DOUBLE_EQ(stats.max, 8.0);
  EXPECT_DOUBLE_EQ(stats.median, 3.0);
  EXPECT_NEAR(stats.geometric_mean, std::pow(64.0, 0.25), 1e-9);
  EXPECT_EQ(stats.count, 4u);
}

TEST(MathTest, QErrorStatsEmpty) {
  QErrorStats stats = QErrorStats::Compute({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
}

TEST(MathTest, ScalerRoundTrip) {
  LogMinMaxScaler scaler;
  scaler.Fit({1, 10, 100, 1000});
  for (double c : {1.0, 5.0, 42.0, 999.0, 1000.0}) {
    double y = scaler.Scale(c);
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
    EXPECT_NEAR(scaler.Unscale(y), c, c * 1e-6);
  }
}

TEST(MathTest, ScalerClampsOutOfRange) {
  LogMinMaxScaler scaler;
  scaler.Fit({10, 100});
  EXPECT_DOUBLE_EQ(scaler.Scale(1), 0.0);
  EXPECT_DOUBLE_EQ(scaler.Scale(100000), 1.0);
  EXPECT_NEAR(scaler.Unscale(0.0), 10.0, 1e-6);
  EXPECT_NEAR(scaler.Unscale(1.0), 100.0, 1e-4);
}

class BucketTest : public ::testing::TestWithParam<int> {};

TEST_P(BucketTest, BoundariesAreExact) {
  int bucket = GetParam();
  double lo = BucketLowerBound(bucket);
  EXPECT_EQ(ResultSizeBucket(lo), bucket);
  EXPECT_EQ(ResultSizeBucket(lo * 4.999), bucket);
  if (bucket > 0) {
    EXPECT_EQ(ResultSizeBucket(lo - 0.5), bucket - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Buckets, BucketTest, ::testing::Range(0, 10));

// --- strings ----------------------------------------------------------------

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','),
            (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("a,,c", ',', /*skip_empty=*/true),
            (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, JoinTrimPrefixes) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(4 << 20), "4.0 MB");
}

// --- table ------------------------------------------------------------------

TEST(TableTest, PrintsAlignedRows) {
  TablePrinter table("t");
  table.SetHeader({"a", "bbb"});
  table.AddRow({"1", "2"});
  table.AddRow("row", {1.0, 2.5});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("== t =="), std::string::npos);
  EXPECT_NE(out.find("bbb"), std::string::npos);
  EXPECT_NE(out.find("row"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, Csv) {
  TablePrinter table;
  table.SetHeader({"x", "y"});
  table.AddRow({"1", "2"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(TableTest, FormatValue) {
  EXPECT_EQ(FormatValue(1.0), "1");
  EXPECT_EQ(FormatValue(2.5), "2.500");
  EXPECT_EQ(FormatValue(1e7), "1.00e+07");
}

// --- flags ------------------------------------------------------------------

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--a=1", "--b", "2",
                        "pos",  "--c",   "--d=x y"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("a", 0), 1);
  EXPECT_EQ(flags.GetInt("b", 0), 2);
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_EQ(flags.GetString("d", ""), "x y");
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos");
}

TEST(FlagsTest, DoubleAndDefaults) {
  const char* argv[] = {"prog", "--x=2.5"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0), 2.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("y", 1.5), 1.5);
  EXPECT_FALSE(flags.Has("y"));
}

// --- latency histogram ------------------------------------------------------

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(h.PercentileUs(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.MeanUs(), 0.0);
  EXPECT_DOUBLE_EQ(h.MaxUs(), 0.0);
}

TEST(LatencyHistogramTest, PercentilesWithinBucketResolution) {
  LatencyHistogram h;
  // 1000 samples spread uniformly over [10us, 1000us): every reported
  // percentile must land within one geometric bucket (ratio 10^(1/12)
  // ~ 1.21) of the true value.
  for (int i = 0; i < 1000; ++i) h.Record(10.0 + i * 0.99);
  EXPECT_EQ(h.TotalCount(), 1000u);
  const double ratio = std::pow(10.0, 1.0 / 12.0);
  struct Case {
    double p;
    double want;
  } cases[] = {{0.50, 505.0}, {0.95, 950.5}, {0.99, 990.1}};
  for (const auto& c : cases) {
    const double got = h.PercentileUs(c.p);
    EXPECT_GT(got, c.want / (ratio * ratio)) << "p=" << c.p;
    EXPECT_LT(got, c.want * ratio * ratio) << "p=" << c.p;
  }
  EXPECT_NEAR(h.MeanUs(), 504.5, 1.0);
  EXPECT_NEAR(h.MaxUs(), 999.01, 0.01);
}

TEST(LatencyHistogramTest, SubMicrosecondPercentilesResolve) {
  // The cached-hit path completes in tens to hundreds of nanoseconds; a
  // histogram floored at 1us would pin every such p50 at the bottom
  // bucket's midpoint. The sub-microsecond decades must resolve these
  // samples with the same one-bucket guarantee as the rest of the range.
  const double ratio = std::pow(10.0, 1.0 / 12.0);
  for (const double us : {0.05, 0.2, 0.8}) {
    LatencyHistogram h;
    for (int i = 0; i < 100; ++i) h.Record(us);
    const double got = h.PercentileUs(0.5);
    EXPECT_GT(got, us / ratio) << "us=" << us;
    EXPECT_LT(got, us * ratio) << "us=" << us;
  }
  // Two clusters a decade apart below 1us must not collapse into one
  // bucket: the p25 sits in the fast cluster, the p75 in the slow one.
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(0.05);
  for (int i = 0; i < 100; ++i) h.Record(0.5);
  EXPECT_LT(h.PercentileUs(0.25), 0.1);
  EXPECT_GT(h.PercentileUs(0.75), 0.3);
  EXPECT_NEAR(h.MeanUs(), 0.275, 0.01);
}

TEST(LatencyHistogramTest, OutOfRangeSamplesClampToEdgeBuckets) {
  LatencyHistogram h;
  h.Record(0.001);   // 1 nanosecond (below the 10ns floor) -> bucket 0
  h.Record(1e9);     // 1000 seconds -> last bucket
  EXPECT_EQ(h.TotalCount(), 2u);
  EXPECT_LT(h.PercentileUs(0.0), 0.02);
  EXPECT_GT(h.PercentileUs(1.0), 1e7);
  EXPECT_NEAR(h.MaxUs(), 1e9, 1.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 20000; ++i) h.Record(1.0 + t);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(h.TotalCount(), 80000u);
}

TEST(LatencyHistogramTest, ResetClearsEverything) {
  LatencyHistogram h;
  h.Record(42.0);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(h.MaxUs(), 0.0);
}

TEST(LatencyHistogramTest, MergeEqualsSingleHistogramOfBothStreams) {
  // The defining property of MergeFrom: merging B into A must report
  // exactly what one histogram that recorded both streams reports —
  // count, every percentile, mean, and max.
  LatencyHistogram a, b, both;
  for (int i = 0; i < 300; ++i) {
    const double fast = 5.0 + i * 0.1;    // [5us, 35us)
    const double slow = 200.0 + i * 2.0;  // [200us, 800us)
    a.Record(fast);
    both.Record(fast);
    b.Record(slow);
    both.Record(slow);
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.TotalCount(), both.TotalCount());
  for (const double p : {0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(a.PercentileUs(p), both.PercentileUs(p)) << "p=" << p;
  EXPECT_DOUBLE_EQ(a.MeanUs(), both.MeanUs());
  EXPECT_DOUBLE_EQ(a.MaxUs(), both.MaxUs());
}

TEST(LatencyHistogramTest, MergeAtBucketBoundariesPreservesBucketing) {
  // Samples sitting exactly on geometric bucket edges (powers of the
  // ratio 10^(1/12)) are the worst case for any merge that re-derived
  // bucket indices: a sample must land in the SAME bucket whether it
  // was recorded directly or arrived via MergeFrom. Percentile equality
  // at every probe is only possible if the bucket-wise addition
  // preserved each sample's bucket exactly.
  const double ratio = std::pow(10.0, 1.0 / 12.0);
  LatencyHistogram merged, direct;
  double edge = 0.01;  // the 10ns lower edge of bucket 0
  for (int i = 0; i < 120; ++i, edge *= ratio) {
    LatencyHistogram piece;
    piece.Record(edge);
    piece.Record(edge * 1.0000001);  // just inside the same bucket
    direct.Record(edge);
    direct.Record(edge * 1.0000001);
    merged.MergeFrom(piece);
  }
  EXPECT_EQ(merged.TotalCount(), direct.TotalCount());
  for (double p = 0.0; p <= 1.0; p += 0.01)
    EXPECT_DOUBLE_EQ(merged.PercentileUs(p), direct.PercentileUs(p))
        << "p=" << p;
  EXPECT_DOUBLE_EQ(merged.MaxUs(), direct.MaxUs());
}

TEST(LatencyHistogramTest, MergeEdgeCases) {
  // Empty-into-empty, empty-into-full, full-into-empty, and the
  // clamped edge buckets (sub-10ns floor, >80s ceiling).
  LatencyHistogram empty_dst, full;
  full.Record(0.001);  // below the 10ns floor -> bucket 0
  full.Record(1e9);    // 1000 seconds -> last bucket
  LatencyHistogram still_empty;
  empty_dst.MergeFrom(still_empty);
  EXPECT_EQ(empty_dst.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(empty_dst.PercentileUs(0.5), 0.0);
  empty_dst.MergeFrom(full);
  EXPECT_EQ(empty_dst.TotalCount(), 2u);
  EXPECT_LT(empty_dst.PercentileUs(0.0), 0.02);
  EXPECT_GT(empty_dst.PercentileUs(1.0), 1e7);
  EXPECT_NEAR(empty_dst.MaxUs(), 1e9, 1.0);
  // Merging into a populated destination accumulates, never replaces.
  LatencyHistogram more;
  more.Record(1e9);
  empty_dst.MergeFrom(more);
  EXPECT_EQ(empty_dst.TotalCount(), 3u);
  EXPECT_NEAR(empty_dst.MaxUs(), 1e9, 1.0);
}

TEST(LatencyHistogramTest, MergeWhileSourceRecordsStaysSane) {
  // The shard-rollup scenario: MergeFrom snapshots a histogram that
  // other threads keep recording into (TSan covers the access safety).
  // The merged view may lag, but every probe must stay inside the
  // sampled range with monotone percentiles — the total-before-buckets
  // read order in MergeFrom keeps merged-total <= merged-bucket-sum, so
  // a rank never walks off the buckets into the MaxUs fallback.
  LatencyHistogram source;
  std::atomic<bool> stop{false};
  std::thread recorder([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed))
      source.Record(1.0 + static_cast<double>(i++ % 100));
  });
  for (int round = 0; round < 200; ++round) {
    LatencyHistogram rollup;
    rollup.MergeFrom(source);
    if (rollup.TotalCount() == 0) continue;
    const double p50 = rollup.PercentileUs(0.50);
    const double p99 = rollup.PercentileUs(0.99);
    const double p100 = rollup.PercentileUs(1.0);
    EXPECT_GT(p50, 0.5);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p100 * 1.3);  // within one bucket of the top
    EXPECT_LT(p100, 150.0);      // all samples lie in [1us, 101us)
  }
  stop.store(true, std::memory_order_relaxed);
  recorder.join();
}

// --- crc32 -------------------------------------------------------------------

TEST(Crc32Test, KnownAnswer) {
  // The CRC-32/ISO-HDLC check value every implementation must produce.
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(data, 0), 0u);
}

TEST(Crc32Test, ChainingMatchesOneShot) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  const size_t n = sizeof(data) - 1;
  const uint32_t whole = Crc32(data, n);
  for (size_t split : {size_t{1}, n / 3, n / 2, n - 1}) {
    const uint32_t head = Crc32(data, split);
    EXPECT_EQ(Crc32(data + split, n - split, head), whole) << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<char>(i * 7);
  const uint32_t clean = Crc32(data.data(), data.size());
  data[100] ^= 0x10;
  EXPECT_NE(Crc32(data.data(), data.size()), clean);
}

// --- atomic file writes ------------------------------------------------------

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lmkg_atomic_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    path_ = dir_ + "/target.bin";
  }
  void TearDown() override {
    ::unlink(path_.c_str());
    ::rmdir(dir_.c_str());
  }

  std::string dir_;
  std::string path_;
};

TEST_F(AtomicFileTest, WriteThenReadRoundTrips) {
  std::string contents = "hello\0world";
  contents.resize(11);  // embedded NUL survives
  ASSERT_TRUE(WriteFileAtomic(path_, contents).ok());
  std::string read_back;
  ASSERT_TRUE(ReadFile(path_, &read_back).ok());
  EXPECT_EQ(read_back, contents);
}

TEST_F(AtomicFileTest, ReplacesExistingContents) {
  ASSERT_TRUE(WriteFileAtomic(path_, "old old old").ok());
  ASSERT_TRUE(WriteFileAtomic(path_, "new").ok());
  std::string read_back;
  ASSERT_TRUE(ReadFile(path_, &read_back).ok());
  EXPECT_EQ(read_back, "new");
}

TEST_F(AtomicFileTest, SerializeCallbackWrites) {
  ASSERT_TRUE(WriteFileAtomic(path_, [](std::ostream& out) {
                out << "streamed " << 42;
                return Status::Ok();
              }).ok());
  std::string read_back;
  ASSERT_TRUE(ReadFile(path_, &read_back).ok());
  EXPECT_EQ(read_back, "streamed 42");
}

TEST_F(AtomicFileTest, FailedSerializeLeavesTargetUntouched) {
  ASSERT_TRUE(WriteFileAtomic(path_, "precious").ok());
  Status status = WriteFileAtomic(path_, [](std::ostream&) {
    return Status::Error("serialization exploded");
  });
  EXPECT_FALSE(status.ok());
  std::string read_back;
  ASSERT_TRUE(ReadFile(path_, &read_back).ok());
  EXPECT_EQ(read_back, "precious");  // the old bytes, not a torn file
}

TEST_F(AtomicFileTest, UnwritableDirectoryFailsWithoutTarget) {
  Status status = WriteFileAtomic(dir_ + "/no/such/dir/f", "x");
  EXPECT_FALSE(status.ok());
  std::string read_back;
  EXPECT_FALSE(ReadFile(dir_ + "/no/such/dir/f", &read_back).ok());
}

TEST_F(AtomicFileTest, ReadMissingFileFails) {
  std::string read_back;
  EXPECT_FALSE(ReadFile(path_, &read_back).ok());
}

// --- mutex / condvar wrappers ------------------------------------------------

TEST(MutexTest, TryLockContendsAcrossThreadsAndAdoptGuardReleases) {
  Mutex mu;
  bool acquired = false;
  const auto probe = [&] {
    // Probe from ANOTHER thread: try_lock on a mutex the calling thread
    // already holds is undefined, so contention must be cross-thread.
    if (mu.TryLock()) {
      acquired = true;
      mu.Unlock();
    } else {
      acquired = false;
    }
  };
  {
    ASSERT_TRUE(mu.TryLock());
    MutexLock lock(&mu, kAdoptLock);  // the try-lock adopt idiom
    std::thread t(probe);
    t.join();
    EXPECT_FALSE(acquired);  // held by the adopted guard
  }
  std::thread t(probe);
  t.join();
  EXPECT_TRUE(acquired);  // the guard's destructor released it
}

TEST(MutexTest, MidScopeUnlockRelockReleasesExactlyOnce) {
  Mutex mu;
  bool acquired = false;
  const auto probe = [&] {
    if (mu.TryLock()) {
      acquired = true;
      mu.Unlock();
    } else {
      acquired = false;
    }
  };
  {
    MutexLock lock(&mu);
    lock.Unlock();
    std::thread t1(probe);
    t1.join();
    EXPECT_TRUE(acquired);  // free during the unlocked window
    lock.Lock();
    // Destructor must release the reacquired lock exactly once.
  }
  std::thread t2(probe);
  t2.join();
  EXPECT_TRUE(acquired);
}

TEST(CondVarTest, WaitWakesOnNotifyWithManualPredicateLoop) {
  Mutex mu;
  CondVar cv;
  bool ready = false;  // mu-guarded by convention (locals are unchecked)
  std::thread signaler([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(&mu);
    // The manual loop around the plain Wait — the pattern guarded
    // predicates must use (see util/mutex.h on the lambda restriction).
    while (!ready) cv.Wait(mu);
  }
  signaler.join();
}

TEST(CondVarTest, WaitForTimesOutWithPredicateStillFalse) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  EXPECT_FALSE(
      cv.WaitFor(mu, std::chrono::milliseconds(5), [] { return false; }));
}

TEST(CondVarTest, WaitUntilReturnsOnceAtomicPredicateHolds) {
  Mutex mu;
  CondVar cv;
  std::atomic<bool> flag{false};
  std::thread signaler([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    flag.store(true, std::memory_order_release);
    MutexLock lock(&mu);
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    // Generous deadline: the return must come from the notify.
    EXPECT_TRUE(cv.WaitUntil(
        mu, std::chrono::steady_clock::now() + std::chrono::seconds(10),
        [&] { return flag.load(std::memory_order_acquire); }));
  }
  signaler.join();
}

}  // namespace
}  // namespace lmkg::util
