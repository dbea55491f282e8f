// Unit tests for the support layer: stats, histogram, PRNG, indexed heap,
// bitsets, table printer, error macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "support/bitset.hpp"
#include "support/error.hpp"
#include "support/histogram.hpp"
#include "support/minheap.hpp"
#include "support/prng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace vebo {
namespace {

// ---------------------------------------------------------------- stats

TEST(Stats, SummaryBasics) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.spread(), 5.0);
  EXPECT_DOUBLE_EQ(s.gap(), 4.0);
}

TEST(Stats, SummaryEvenCountMedian) {
  std::vector<double> xs = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(summarize(xs).median, 2.5);
}

TEST(Stats, SummaryEmpty) {
  std::vector<double> xs;
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SummarySingleElement) {
  std::vector<double> xs = {7.5};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, SpreadZeroMin) {
  std::vector<double> xs = {0.0, 5.0};
  EXPECT_DOUBLE_EQ(summarize(xs).spread(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileRejectsBadArgs) {
  std::vector<double> xs = {1.0};
  EXPECT_THROW(percentile(xs, 101), Error);
  EXPECT_THROW(percentile({}, 50), Error);
}

TEST(Stats, CorrelationPerfect) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(correlation(xs, ys), 1.0, 1e-12);
  std::vector<double> zs = {8, 6, 4, 2};
  EXPECT_NEAR(correlation(xs, zs), -1.0, 1e-12);
}

TEST(Stats, CorrelationConstantSeriesIsZero) {
  std::vector<double> xs = {1, 2, 3};
  std::vector<double> ys = {5, 5, 5};
  EXPECT_DOUBLE_EQ(correlation(xs, ys), 0.0);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 7.0);
  }
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, 3.0, 1e-9);
  EXPECT_NEAR(f.intercept, 7.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, LeastSquaresRecoversPlane) {
  // y = 2*x0 - 3*x1 + 0.5*x2 + 4
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  SplitMix64 rng(1);
  for (int i = 0; i < 200; ++i) {
    const double a = static_cast<double>(rng.next() % 1000);
    const double b = static_cast<double>(rng.next() % 1000);
    const double c = static_cast<double>(rng.next() % 1000);
    X.push_back({a, b, c});
    y.push_back(2 * a - 3 * b + 0.5 * c + 4);
  }
  const auto beta = least_squares(X, y);
  ASSERT_EQ(beta.size(), 4u);
  EXPECT_NEAR(beta[0], 2.0, 1e-6);
  EXPECT_NEAR(beta[1], -3.0, 1e-6);
  EXPECT_NEAR(beta[2], 0.5, 1e-6);
  EXPECT_NEAR(beta[3], 4.0, 1e-3);
}

TEST(Stats, LeastSquaresRejectsRagged) {
  std::vector<std::vector<double>> X = {{1, 2}, {1}};
  std::vector<double> y = {1, 2};
  EXPECT_THROW(least_squares(X, y), Error);
}

// ------------------------------------------------------------ histogram

TEST(Histogram, CountsAndFractions) {
  Histogram h;
  h.add(0, 5);
  h.add(3, 2);
  h.add(3);
  EXPECT_EQ(h.total(), 8u);
  EXPECT_EQ(h.count(0), 5u);
  EXPECT_EQ(h.count(3), 3u);
  EXPECT_EQ(h.count(7), 0u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 5.0 / 8.0);
  EXPECT_EQ(h.max_value(), 3u);
  EXPECT_EQ(h.distinct(), 2u);
}

TEST(Histogram, FromSpan) {
  std::vector<std::uint64_t> vals = {1, 1, 2, 9};
  Histogram h(vals);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.max_value(), 9u);
}

TEST(Histogram, PowerlawExponentOnExactData) {
  // counts(k) = C * k^-2 exactly.
  Histogram h;
  for (std::uint64_t k = 1; k <= 64; ++k)
    h.add(k, std::max<std::uint64_t>(1, 1000000 / (k * k)));
  EXPECT_NEAR(h.powerlaw_exponent(1), 2.0, 0.1);
}

TEST(Histogram, RenderProducesRows) {
  Histogram h;
  h.add(1, 10);
  h.add(2, 5);
  const std::string out = h.render();
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(Histogram, GeneralizedHarmonic) {
  EXPECT_NEAR(generalized_harmonic(1, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(generalized_harmonic(3, 1.0), 1.0 + 0.5 + 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(generalized_harmonic(10, 0.0), 10.0, 1e-12);
}

// ----------------------------------------------------------------- prng

TEST(Prng, SplitMixDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, XoshiroDeterministicAndSeedSensitive) {
  Xoshiro256 a(1), b(1), c(2);
  EXPECT_EQ(a(), b());
  Xoshiro256 a2(1);
  bool differs = false;
  for (int i = 0; i < 8; ++i)
    if (a2() != c()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Prng, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Prng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(9);
  double mean = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    mean += d;
  }
  EXPECT_NEAR(mean / 10000.0, 0.5, 0.02);
}

// ---------------------------------------------------------------- heap

TEST(MinHeap, InitialTopIsLowestKey) {
  IndexedMinHeap<4> h(5);
  EXPECT_EQ(h.top(), 0u);  // all priorities 0, tie -> lowest key
}

TEST(MinHeap, IncreaseMovesMin) {
  IndexedMinHeap<4> h(3);
  h.increase(0, 10);
  EXPECT_EQ(h.top(), 1u);
  h.increase(1, 5);
  EXPECT_EQ(h.top(), 2u);
  h.increase(2, 20);
  EXPECT_EQ(h.top(), 1u);  // priorities: 10, 5, 20
  EXPECT_TRUE(h.valid());
}

TEST(MinHeap, VeboUsagePattern) {
  // Simulate VEBO phase 1: always add to the min; totals must stay within
  // the largest item of each other.
  IndexedMinHeap<4> h(7);
  std::vector<std::uint64_t> sizes;
  for (int i = 200; i > 0; --i) sizes.push_back(i % 13 + 1);
  std::sort(sizes.rbegin(), sizes.rend());
  for (auto s : sizes) h.increase(h.top(), s);
  std::uint64_t lo = ~0ULL, hi = 0;
  for (std::size_t p = 0; p < 7; ++p) {
    lo = std::min(lo, h.priority(p));
    hi = std::max(hi, h.priority(p));
  }
  EXPECT_LE(hi - lo, 13u);
  EXPECT_TRUE(h.valid());
}

TEST(MinHeap, PopDrainsInPriorityOrder) {
  IndexedMinHeap<2> h(6);
  const std::uint64_t prios[] = {5, 3, 8, 1, 9, 3};
  for (std::size_t i = 0; i < 6; ++i) h.update(i, prios[i]);
  std::vector<std::uint64_t> seen;
  while (!h.empty()) seen.push_back(prios[h.pop()]);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(MinHeap, UpdateDownAndUp) {
  IndexedMinHeap<4> h(4);
  h.update(0, 100);
  h.update(1, 50);
  h.update(2, 75);
  h.update(3, 60);
  EXPECT_EQ(h.top(), 1u);
  h.update(1, 200);  // push down
  EXPECT_EQ(h.top(), 3u);
  h.update(0, 1);  // pull up
  EXPECT_EQ(h.top(), 0u);
  EXPECT_TRUE(h.valid());
}

TEST(MinHeap, RandomizedAgainstLinearScan) {
  IndexedMinHeap<4> h(31);
  std::vector<std::uint64_t> ref(31, 0);
  Xoshiro256 rng(3);
  for (int step = 0; step < 2000; ++step) {
    const std::size_t k = rng.next_below(31);
    const std::uint64_t p = rng.next_below(1000);
    h.update(k, p);
    ref[k] = p;
    // Expected argmin with lowest-key tie break.
    std::size_t best = 0;
    for (std::size_t i = 1; i < 31; ++i)
      if (ref[i] < ref[best]) best = i;
    ASSERT_EQ(h.top(), best) << "step " << step;
  }
  EXPECT_TRUE(h.valid());
}

// --------------------------------------------------------------- bitset

TEST(Bitset, SetGetClearCount) {
  DynamicBitset b(130);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(64));
  EXPECT_TRUE(b.get(129));
  EXPECT_FALSE(b.get(1));
  EXPECT_EQ(b.count(), 3u);
  b.clear(64);
  EXPECT_FALSE(b.get(64));
  EXPECT_EQ(b.count(), 2u);
  b.reset();
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitset, AllOnesConstructionTrimsTail) {
  DynamicBitset b(70, true);
  EXPECT_EQ(b.count(), 70u);
}

TEST(AtomicBitset, SetReportsFirstFlip) {
  AtomicBitset b(100);
  EXPECT_TRUE(b.set(42));
  EXPECT_FALSE(b.set(42));
  EXPECT_TRUE(b.get(42));
  EXPECT_EQ(b.count(), 1u);
  b.reset();
  EXPECT_EQ(b.count(), 0u);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsAndCounts) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", Table::num(1.5, 1)});
  t.add_row({"b", Table::num(std::size_t{42})});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

// ---------------------------------------------------------------- error

TEST(Error, CheckThrowsWithContext) {
  try {
    VEBO_CHECK(false, "the message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
  }
}

TEST(Error, AssertThrows) { EXPECT_THROW(VEBO_ASSERT(1 == 2), Error); }

// ---------------------------------------------------------------- timer

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GT(t.elapsed(), 0.0);
  EXPECT_GE(t.elapsed_ms(), t.elapsed());  // ms >= s numerically
}

TEST(Timer, ScopedAccumulatorAdds) {
  double sink = 0.0;
  {
    ScopedAccumulator acc(sink);
    volatile double x = 0;
    for (int i = 0; i < 10000; ++i) x = x + i;
  }
  EXPECT_GT(sink, 0.0);
}

// ------------------------------------------ histogram quantiles / merge

TEST(HistogramQuantile, EmptyReturnsZero) {
  Histogram h;
  EXPECT_EQ(h.value_at_quantile(0.0), 0u);
  EXPECT_EQ(h.value_at_quantile(0.5), 0u);
  EXPECT_EQ(h.value_at_quantile(1.0), 0u);
}

TEST(HistogramQuantile, SingleSampleIsEveryQuantile) {
  Histogram h;
  h.add(42);
  EXPECT_EQ(h.value_at_quantile(0.0), 42u);
  EXPECT_EQ(h.value_at_quantile(0.5), 42u);
  EXPECT_EQ(h.value_at_quantile(0.99), 42u);
  EXPECT_EQ(h.value_at_quantile(1.0), 42u);
}

TEST(HistogramQuantile, SaturatedSingleBin) {
  // Every sample in one bin: any quantile names that bin, and out-of-range
  // q is clamped rather than misindexed.
  Histogram h;
  h.add(7, 1'000'000);
  EXPECT_EQ(h.value_at_quantile(-3.0), 7u);
  EXPECT_EQ(h.value_at_quantile(0.5), 7u);
  EXPECT_EQ(h.value_at_quantile(7.0), 7u);
}

TEST(HistogramQuantile, NearestRankOnUniform) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.value_at_quantile(0.50), 50u);
  EXPECT_EQ(h.value_at_quantile(0.95), 95u);
  EXPECT_EQ(h.value_at_quantile(1.0), 100u);
  EXPECT_EQ(h.value_at_quantile(0.0), 1u);  // rank clamps up to 1
}

TEST(HistogramMerge, MatchesUnionOfSamples) {
  // merge() must be exactly the histogram of the concatenated samples.
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> all;
  Histogram merged;
  for (int part = 0; part < 5; ++part) {
    Histogram h;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t v = rng.next_below(1000);
      h.add(v);
      all.push_back(v);
    }
    merged.merge(h);
  }
  const Histogram direct(all);
  EXPECT_EQ(merged.total(), direct.total());
  EXPECT_EQ(merged.max_value(), direct.max_value());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0})
    EXPECT_EQ(merged.value_at_quantile(q), direct.value_at_quantile(q)) << q;
}

TEST(HistogramMerge, EmptyCasesAreNoOps) {
  Histogram a, b;
  a.merge(b);  // empty += empty
  EXPECT_EQ(a.total(), 0u);
  b.add(3);
  a.merge(b);  // empty += non-empty
  EXPECT_EQ(a.total(), 1u);
  EXPECT_EQ(a.count(3), 1u);
  a.merge(Histogram{});  // non-empty += empty
  EXPECT_EQ(a.total(), 1u);
}

TEST(HistogramMerge, QuantilePreservationBounds) {
  // The merged nearest-rank quantile can never leave the interval
  // spanned by the parts' own quantiles (it is a weighted compromise).
  Histogram low, high;
  for (std::uint64_t v = 0; v < 100; ++v) low.add(v);        // [0, 100)
  for (std::uint64_t v = 500; v < 600; ++v) high.add(v);     // [500, 600)
  Histogram merged = low;
  merged.merge(high);
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const std::uint64_t lo = low.value_at_quantile(q);
    const std::uint64_t hi = high.value_at_quantile(q);
    const std::uint64_t m = merged.value_at_quantile(q);
    EXPECT_GE(m, std::min(lo, hi)) << q;
    EXPECT_LE(m, std::max(lo, hi)) << q;
  }
  // And the merged median sits exactly at the seam of the two parts.
  EXPECT_EQ(merged.value_at_quantile(0.5), 99u);
}

// --------------------------------------------------- windowed histogram

TEST(WindowedHistogram, EmptyRotationIsHarmless) {
  WindowedHistogram w(4);
  for (int i = 0; i < 20; ++i) w.rotate();  // rotate far past capacity
  EXPECT_EQ(w.total(), 0u);
  EXPECT_EQ(w.merged().total(), 0u);
  w.add(5);  // still usable after the idle spin
  EXPECT_EQ(w.total(), 1u);
  EXPECT_EQ(w.merged().value_at_quantile(0.5), 5u);
}

TEST(WindowedHistogram, SingleSampleWindow) {
  WindowedHistogram w(3);
  w.add(42);
  EXPECT_EQ(w.total(), 1u);
  // The lone sample answers every quantile, exactly like Histogram.
  for (double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_EQ(w.merged().value_at_quantile(q), 42u);
  // It survives sub_windows-1 rotations, then ages out on the one that
  // reclaims its slot.
  w.rotate();
  w.rotate();
  EXPECT_EQ(w.total(), 1u);
  w.rotate();
  EXPECT_EQ(w.total(), 0u);
  EXPECT_EQ(w.merged().value_at_quantile(0.5), 0u);
}

TEST(WindowedHistogram, FullWrapEvictsOldestFirst) {
  // One distinct value per sub-window; each rotation past full must
  // evict exactly the oldest value, never a newer one.
  WindowedHistogram w(4);
  for (std::uint64_t v = 1; v <= 4; ++v) {
    w.add(v * 10);
    if (v < 4) w.rotate();
  }
  EXPECT_EQ(w.total(), 4u);
  for (std::uint64_t v = 5; v <= 10; ++v) {
    w.rotate();
    w.add(v * 10);
    EXPECT_EQ(w.total(), 4u) << v;
    Histogram m = w.merged();
    EXPECT_EQ(m.count((v - 4) * 10), 0u) << v;  // oldest gone
    EXPECT_EQ(m.count((v - 3) * 10), 1u) << v;  // next-oldest retained
    EXPECT_EQ(m.count(v * 10), 1u) << v;        // newest present
  }
}

TEST(WindowedHistogram, MergedMatchesFlatHistogramOverLiveWindow) {
  // Quantile consistency: merged() over the live sub-windows must equal
  // a flat Histogram fed the same still-live samples, at every quantile.
  Xoshiro256 rng(17);
  WindowedHistogram w(5);
  std::vector<std::vector<std::uint64_t>> per_slot;
  for (int slot = 0; slot < 12; ++slot) {  // wraps the 5-slot ring twice
    if (slot != 0) w.rotate();
    per_slot.emplace_back();
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t v = rng.next_below(2000);
      w.add(v);
      per_slot.back().push_back(v);
    }
  }
  Histogram flat;
  for (std::size_t s = per_slot.size() - 5; s < per_slot.size(); ++s)
    for (std::uint64_t v : per_slot[s]) flat.add(v);
  const Histogram m = w.merged();
  EXPECT_EQ(m.total(), flat.total());
  EXPECT_EQ(w.total(), flat.total());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0})
    EXPECT_EQ(m.value_at_quantile(q), flat.value_at_quantile(q)) << q;
}

TEST(WindowedHistogram, ClearResetsEverything) {
  WindowedHistogram w(3);
  w.add(1, 10);
  w.rotate();
  w.add(2, 5);
  EXPECT_EQ(w.total(), 15u);
  w.clear();
  EXPECT_EQ(w.total(), 0u);
  EXPECT_EQ(w.merged().total(), 0u);
  w.add(9);
  EXPECT_EQ(w.merged().value_at_quantile(1.0), 9u);
}

}  // namespace
}  // namespace vebo
