#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "core/stats.h"

namespace wheels {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 4.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_DOUBLE_EQ(rs.cv_percent(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.cv_percent(), 0.0);
}

TEST(RunningStats, EmptyExtremaAreNaN) {
  // An empty window has no extrema; a silent 0.0 used to poison
  // downstream min/max aggregation.
  RunningStats rs;
  EXPECT_TRUE(std::isnan(rs.min()));
  EXPECT_TRUE(std::isnan(rs.max()));
  rs.add(-3.0);
  EXPECT_DOUBLE_EQ(rs.min(), -3.0);
  EXPECT_DOUBLE_EQ(rs.max(), -3.0);
}

TEST(RunningStats, MergeEmptyKeepsExtremaNaN) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_TRUE(std::isnan(a.min()));
  EXPECT_TRUE(std::isnan(a.max()));
  b.add(2.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 2.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(1);
  RunningStats all, a, b;
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copy
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, KnownValues) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 12.5), 1.5);  // interpolation
}

TEST(Percentile, UnsortedInput) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Percentile, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(percentile(std::vector<double>{}, 50.0)));
  EXPECT_TRUE(std::isnan(median(std::vector<double>{})));
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 99.0), 7.0);
}

TEST(Percentile, NanInputsAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(percentile(std::vector<double>{1.0, nan, 3.0}, 50.0)));
  EXPECT_TRUE(std::isnan(percentile(std::vector<double>{1.0, 2.0}, nan)));
}

TEST(Percentiles, EqualOneRankAtATimeBitForBit) {
  Rng rng(11);
  std::vector<double> v(1'001);
  for (auto& x : v) x = rng.lognormal(2.0, 1.5);
  constexpr std::array kRanks{0.0,  10.0, 25.0,  50.0, 75.0,
                              90.0, 99.0, 100.0, -5.0, 150.0};
  std::array<double, kRanks.size()> out{};
  percentiles(v, kRanks, out);
  for (std::size_t i = 0; i < kRanks.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(percentile(v, kRanks[i])))
        << "p" << kRanks[i];
  }
}

TEST(Percentiles, EmptyOrNanInputGivesNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double out[2] = {0.0, 0.0};
  percentiles(std::vector<double>{}, std::array{50.0, 90.0}, out);
  EXPECT_TRUE(std::isnan(out[0]) && std::isnan(out[1]));
  percentiles(std::vector<double>{1.0, nan}, std::array{50.0, 90.0}, out);
  EXPECT_TRUE(std::isnan(out[0]) && std::isnan(out[1]));
  // A NaN rank is NaN on its own; the other ranks are unaffected.
  percentiles(std::vector<double>{1.0, 3.0}, std::array{nan, 50.0}, out);
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_DOUBLE_EQ(out[1], 2.0);
}

TEST(Percentiles, RejectsAnOutputOfTheWrongSize) {
  double out[1] = {0.0};
  EXPECT_THROW(percentiles(std::vector<double>{1.0}, std::array{50.0, 90.0},
                           out),
               std::invalid_argument);
}

TEST(ApproxEqual, ToleratesRoundoffButNotRealDifferences) {
  EXPECT_TRUE(approx_equal(0.1 + 0.2, 0.3));
  EXPECT_TRUE(approx_equal(1e12, 1e12 * (1.0 + 1e-12)));
  EXPECT_FALSE(approx_equal(1.0, 1.0001));
  EXPECT_FALSE(approx_equal(0.0, 1e-3));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(approx_equal(nan, nan));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(approx_equal(inf, inf));
  EXPECT_FALSE(approx_equal(inf, -inf));
  EXPECT_TRUE(approx_zero(0.0));
  EXPECT_TRUE(approx_zero(-1e-12));
  EXPECT_FALSE(approx_zero(1e-3));
}

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5}, y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> yn{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
}

TEST(Pearson, IndependentNearZero) {
  Rng rng(2);
  std::vector<double> x(20'000), y(20'000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Pearson, DegenerateInputs) {
  std::vector<double> x{1, 1, 1}, y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);  // zero variance
  std::vector<double> one{1.0};
  EXPECT_DOUBLE_EQ(pearson(one, one), 0.0);  // too few points
}

TEST(Pearson, InvariantToAffineTransform) {
  Rng rng(3);
  std::vector<double> x(1'000), y(1'000), y2(1'000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = 0.7 * x[i] + rng.normal();
    y2[i] = 100.0 + 42.0 * y[i];
  }
  EXPECT_NEAR(pearson(x, y), pearson(x, y2), 1e-12);
}

TEST(EmpiricalCdf, BasicProperties) {
  EmpiricalCdf cdf({3.0, 1.0, 2.0, 2.0});
  EXPECT_EQ(cdf.count(), 4u);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
}

TEST(EmpiricalCdf, QuantileMonotone) {
  Rng rng(4);
  std::vector<double> v(5'000);
  for (auto& x : v) x = rng.normal(0.0, 5.0);
  EmpiricalCdf cdf(std::move(v));
  double prev = cdf.quantile(0.0);
  for (double p = 0.05; p <= 1.0; p += 0.05) {
    const double q = cdf.quantile(p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(EmpiricalCdf, QuantileEqualsPercentileBitForBit) {
  Rng rng(12);
  std::vector<double> v(777);
  for (auto& x : v) x = rng.normal(10.0, 4.0);
  const EmpiricalCdf cdf(v);
  for (double p = 0.0; p <= 1.0; p += 0.01) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cdf.quantile(p)),
              std::bit_cast<std::uint64_t>(percentile(v, p * 100.0)))
        << "p=" << p;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(cdf.quantile(nan)));
  EXPECT_TRUE(std::isnan(EmpiricalCdf().quantile(0.5)));
  EXPECT_TRUE(std::isnan(EmpiricalCdf({1.0, nan, 3.0}).quantile(0.5)));
}

TEST(EmpiricalCdf, CurveShape) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0, 5.0});
  const auto curve = cdf.curve(5);
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve.front().p, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().p, 1.0);
  EXPECT_DOUBLE_EQ(curve.front().x, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().x, 5.0);
}

TEST(EmpiricalCdf, EmptyIsSafe) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
  EXPECT_TRUE(cdf.curve().empty());
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);   // bin 0
  h.add(3.0);   // bin 1
  h.add(-5.0);  // clamps to bin 0
  h.add(99.0);  // clamps to bin 4
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(10.0, 0.0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace wheels
