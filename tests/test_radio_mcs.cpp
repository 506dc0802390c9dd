#include <gtest/gtest.h>

#include "radio/kernel.h"
#include "radio/mcs.h"

namespace wheels::radio {
namespace {

// The drive's CQI selection over the default plan's tables.
int cqi_from_sinr(double sinr_db) {
  static const DerivedPlan dp = derive_plan(default_band_plan());
  return cqi_from_sinr_table(dp, sinr_db);
}

// The drive's residual BLER for transmitting `mcs` at `sinr_db`.
double bler(int mcs, double sinr_db) {
  return bler_at_gap(sinr_db - mcs_sinr_threshold(mcs).value);
}

TEST(Cqi, OutOfRangeIsZero) {
  EXPECT_EQ(cqi_from_sinr(-20.0), 0);
  EXPECT_DOUBLE_EQ(cqi_spectral_efficiency(0), 0.0);
}

TEST(Cqi, SaturatesAtMax) {
  EXPECT_EQ(cqi_from_sinr(40.0), kMaxCqi);
  EXPECT_EQ(cqi_from_sinr(100.0), kMaxCqi);
}

TEST(Cqi, DecodeThresholdIsInclusive) {
  // A SINR exactly at CQI c's threshold decodes c; just below, c - 1.
  for (int c = 1; c <= kMaxCqi; ++c) {
    const double t = cqi_sinr_threshold(c).value;
    EXPECT_EQ(cqi_from_sinr(t - 1e-9), c - 1) << c;
    EXPECT_EQ(cqi_from_sinr(t), c) << c;
    EXPECT_EQ(cqi_from_sinr(t + 1e-9), c) << c;
  }
}

TEST(Cqi, MonotoneInSinr) {
  int prev = 0;
  for (double s = -10.0; s <= 30.0; s += 0.5) {
    const int c = cqi_from_sinr(s);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Cqi, EfficiencyTableMatches3gpp) {
  EXPECT_NEAR(cqi_spectral_efficiency(1), 0.1523, 1e-4);
  EXPECT_NEAR(cqi_spectral_efficiency(7), 1.4766, 1e-4);
  EXPECT_NEAR(cqi_spectral_efficiency(15), 5.5547, 1e-4);
}

TEST(Cqi, EfficiencyMonotone) {
  for (int c = 1; c <= kMaxCqi; ++c) {
    EXPECT_GT(cqi_spectral_efficiency(c), cqi_spectral_efficiency(c - 1));
  }
}

TEST(Mcs, MappingEndpoints) {
  EXPECT_EQ(mcs_from_cqi(0), 0);
  EXPECT_EQ(mcs_from_cqi(1), 0);
  EXPECT_EQ(mcs_from_cqi(15), kMaxMcs);
}

TEST(Mcs, MappingMonotone) {
  int prev = -1;
  for (int c = 1; c <= kMaxCqi; ++c) {
    const int m = mcs_from_cqi(c);
    EXPECT_GE(m, prev);
    EXPECT_GE(m, 0);
    EXPECT_LE(m, kMaxMcs);
    prev = m;
  }
}

TEST(Mcs, EfficiencyMonotoneAndBracketedByCqiTable) {
  double prev = -1.0;
  for (int m = 0; m <= kMaxMcs; ++m) {
    const double e = mcs_spectral_efficiency(m);
    EXPECT_GE(e, prev);
    EXPECT_GE(e, cqi_spectral_efficiency(1) - 1e-9);
    EXPECT_LE(e, cqi_spectral_efficiency(kMaxCqi) + 1e-9);
    prev = e;
  }
}

TEST(Mcs, ThresholdMonotone) {
  for (int m = 1; m <= kMaxMcs; ++m) {
    EXPECT_GT(mcs_sinr_threshold(m).value, mcs_sinr_threshold(m - 1).value);
  }
}

class BlerWaterfall : public ::testing::TestWithParam<int> {};

TEST_P(BlerWaterfall, FiftyPercentAtThreshold) {
  const int mcs = GetParam();
  const double thr = mcs_sinr_threshold(mcs).value;
  EXPECT_NEAR(bler(mcs, thr), 0.5, 1e-9);
}

TEST_P(BlerWaterfall, TenPercentOneDbAbove) {
  const int mcs = GetParam();
  const double thr = mcs_sinr_threshold(mcs).value;
  EXPECT_NEAR(bler(mcs, thr + 1.0), 0.1, 0.02);
}

TEST_P(BlerWaterfall, MonotoneDecreasingInSinr) {
  const int mcs = GetParam();
  double prev = 1.1;
  for (double s = -20.0; s <= 40.0; s += 1.0) {
    const double b = bler(mcs, s);
    EXPECT_LE(b, prev);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    prev = b;
  }
}

TEST_P(BlerWaterfall, ExtremesSaturate) {
  const int mcs = GetParam();
  EXPECT_GT(bler(mcs, -40.0), 0.999);
  EXPECT_LT(bler(mcs, 60.0), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(McsSweep, BlerWaterfall,
                         ::testing::Values(0, 4, 10, 16, 22, 28));

TEST(Bler, HigherMcsNeedsMoreSinr) {
  // At a fixed SINR, BLER grows with the MCS index.
  const double s = 10.0;
  double prev = -1.0;
  for (int m = 0; m <= kMaxMcs; m += 4) {
    const double b = bler(m, s);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

}  // namespace
}  // namespace wheels::radio
