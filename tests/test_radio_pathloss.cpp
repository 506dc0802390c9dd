#include <gtest/gtest.h>

#include <tuple>

#include "radio/band.h"
#include "radio/kernel.h"
#include "radio/pathloss.h"

namespace wheels::radio {
namespace {

// The drive's path loss over the default band plan.
double pathloss_db(Tech t, Environment env, double distance_m) {
  static const DerivedPlan dp = derive_plan(default_band_plan());
  return cached_pathloss_db(dp.band(t), env, distance_m);
}

TEST(Band, CatalogSanity) {
  for (Tech t : kAllTechs) {
    const BandProfile& p = default_band_plan().profile(t);
    EXPECT_EQ(p.tech, t);
    EXPECT_GT(p.carrier.value, 0.0);
    EXPECT_GT(p.cc_bandwidth_dl.value, 0.0);
    EXPECT_GE(p.max_cc_dl, 1);
    EXPECT_GE(p.mimo_layers_dl, 1);
    EXPECT_GT(p.typical_range.value, 0.0);
  }
}

TEST(Band, MmwaveIsHighFrequencyShortRange) {
  const auto& mmw = default_band_plan().profile(Tech::NR_MMWAVE);
  const auto& low = default_band_plan().profile(Tech::NR_LOW);
  EXPECT_GT(mmw.carrier.value, 10'000.0);
  EXPECT_LT(low.carrier.value, 1'000.0);
  EXPECT_LT(mmw.typical_range.value, low.typical_range.value);
}

TEST(Pathloss, FreeSpaceKnownValue) {
  // FSPL at 1 km, 2 GHz: ~98.5 dB.
  const Db pl = free_space_pathloss(Meters{1000.0}, MHz{2000.0});
  EXPECT_NEAR(pl.value, 98.5, 0.5);
}

TEST(Pathloss, FreeSpaceFrequencyScaling) {
  const Db a = free_space_pathloss(Meters{500.0}, MHz{700.0});
  const Db b = free_space_pathloss(Meters{500.0}, MHz{7000.0});
  EXPECT_NEAR(b.value - a.value, 20.0, 1e-9);  // 10x frequency = +20 dB
}

class PathlossProperties
    : public ::testing::TestWithParam<std::tuple<Tech, Environment>> {};

TEST_P(PathlossProperties, MonotoneInDistance) {
  const auto [tech, env] = GetParam();
  double prev = pathloss_db(tech, env, 10.0);
  for (double d = 20.0; d <= 20'000.0; d *= 1.5) {
    const double pl = pathloss_db(tech, env, d);
    EXPECT_GT(pl, prev) << "d=" << d;
    prev = pl;
  }
}

TEST_P(PathlossProperties, ExponentInPhysicalRange) {
  const auto [tech, env] = GetParam();
  const double n = pathloss_exponent(tech, env);
  EXPECT_GE(n, 2.0);
  EXPECT_LE(n, 4.5);
}

TEST_P(PathlossProperties, ShadowingSigmaPositiveBounded) {
  const auto [tech, env] = GetParam();
  const double s = shadowing_sigma_db(tech, env);
  EXPECT_GT(s, 0.0);
  EXPECT_LE(s, 12.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechEnv, PathlossProperties,
    ::testing::Combine(::testing::ValuesIn(kAllTechs),
                       ::testing::Values(Environment::Urban,
                                         Environment::Suburban,
                                         Environment::Rural)));

TEST(Pathloss, RuralPropagatesFurtherThanUrban) {
  for (Tech t : kAllTechs) {
    const double urban = pathloss_db(t, Environment::Urban, 2000.0);
    const double rural = pathloss_db(t, Environment::Rural, 2000.0);
    EXPECT_LE(rural, urban) << to_string(t);
  }
}

TEST(Pathloss, MmwaveWorstAtEqualDistance) {
  // Carrier frequency dominates: mmWave loses the most at any distance.
  const double d = 200.0;
  const double mmw = pathloss_db(Tech::NR_MMWAVE, Environment::Urban, d);
  for (Tech t : {Tech::LTE, Tech::LTE_A, Tech::NR_LOW, Tech::NR_MID}) {
    EXPECT_GT(mmw, pathloss_db(t, Environment::Urban, d));
  }
}

TEST(Pathloss, ClampsBelowReferenceDistance) {
  const double at0 = pathloss_db(Tech::LTE, Environment::Urban, 0.0);
  const double at10 = pathloss_db(Tech::LTE, Environment::Urban, 10.0);
  EXPECT_DOUBLE_EQ(at0, at10);
}

}  // namespace
}  // namespace wheels::radio
