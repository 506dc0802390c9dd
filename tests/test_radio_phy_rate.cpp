#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "radio/kernel.h"

namespace wheels::radio {
namespace {

const DerivedPlan& plan() {
  static const DerivedPlan dp = derive_plan(default_band_plan());
  return dp;
}

// The drive's PHY rate over the default band plan.
PhyRateResult phy_rate(Tech tech, Direction dir, double sinr_db, int num_cc,
                       double prb_fraction) {
  return cached_phy_rate(plan(), plan().band(tech), dir, Db{sinr_db}, num_cc,
                         prb_fraction);
}

// The drive's link budget over the default band plan's path loss.
double pl_db(Tech tech, Environment env, double distance_m) {
  return cached_pathloss_db(plan().band(tech), env, distance_m);
}
double rsrp_dbm(Tech tech, Environment env, double distance_m, Db shadowing) {
  return rsrp(plan().band(tech), pl_db(tech, env, distance_m), shadowing)
      .value;
}
double sinr_dl_db(Tech tech, Environment env, double distance_m,
                  const ChannelState& ch, Db margin) {
  return sinr_downlink(plan().band(tech), pl_db(tech, env, distance_m), ch,
                       margin)
      .value;
}
double sinr_ul_db(Tech tech, Environment env, double distance_m,
                  const ChannelState& ch, Db margin) {
  return sinr_uplink(plan().band(tech), pl_db(tech, env, distance_m), ch,
                     margin)
      .value;
}

class PhyRateProperties
    : public ::testing::TestWithParam<std::tuple<Tech, Direction>> {};

TEST_P(PhyRateProperties, ZeroBelowDecodeRange) {
  const auto [tech, dir] = GetParam();
  const auto r = phy_rate(tech, dir, -15.0, 1, 1.0);
  EXPECT_DOUBLE_EQ(r.rate.value, 0.0);
  EXPECT_EQ(r.mcs, 0);
}

TEST_P(PhyRateProperties, MonotoneInSinr) {
  const auto [tech, dir] = GetParam();
  double prev = -1.0;
  for (double s = -10.0; s <= 40.0; s += 1.0) {
    const double rate = phy_rate(tech, dir, s, 1, 1.0).rate.value;
    EXPECT_GE(rate, prev - 1e-9) << "sinr=" << s;
    prev = rate;
  }
}

TEST_P(PhyRateProperties, MonotoneInCc) {
  const auto [tech, dir] = GetParam();
  double prev = 0.0;
  const BandProfile& p = default_band_plan().profile(tech);
  const int max_cc = dir == Direction::Downlink ? p.max_cc_dl : p.max_cc_ul;
  for (int cc = 1; cc <= max_cc; ++cc) {
    const double rate = phy_rate(tech, dir, 15.0, cc, 0.3).rate.value;
    EXPECT_GE(rate, prev - 1e-9) << "cc=" << cc;
    prev = rate;
  }
}

TEST_P(PhyRateProperties, ScalesWithPrbFraction) {
  const auto [tech, dir] = GetParam();
  const double half = phy_rate(tech, dir, 15.0, 1, 0.5).rate.value;
  const double full = phy_rate(tech, dir, 15.0, 1, 1.0).rate.value;
  if (full < ue_peak_rate(tech, dir).value - 1e-6) {
    EXPECT_NEAR(half, full / 2.0, full * 0.01);
  } else {
    EXPECT_LE(half, full);
  }
}

TEST_P(PhyRateProperties, NeverExceedsUePeak) {
  const auto [tech, dir] = GetParam();
  const auto r = phy_rate(tech, dir, 60.0, 8, 1.0);
  EXPECT_LE(r.rate.value, ue_peak_rate(tech, dir).value + 1e-9);
}

TEST_P(PhyRateProperties, CcClampedToProfile) {
  const auto [tech, dir] = GetParam();
  const BandProfile& p = default_band_plan().profile(tech);
  const int max_cc = dir == Direction::Downlink ? p.max_cc_dl : p.max_cc_ul;
  const auto r = phy_rate(tech, dir, 20.0, 99, 1.0);
  EXPECT_LE(r.num_cc, max_cc);
  const auto r0 = phy_rate(tech, dir, 20.0, 0, 1.0);
  EXPECT_GE(r0.num_cc, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechDir, PhyRateProperties,
    ::testing::Combine(::testing::ValuesIn(kAllTechs),
                       ::testing::Values(Direction::Downlink,
                                         Direction::Uplink)));

TEST(PhyRate, MmwavePeakNearUeCapability) {
  // Samsung S21 class: ~3.5 Gbps DL over 8CC mmWave at high SINR.
  const auto r = phy_rate(Tech::NR_MMWAVE, Direction::Downlink, 35.0, 8, 1.0);
  EXPECT_NEAR(r.rate.value, 3500.0, 1.0);
}

TEST(PhyRate, TechnologyOrderingAtGoodSinr) {
  // At the same SINR/PRB share, wider technologies are faster.
  const double lte =
      phy_rate(Tech::LTE, Direction::Downlink, 20.0, 1, 0.5).rate.value;
  const double mid =
      phy_rate(Tech::NR_MID, Direction::Downlink, 20.0, 1, 0.5).rate.value;
  const double mmw =
      phy_rate(Tech::NR_MMWAVE, Direction::Downlink, 20.0, 4, 0.5).rate.value;
  EXPECT_LT(lte, mid);
  EXPECT_LT(mid, mmw);
}

TEST(PhyRate, ResidualBlerNearTargetAfterAdaptation) {
  // The 1 dB scheduler backoff should land the primary carrier's BLER in
  // the vicinity of the 10% operating point (quantization makes it vary).
  for (double s = 5.0; s <= 25.0; s += 2.0) {
    const auto r = phy_rate(Tech::LTE_A, Direction::Downlink, s, 1, 1.0);
    EXPECT_LT(r.bler, 0.55) << "sinr=" << s;
  }
}

TEST(LinkBudget, RsrpDecreasesWithDistance) {
  double prev = 1e9;
  for (double d = 50.0; d <= 5'000.0; d *= 2.0) {
    const double r = rsrp_dbm(Tech::LTE_A, Environment::Suburban, d, Db{0.0});
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(LinkBudget, RsrpInPlausibleRange) {
  // Near cell: strong; far: weak. Typical measured range -60..-125 dBm.
  const double near =
      rsrp_dbm(Tech::LTE_A, Environment::Urban, 100.0, Db{0.0});
  const double far =
      rsrp_dbm(Tech::LTE_A, Environment::Urban, 3'000.0, Db{0.0});
  EXPECT_GT(near, -85.0);
  EXPECT_LT(near, -35.0);
  EXPECT_GT(far, -135.0);
  EXPECT_LT(far, -90.0);
}

TEST(LinkBudget, ShadowingReducesRsrpBlockageOnlySinr) {
  // RSRP carries shadowing; blockage hits the data channel's SINR.
  ChannelState clean;
  ChannelState shadowed;
  shadowed.shadowing = Db{8.0};
  shadowed.blockage_loss = Db{25.0};
  const Environment env = Environment::Urban;
  EXPECT_NEAR(rsrp_dbm(Tech::NR_MMWAVE, env, 100.0, clean.shadowing) -
                  rsrp_dbm(Tech::NR_MMWAVE, env, 100.0, shadowed.shadowing),
              8.0, 1e-9);
  EXPECT_NEAR(sinr_dl_db(Tech::NR_MMWAVE, env, 100.0, clean, Db{0.0}) -
                  sinr_dl_db(Tech::NR_MMWAVE, env, 100.0, shadowed, Db{0.0}),
              33.0, 1e-9);
}

TEST(LinkBudget, InterferenceMarginReducesSinr) {
  ChannelState ch;
  const double clean =
      sinr_dl_db(Tech::NR_MID, Environment::Urban, 500.0, ch, Db{0.0});
  const double loaded =
      sinr_dl_db(Tech::NR_MID, Environment::Urban, 500.0, ch, Db{15.0});
  EXPECT_NEAR(clean - loaded, 15.0, 1e-9);
}

TEST(LinkBudget, PerReTermsScaleWithBandwidth) {
  // SNR is taken per resource element: the noise is that of one 15 kHz
  // subcarrier at a 9 dB noise figure, and a carrier's power is spread
  // over its subcarriers, so ten times the bandwidth is 10 dB less per RE
  // on either link, and the same SNR as a wideband budget would give.
  EXPECT_NEAR(kNoisePerRe.value, -174.0 + 10.0 * std::log10(15e3) + 9.0,
              0.01);
  BandProfile narrow = default_band_plan().profile(Tech::LTE);
  narrow.cc_bandwidth_dl = MHz{10.0};
  narrow.cc_bandwidth_ul = MHz{10.0};
  BandProfile wide = narrow;
  wide.cc_bandwidth_dl = MHz{100.0};
  wide.cc_bandwidth_ul = MHz{100.0};
  EXPECT_NEAR(per_re_power_dl(narrow).value - per_re_power_dl(wide).value,
              10.0, 1e-9);
  EXPECT_NEAR(per_re_power_ul(narrow).value - per_re_power_ul(wide).value,
              10.0, 1e-9);
  // 43 dBm over the 666.7 subcarriers of 10 MHz: 43 - 28.24 dBm per RE,
  // against the wideband noise of 10 MHz, -174 + 70 + 9 = -95 dBm.
  EXPECT_NEAR(per_re_power_dl(narrow).value - kNoisePerRe.value,
              narrow.tx_power_dl.value - (-95.0), 0.01);
}

TEST(LinkBudget, UplinkWeakerThanDownlinkAtRange) {
  // The UE's 23 dBm cannot match the BS at distance: UL SINR < DL SINR.
  ChannelState ch;
  for (Tech t : kAllTechs) {
    const double dl = sinr_dl_db(t, Environment::Rural, 2'000.0, ch, Db{5.0});
    const double ul = sinr_ul_db(t, Environment::Rural, 2'000.0, ch, Db{5.0});
    EXPECT_LT(ul, dl) << to_string(t);
  }
}

}  // namespace
}  // namespace wheels::radio
