// Equivalence proofs for the cached KPI math of the replay kernel.
//
// Unit sweeps pin every derived table and cached mirror in
// src/radio/kernel.* to the radio function it was hoisted from, including
// the exact CQI/MCS decision boundaries. The UE steps only through these
// mirrors; the per-dataset pins in tests/contract_pins.h pin the whole
// chain end to end.
#include <gtest/gtest.h>

#include "radio/band.h"
#include "radio/kernel.h"
#include "radio/mcs.h"
#include "radio/pathloss.h"
#include "radio/phy_rate.h"

namespace wheels::radio {
namespace {

TEST(ReplayKernelTable, CqiTableMatchesScalarAtBoundaries) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  // Exactly at, just below and just above every decode threshold: the
  // counting lookup and the scalar max-scan must agree on the >= edge.
  for (int c = 1; c <= kMaxCqi; ++c) {
    const double t = cqi_sinr_threshold(c).value;
    for (double s : {t - 1e-9, t, t + 1e-9}) {
      EXPECT_EQ(cqi_from_sinr_table(dp, s), cqi_from_sinr(Db{s}))
          << "cqi " << c << " sinr " << s;
    }
  }
  // Dense sweep across and beyond the table's range.
  for (double s = -30.0; s <= 60.0; s += 0.0625) {
    ASSERT_EQ(cqi_from_sinr_table(dp, s), cqi_from_sinr(Db{s})) << s;
  }
}

TEST(ReplayKernelTable, McsTablesMatchScalar) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  for (int c = 0; c <= kMaxCqi; ++c) {
    EXPECT_EQ(dp.mcs_for_cqi[static_cast<std::size_t>(c)], mcs_from_cqi(c));
  }
  for (int m = 0; m <= kMaxMcs; ++m) {
    EXPECT_EQ(dp.mcs_efficiency[static_cast<std::size_t>(m)],
              mcs_spectral_efficiency(m));
    EXPECT_EQ(dp.mcs_threshold_db[static_cast<std::size_t>(m)],
              mcs_sinr_threshold(m).value);
  }
}

TEST(ReplayKernelTable, PathlossMatchesScalar) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  for (Tech tech : kAllTechs) {
    const BandProfile& band = default_band_plan().profile(tech);
    const BandDerived& bd = dp.band(tech);
    for (Environment env :
         {Environment::Urban, Environment::Suburban, Environment::Rural}) {
      // Includes distances below the clamp reference.
      for (double d = 1.0; d <= 30'000.0; d *= 1.37) {
        ASSERT_EQ(cached_pathloss_db(bd, env, d),
                  pathloss(band, env, Meters{d}).value)
            << to_string(tech) << " d=" << d;
      }
    }
  }
}

TEST(ReplayKernelTable, PhyRateMatchesScalar) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  for (Tech tech : kAllTechs) {
    const BandProfile& band = default_band_plan().profile(tech);
    const BandDerived& bd = dp.band(tech);
    for (Direction dir : {Direction::Downlink, Direction::Uplink}) {
      for (int cc = 1; cc <= 4; ++cc) {
        for (double prb : {0.02, 0.3, 1.0}) {
          for (double s = -12.0; s <= 35.0; s += 0.13) {
            const PhyRateResult a =
                compute_phy_rate(band, dir, Db{s}, cc, prb);
            const PhyRateResult b =
                cached_phy_rate(dp, bd, dir, Db{s}, cc, prb);
            ASSERT_EQ(a.rate.value, b.rate.value)
                << to_string(tech) << " sinr " << s << " cc " << cc;
            ASSERT_EQ(a.mcs, b.mcs);
            ASSERT_EQ(a.bler, b.bler);
            ASSERT_EQ(a.num_cc, b.num_cc);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wheels::radio
