// The radio chain's outputs, pinned by value.
//
// ReplayKernelTable.McsTablesMatchScalar checks the derived MCS tables
// against the table functions of radio/mcs.h they are read from.
// ReplayKernelPin.* assert a literal FNV-1a of the bit patterns the
// kernel returns over dense grids (CQI boundaries and sweep, the MCS
// tables, path loss, and 43,440 PHY-rate rows), so any change to a
// returned value fails here. The UE steps only through these functions;
// the per-dataset pins in tests/contract_pins.h pin the whole chain end
// to end.
#include <gtest/gtest.h>

#include "core/fnv1a.h"
#include "radio/band.h"
#include "radio/kernel.h"
#include "radio/mcs.h"
#include "radio/pathloss.h"
#include "radio/phy_rate.h"

namespace wheels::radio {
namespace {

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

TEST(ReplayKernelPin, CqiTable) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  Fnv1a h;
  for (int c = 1; c <= kMaxCqi; ++c) {
    const double t = cqi_sinr_threshold(c).value;
    for (double s : {t - 1e-9, t, t + 1e-9}) {
      h.u64(static_cast<std::uint64_t>(cqi_from_sinr_table(dp, s)));
    }
  }
  for (double s = -30.0; s <= 60.0; s += 0.0625) {
    h.u64(static_cast<std::uint64_t>(cqi_from_sinr_table(dp, s)));
  }
  EXPECT_EQ(h.digest(), 0x654a431d4c7a2de3ull);
}

TEST(ReplayKernelPin, McsTables) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  Fnv1a h;
  for (int mcs : dp.mcs_for_cqi) h.u64(static_cast<std::uint64_t>(mcs));
  for (double e : dp.mcs_efficiency) h.f64(e);
  for (double t : dp.mcs_threshold_db) h.f64(t);
  EXPECT_EQ(h.digest(), 0x76f32e362b3577d6ull);
}

TEST(ReplayKernelPin, Pathloss) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  Fnv1a h;
  for (Tech tech : kAllTechs) {
    for (Environment env :
         {Environment::Urban, Environment::Suburban, Environment::Rural}) {
      for (double d = 1.0; d <= 30'000.0; d *= 1.37) {
        h.f64(cached_pathloss_db(dp.band(tech), env, d));
      }
    }
  }
  EXPECT_EQ(h.digest(), 0x7b899c3566e6c167ull);
}

TEST(ReplayKernelPin, PhyRate) {
  const DerivedPlan dp = derive_plan(default_band_plan());
  Fnv1a h;
  std::size_t rows = 0;
  for (Tech tech : kAllTechs) {
    for (Direction dir : {Direction::Downlink, Direction::Uplink}) {
      for (int cc = 1; cc <= 4; ++cc) {
        for (double prb : {0.02, 0.3, 1.0}) {
          for (double s = -12.0; s <= 35.0; s += 0.13) {
            const PhyRateResult r =
                cached_phy_rate(dp, dp.band(tech), dir, Db{s}, cc, prb);
            h.f64(r.rate.value);
            h.u64(static_cast<std::uint64_t>(r.mcs));
            h.f64(r.bler);
            h.u64(static_cast<std::uint64_t>(r.num_cc));
            ++rows;
          }
        }
      }
    }
  }
  EXPECT_EQ(rows, 43'440u);
  EXPECT_EQ(h.digest(), 0x3ccb522eeade7490ull);
}

}  // namespace
}  // namespace wheels::radio
