#include <gtest/gtest.h>

#include "core/sim_time.h"

namespace wheels {
namespace {

TEST(SimTime, Arithmetic) {
  SimTime t{1000.0};
  t += Millis{500.0};
  EXPECT_DOUBLE_EQ(t.ms_since_epoch, 1500.0);
  EXPECT_DOUBLE_EQ((t + Millis{100.0}).ms_since_epoch, 1600.0);
  EXPECT_DOUBLE_EQ((t - SimTime{1000.0}).value, 500.0);
}

TEST(TimeZone, UtcOffsetsAreDst) {
  EXPECT_EQ(utc_offset_hours(TimeZone::Pacific), -7);
  EXPECT_EQ(utc_offset_hours(TimeZone::Mountain), -6);
  EXPECT_EQ(utc_offset_hours(TimeZone::Central), -5);
  EXPECT_EQ(utc_offset_hours(TimeZone::Eastern), -4);
}

TEST(TimeZone, FromLongitudeAlongRoute) {
  EXPECT_EQ(timezone_from_longitude(-118.24), TimeZone::Pacific);   // LA
  EXPECT_EQ(timezone_from_longitude(-111.89), TimeZone::Mountain);  // SLC
  EXPECT_EQ(timezone_from_longitude(-95.93), TimeZone::Central);    // Omaha
  EXPECT_EQ(timezone_from_longitude(-71.06), TimeZone::Eastern);    // Boston
}

TEST(CivilTime, MidnightUtcEpoch) {
  // Epoch is midnight UTC of day 1; in EDT that is 20:00 of "day 0".
  const CivilTime ct = to_civil(SimTime{0.0}, TimeZone::Eastern);
  EXPECT_EQ(ct.day, 0);
  EXPECT_EQ(ct.hour, 20);
}

class CivilRoundTrip : public ::testing::TestWithParam<TimeZone> {};

TEST_P(CivilRoundTrip, ToCivilFromCivilIsIdentity) {
  const TimeZone tz = GetParam();
  for (double ms : {0.0, 12'345.0, 86'400'000.0, 3.6e8, 5.5e8 + 123.0}) {
    const SimTime t{ms};
    const CivilTime ct = to_civil(t, tz);
    const SimTime back = from_civil(ct, tz);
    EXPECT_NEAR(back.ms_since_epoch, t.ms_since_epoch, 1.0)
        << "tz=" << to_string(tz) << " ms=" << ms;
  }
}

TEST_P(CivilRoundTrip, SameInstantDifferentZonesDifferByOffset) {
  const TimeZone tz = GetParam();
  const SimTime noon_utc{12.0 * 3600.0e3};
  const CivilTime ct = to_civil(noon_utc, tz);
  EXPECT_EQ(ct.hour, 12 + utc_offset_hours(tz));
}

INSTANTIATE_TEST_SUITE_P(AllZones, CivilRoundTrip,
                         ::testing::Values(TimeZone::Pacific,
                                           TimeZone::Mountain,
                                           TimeZone::Central,
                                           TimeZone::Eastern),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(CivilTime, RoundingCarryDoesNotProduce1000ms) {
  // A time 0.9 ms before a second boundary must round without ms == 1000.
  const SimTime t{59'999.6};
  const CivilTime ct = to_civil(t, TimeZone::Eastern);
  EXPECT_LT(ct.millisecond, 1000);
}

}  // namespace
}  // namespace wheels
