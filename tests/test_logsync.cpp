#include <gtest/gtest.h>

#include "logsync/matcher.h"
#include "logsync/timestamp.h"

namespace wheels::logsync {
namespace {

class TimestampRoundTrip
    : public ::testing::TestWithParam<std::tuple<ClockKind, TimeZone>> {};

TEST_P(TimestampRoundTrip, FormatParseIsIdentity) {
  const auto [kind, tz] = GetParam();
  const LogClock clock{kind, tz};
  for (double ms : {0.0, 3.7e8, 5.1e8 + 250.0}) {
    const SimTime t{ms};
    const std::string text = format_timestamp(t, clock);
    const auto back = parse_timestamp(text, clock);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_NEAR(back->ms_since_epoch, t.ms_since_epoch, 1.0) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClocks, TimestampRoundTrip,
    ::testing::Combine(::testing::Values(ClockKind::Utc, ClockKind::Local,
                                         ClockKind::FixedEdt),
                       ::testing::Values(TimeZone::Pacific,
                                         TimeZone::Mountain,
                                         TimeZone::Central,
                                         TimeZone::Eastern)));

TEST(Timestamp, SameInstantDifferentClocksDifferentStrings) {
  // The core of challenge [C2]: the same event is stamped differently by
  // different log sources.
  const SimTime t{4.0e8};
  const std::string utc = format_timestamp(t, {ClockKind::Utc, {}});
  const std::string edt =
      format_timestamp(t, {ClockKind::FixedEdt, {}});
  const std::string pac =
      format_timestamp(t, {ClockKind::Local, TimeZone::Pacific});
  EXPECT_NE(utc, edt);
  EXPECT_NE(edt, pac);
  // But all three parse back to the same instant.
  EXPECT_NEAR(parse_timestamp(utc, {ClockKind::Utc, {}})->ms_since_epoch,
              parse_timestamp(edt, {ClockKind::FixedEdt, {}})
                  ->ms_since_epoch,
              1.0);
}

TEST(Timestamp, RejectsGarbage) {
  EXPECT_FALSE(parse_timestamp("not a time", {ClockKind::Utc, {}}));
  EXPECT_FALSE(parse_timestamp("2021-08-08 10:00:00.000",
                               {ClockKind::Utc, {}}));  // wrong year
  EXPECT_FALSE(parse_timestamp("2022-09-08 10:00:00.000",
                               {ClockKind::Utc, {}}));  // wrong month
}

TEST(XcalFilename, NamesTheLocalStartTime) {
  // The .drm name carries the start in the vehicle's local time: the same
  // instant (day 5, 20:40 UTC) is an hour earlier in Pacific than in
  // Mountain time.
  const SimTime start{4.2e8};
  EXPECT_EQ(xcal_filename("Verizon", start, TimeZone::Mountain),
            "XCAL_Verizon_2022-08-12_14-40-00.drm");
  EXPECT_EQ(xcal_filename("ATT", start, TimeZone::Pacific),
            "XCAL_ATT_2022-08-12_13-40-00.drm");
}

TEST(Matcher, PicksOverlappingXcalFile) {
  // Three consecutive recordings; the app log sits inside the second.
  std::vector<XcalFile> xcal = {
      {"a.drm", SimTime{0.0}, SimTime{1'800e3}},
      {"b.drm", SimTime{1'800e3}, SimTime{3'600e3}},
      {"c.drm", SimTime{3'600e3}, SimTime{5'400e3}},
  };
  AppLogFile log;
  log.clock = {ClockKind::Utc, {}};
  log.first_record = format_timestamp(SimTime{2'000e3}, log.clock);
  log.last_record = format_timestamp(SimTime{2'500e3}, log.clock);
  const auto idx = match_app_log(log, xcal);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 1u);
}

TEST(Matcher, LocalClockLogStillMatches) {
  // The app stamped local (Central) time while XCAL contents are EDT-based
  // absolute intervals; the matcher normalizes both.
  std::vector<XcalFile> xcal = {
      {"a.drm", SimTime{0.0}, SimTime{1'800e3}},
      {"b.drm", SimTime{1'800e3}, SimTime{3'600e3}},
  };
  AppLogFile log;
  log.clock = {ClockKind::Local, TimeZone::Central};
  log.first_record = format_timestamp(SimTime{600e3}, log.clock);
  log.last_record = format_timestamp(SimTime{900e3}, log.clock);
  const auto idx = match_app_log(log, xcal);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 0u);
}

TEST(Matcher, NoOverlapNoMatch) {
  std::vector<XcalFile> xcal = {{"a.drm", SimTime{0.0}, SimTime{100e3}}};
  AppLogFile log;
  log.clock = {ClockKind::Utc, {}};
  log.first_record = format_timestamp(SimTime{500e3}, log.clock);
  log.last_record = format_timestamp(SimTime{600e3}, log.clock);
  EXPECT_FALSE(match_app_log(log, xcal).has_value());
}

TEST(Matcher, UnparsableLogNoMatch) {
  std::vector<XcalFile> xcal = {{"a.drm", SimTime{0.0}, SimTime{100e3}}};
  AppLogFile log;
  log.clock = {ClockKind::Utc, {}};
  log.first_record = "corrupt";
  log.last_record = "corrupt";
  EXPECT_FALSE(match_app_log(log, xcal).has_value());
}

TEST(AlignTimelines, NearestWithinTolerance) {
  const std::vector<SimTime> left = {SimTime{100.0}, SimTime{600.0},
                                     SimTime{1'200.0}};
  const std::vector<SimTime> right = {SimTime{90.0}, SimTime{590.0},
                                      SimTime{2'000.0}};
  const auto idx = align_timelines(left, right, Millis{50.0});
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 0);
  EXPECT_EQ(idx[1], 1);
  EXPECT_EQ(idx[2], -1);  // 800 ms away: beyond tolerance
}

TEST(AlignTimelines, EmptyInputs) {
  EXPECT_TRUE(align_timelines({}, {SimTime{1.0}}, Millis{5.0}).empty());
  const auto idx = align_timelines({SimTime{1.0}}, {}, Millis{5.0});
  ASSERT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx[0], -1);
}

}  // namespace
}  // namespace wheels::logsync
