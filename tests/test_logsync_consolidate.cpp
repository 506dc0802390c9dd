#include <gtest/gtest.h>

#include "logsync/consolidate.h"

namespace wheels::logsync {
namespace {

std::string stamp(double ms, const LogClock& clock) {
  return format_timestamp(SimTime{ms}, clock);
}

TEST(Consolidate, MergesStreamsInTimeOrder) {
  ConsolidatedDb db;
  const LogClock utc{ClockKind::Utc, {}};
  const LogClock edt{ClockKind::FixedEdt, {}};
  const double base = 3.0e8;
  // XCAL stamped EDT, app stamped UTC: interleaved in absolute time.
  const auto xcal = db.add_stream(
      RecordSource::Xcal,
      {stamp(base, edt), stamp(base + 1'000, edt), stamp(base + 2'000, edt)},
      edt);
  const auto app = db.add_stream(
      RecordSource::App, {stamp(base + 500, utc), stamp(base + 1'500, utc)},
      utc);
  db.finalize();

  const auto& rec = db.records();
  ASSERT_EQ(rec.size(), 5u);
  for (std::size_t i = 1; i < rec.size(); ++i) {
    EXPECT_LE(rec[i - 1].time.ms_since_epoch, rec[i].time.ms_since_epoch);
  }
  // Alternating sources despite different clock formats.
  EXPECT_EQ(rec[0].stream, xcal);
  EXPECT_EQ(rec[1].stream, app);
  EXPECT_EQ(rec[2].stream, xcal);
  EXPECT_EQ(rec[3].stream, app);
}

TEST(Consolidate, CorruptLinesAreCountedNotFatal) {
  ConsolidatedDb db;
  const LogClock utc{ClockKind::Utc, {}};
  db.add_stream(RecordSource::Rtt,
                {stamp(1e8, utc), "### corrupt ###", stamp(2e8, utc)}, utc);
  db.finalize();
  EXPECT_EQ(db.records().size(), 2u);
  EXPECT_EQ(db.dropped_records(), 1u);
}

TEST(Consolidate, JoinNearestAcrossClocks) {
  ConsolidatedDb db;
  const LogClock utc{ClockKind::Utc, {}};
  const LogClock pac{ClockKind::Local, TimeZone::Pacific};
  const double base = 4.0e8;
  // XCAL windows every 500 ms; app samples (phone local time!) at 40 ms
  // offset every 1 s.
  std::vector<std::string> xcal_ts, app_ts;
  for (int i = 0; i < 10; ++i) xcal_ts.push_back(stamp(base + 500.0 * i, utc));
  for (int i = 0; i < 5; ++i) {
    app_ts.push_back(stamp(base + 40.0 + 1'000.0 * i, pac));
  }
  const auto xcal = db.add_stream(RecordSource::Xcal, xcal_ts, utc);
  const auto app = db.add_stream(RecordSource::App, app_ts, pac);
  db.finalize();

  const auto join = db.join_nearest(app, xcal, Millis{100.0});
  ASSERT_EQ(join.size(), 5u);
  for (std::size_t i = 0; i < join.size(); ++i) {
    EXPECT_EQ(join[i], static_cast<long>(2 * i));  // every other window
  }
}

TEST(Consolidate, JoinRespectsTolerance) {
  ConsolidatedDb db;
  const LogClock utc{ClockKind::Utc, {}};
  const auto a = db.add_stream(RecordSource::App, {stamp(1'000, utc)}, utc);
  const auto b = db.add_stream(RecordSource::Xcal, {stamp(5'000, utc)}, utc);
  db.finalize();
  const auto join = db.join_nearest(a, b, Millis{100.0});
  ASSERT_EQ(join.size(), 1u);
  EXPECT_EQ(join[0], -1);
}

TEST(Consolidate, UsageErrorsThrow) {
  ConsolidatedDb db;
  EXPECT_THROW(db.join_nearest(0, 1, Millis{1}), std::logic_error);
  db.finalize();
  const LogClock utc{ClockKind::Utc, {}};
  EXPECT_THROW(db.add_stream(RecordSource::App, {}, utc), std::logic_error);
}

}  // namespace
}  // namespace wheels::logsync
