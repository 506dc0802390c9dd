// trip/trajectory: the record half of record/replay. The recorded points
// must be exactly the points the sequential campaign loop would have seen
// (same TripSimulator fork, same schedule, same slot sizes), and the
// segment index must tile the point array in schedule order — replay
// correctness reduces to these two properties.
#include "trip/trajectory.h"

#include <vector>

#include <gtest/gtest.h>

#include "trip/campaign.h"
#include "trip/region.h"
#include "trip/route.h"

namespace wheels::trip {
namespace {

// Keep the unit test fast: one active cycle per 64 is plenty to cover
// every segment kind while most of the drive advances at the idle step.
CampaignConfig test_cfg() {
  CampaignConfig cfg;
  cfg.seed = 42;
  cfg.cycle_stride = 64;
  return cfg;
}

// The campaign's trip stream: Rng(seed).fork("corridor") builds the
// corridor, .fork("trip") drives the vehicle (mirrors the Campaign ctor).
struct TripUnderTest {
  Route route = Route::cross_country();
  Rng rng;
  ran::Corridor corridor;
  TripSimulator trip;

  explicit TripUnderTest(const CampaignConfig& cfg)
      : rng(cfg.seed),
        corridor(build_corridor(route, rng.fork("corridor"))),
        trip(route, corridor, rng.fork("trip"), drive_from_spec(cfg.spec)) {}
};

// Transcription of the sequential campaign loop (pre-record/replay): the
// reference the recorder must reproduce point for point.
std::vector<TrajectoryPoint> sequential_walk(TripUnderTest& t,
                                             const CampaignConfig& cfg) {
  std::vector<TrajectoryPoint> pts;
  const auto advance_for = [&](Millis duration, Millis step) {
    Millis elapsed{0.0};
    while (elapsed.value < duration.value && !t.trip.finished()) {
      const TripPoint pt = t.trip.advance(step);
      elapsed += step;
      const auto& c = t.corridor.at(pt.position);
      pts.push_back({pt.time, pt.position, pt.speed, pt.day, c.tz, c.env});
    }
  };
  const scenario::TimingSpec& timing = cfg.spec.timing;
  const Millis slot{timing.slot_ms};
  const Millis tput{timing.tput_test_ms};
  const Millis rtt{timing.rtt_test_ms};
  const Millis gap{timing.gap_ms};
  const Millis cycle{2.0 * tput.value + rtt.value + 3.0 * gap.value};
  int cycle_no = 0;
  while (!t.trip.finished()) {
    if (cfg.cycle_stride > 1 && (cycle_no % cfg.cycle_stride) != 0) {
      advance_for(cycle, kIdleStep);
    } else {
      advance_for(tput, slot);
      advance_for(gap, kIdleStep);
      advance_for(tput, slot);
      advance_for(gap, kIdleStep);
      advance_for(rtt, slot);
      advance_for(gap, kIdleStep);
    }
    ++cycle_no;
  }
  return pts;
}

TEST(Trajectory, RecordedPointsMatchSequentialWalk) {
  const CampaignConfig cfg = test_cfg();
  TripUnderTest recorded(cfg);
  const Trajectory traj = record_trajectory(recorded.trip, recorded.corridor,
                                            cfg);

  TripUnderTest reference(cfg);
  const std::vector<TrajectoryPoint> expected =
      sequential_walk(reference, cfg);

  ASSERT_EQ(traj.points.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(traj.points[i], expected[i]) << "point " << i;
  }
  EXPECT_EQ(traj.total_drive_time.value,
            reference.trip.total_drive_time().value);
  EXPECT_EQ(traj.days, reference.trip.current().day);
  EXPECT_GE(traj.days, 7);
  EXPECT_LE(traj.days, 12);
}

TEST(Trajectory, SegmentsTileThePointsInScheduleOrder) {
  const CampaignConfig cfg = test_cfg();
  TripUnderTest t(cfg);
  const Trajectory traj = record_trajectory(t.trip, t.corridor, cfg);

  // Contiguous tiling: every point belongs to exactly one segment.
  ASSERT_FALSE(traj.segments.empty());
  EXPECT_EQ(traj.segments.front().begin, 0u);
  for (std::size_t s = 1; s < traj.segments.size(); ++s) {
    EXPECT_EQ(traj.segments[s].begin, traj.segments[s - 1].end)
        << "segment " << s;
  }
  EXPECT_EQ(traj.segments.back().end, traj.points.size());

  // The first cycle is active: DL, gap, UL, gap, RTT, gap with the
  // configured slot sizes and durations, then stride-1 fast-forwards.
  const auto slots = [&](std::size_t s) {
    return traj.segments[s].end - traj.segments[s].begin;
  };
  ASSERT_GE(traj.segments.size(), std::size_t{7});
  EXPECT_EQ(traj.segments[0].kind, SegmentKind::BulkDl);
  EXPECT_EQ(traj.segments[0].test_id, 0);
  EXPECT_EQ(traj.segments[0].slot.value, cfg.spec.timing.slot_ms);
  EXPECT_EQ(slots(0), 1500u);  // 30 s / 20 ms
  EXPECT_EQ(traj.segments[1].kind, SegmentKind::Gap);
  EXPECT_EQ(traj.segments[1].test_id, -1);
  EXPECT_EQ(slots(1), 30u);  // 3 s / 100 ms
  EXPECT_EQ(traj.segments[2].kind, SegmentKind::BulkUl);
  EXPECT_EQ(traj.segments[2].test_id, 1);
  EXPECT_EQ(traj.segments[3].kind, SegmentKind::Gap);
  EXPECT_EQ(traj.segments[4].kind, SegmentKind::Rtt);
  EXPECT_EQ(traj.segments[4].test_id, 2);
  EXPECT_EQ(slots(4), 1000u);  // 20 s / 20 ms
  EXPECT_EQ(traj.segments[5].kind, SegmentKind::Gap);
  EXPECT_EQ(traj.segments[6].kind, SegmentKind::FastForward);
  EXPECT_EQ(traj.segments[6].slot.value, kIdleStep.value);
  EXPECT_EQ(slots(6), 890u);  // (60 + 20 + 9) s / 100 ms

  // Each segment's recorded start is the previous segment's last point
  // (the trip state the sequential code sampled before advancing).
  for (std::size_t s = 1; s < traj.segments.size(); ++s) {
    const auto& prev = traj.segments[s - 1];
    if (prev.end == prev.begin) continue;  // empty: start carried over
    ASSERT_EQ(traj.segments[s].start, traj.points[prev.end - 1])
        << "segment " << s;
  }

  // Time is strictly monotonic across the whole drive.
  for (std::size_t i = 1; i < traj.points.size(); ++i) {
    ASSERT_GT(traj.points[i].time.ms_since_epoch,
              traj.points[i - 1].time.ms_since_epoch)
        << "point " << i;
  }
}

}  // namespace
}  // namespace wheels::trip
