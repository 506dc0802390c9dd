// trip/trajectory: the record half of record/replay. The recorded points
// must be exactly the points the sequential campaign loop would have seen
// (same TripSimulator fork, same schedule, same slot sizes), and the
// segment index must tile the point array in schedule order — replay
// correctness reduces to these two properties. The replay half reads the
// points through fill_batch, the one batch fill the drive replay, the app
// campaign's idle gaps and the multipath printer share: its rows must be
// the points, and a UE stepped through it must see what point steps see.
#include "trip/trajectory.h"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ran/kernel.h"
#include "ran/ue.h"
#include "trip/campaign.h"
#include "trip/region.h"
#include "trip/route.h"
#include "trip/world.h"

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

TEST(Trajectory, ResolveIsTheRecordersPointContext) {
  // The public resolve() is what the recorder stores: a fresh trip on the
  // same stream, advanced through the first test and the gap after it
  // (slot and idle steps), resolves to the recorded points exactly.
  const CampaignConfig cfg = test_cfg();
  TripUnderTest recorded(cfg);
  const Trajectory traj = record_trajectory(recorded.trip, recorded.corridor,
                                            cfg);
  TripUnderTest fresh(cfg);
  ASSERT_GE(traj.segments.size(), std::size_t{2});
  for (std::size_t s = 0; s < 2; ++s) {
    const TrajectorySegment& seg = traj.segments[s];
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      const TrajectoryPoint pt =
          resolve(fresh.trip.advance(seg.slot), fresh.corridor);
      ASSERT_EQ(pt, traj.points[i]) << "point " << i;
      const ran::CorridorSegment& here = fresh.corridor.at(pt.position);
      ASSERT_EQ(pt.tz, here.tz) << "point " << i;
      ASSERT_EQ(pt.env, here.env) << "point " << i;
    }
  }
}

// The paper-default drive recorded in its World, whose deployments and
// profiles the fill reads.
struct WorldDrive {
  CampaignConfig cfg = test_cfg();
  World world{cfg.spec, cfg.seed};
  Trajectory traj;

  WorldDrive() {
    const Rng& root = world.rng();
    TripSimulator trip(world.route(), world.corridor(), root.fork("trip"),
                       drive_from_spec(cfg.spec));
    traj = record_trajectory(trip, world.corridor(), cfg);
  }
};

TEST(Trajectory, FillBatchRowsAreThePointsAndTheirNearestCells) {
  // Sixteen 256-row runs spread over the drive, then a 17-row one, all
  // through one reused batch (a phone's scratch, and the short last run
  // of an idle gap). Every row holds its point's columns and the cells a
  // one-row fill (a point step's own batch) finds for that point alone.
  const WorldDrive d;
  const std::span<const TrajectoryPoint> points(d.traj.points);
  ASSERT_GT(points.size(), std::size_t{16 * 256});
  std::vector<std::span<const TrajectoryPoint>> runs;
  for (std::size_t k = 0; k < 16; ++k) {
    runs.push_back(points.subspan(k * (points.size() / 16), 256));
  }
  runs.push_back(points.last(17));

  for (const ran::OperatorId op : ran::kAllOperators) {
    const ran::Deployment& dep = d.world.deployment(op);
    const ran::OperatorProfile& prof = d.world.profile(op);
    ran::SegmentBatch batch;
    ran::SegmentBatch one;
    std::size_t lte_rows = 0;
    for (const std::span<const TrajectoryPoint> run : runs) {
      fill_batch(run, dep, prof, batch);
      ASSERT_EQ(batch.size(), run.size());
      for (std::size_t r = 0; r < run.size(); ++r) {
        const TrajectoryPoint& pt = run[r];
        ASSERT_EQ(batch.pos_m[r], pt.position.value) << "row " << r;
        ASSERT_EQ(batch.speed_mph[r], pt.speed.value) << "row " << r;
        ASSERT_EQ(batch.env[r], pt.env) << "row " << r;
        ASSERT_EQ(batch.tz[r], pt.tz) << "row " << r;

        one.resize(1);
        one.pos_m[0] = pt.position.value;
        one.speed_mph[0] = pt.speed.value;
        one.env[0] = pt.env;
        one.tz[0] = pt.tz;
        ran::fill_nearest_cells(dep, prof, one);
        for (std::size_t l = 0; l < batch.layers.size(); ++l) {
          ASSERT_EQ(batch.layers[l].cell[r], one.layers[l].cell[0])
              << ran::to_string(op) << " layer " << l << " row " << r;
          ASSERT_EQ(batch.layers[l].dist_m[r], one.layers[l].dist_m[0])
              << ran::to_string(op) << " layer " << l << " row " << r;
        }
        const auto lte = static_cast<std::size_t>(radio::Tech::LTE);
        if (batch.layers[lte].cell[r] != nullptr) ++lte_rows;
      }
    }
    EXPECT_GT(lte_rows, std::size_t{0}) << ran::to_string(op);
  }
}

TEST(Trajectory, FillBatchStepsLikePointSteps) {
  // Two same-stream UEs over the first 40 segments of the drive, each
  // segment under its test's traffic: one point-stepped at the recorded
  // points, one stepped through fill_batch in runs of up to 256 rows (the
  // app campaign's idle gap shape). Samples and handovers must agree.
  const WorldDrive d;
  const std::span<const TrajectoryPoint> points(d.traj.points);
  const std::size_t segments = std::min<std::size_t>(d.traj.segments.size(),
                                                     40);
  for (const ran::OperatorId op : ran::kAllOperators) {
    const Rng& root = d.world.rng();
    const Rng stream = root.fork("fill-batch-test");
    ran::UeSimulator point = d.world.ue(op, stream, ran::TrafficProfile::Idle);
    ran::UeSimulator batched =
        d.world.ue(op, stream, ran::TrafficProfile::Idle);
    ran::SegmentBatch batch;
    for (std::size_t s = 0; s < segments; ++s) {
      const TrajectorySegment& seg = d.traj.segments[s];
      ran::TrafficProfile traffic = ran::TrafficProfile::Idle;
      if (seg.kind == SegmentKind::BulkDl) {
        traffic = ran::TrafficProfile::BackloggedDl;
      } else if (seg.kind == SegmentKind::BulkUl) {
        traffic = ran::TrafficProfile::BackloggedUl;
      } else if (seg.kind == SegmentKind::Rtt) {
        traffic = ran::TrafficProfile::Interactive;
      }
      point.set_traffic(traffic);
      batched.set_traffic(traffic);
      for (std::size_t begin = seg.begin; begin < seg.end; begin += 256) {
        const std::span<const TrajectoryPoint> run =
            points.subspan(begin, std::min<std::size_t>(256, seg.end - begin));
        fill_batch(run, d.world.deployment(op), d.world.profile(op), batch);
        batched.begin_segment(batch);
        for (std::size_t r = 0; r < run.size(); ++r) {
          const ran::LinkSample a =
              point.step(run[r].time, run[r].position, run[r].speed, seg.slot);
          const ran::LinkSample b = batched.step(run[r].time, seg.slot, batch,
                                                 r);
          ASSERT_TRUE(a == b) << ran::to_string(op) << " point "
                              << begin + r;
        }
      }
    }
    EXPECT_FALSE(point.handovers().empty()) << ran::to_string(op);
    EXPECT_EQ(point.handovers(), batched.handovers()) << ran::to_string(op);
    EXPECT_EQ(point.seen_cells(), batched.seen_cells()) << ran::to_string(op);
  }
}

}  // namespace
}  // namespace wheels::trip
