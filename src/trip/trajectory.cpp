#include "trip/trajectory.h"

#include "trip/campaign.h"

namespace wheels::trip {
namespace {

// Mirrors the sequential runner's per-segment loop shape exactly: sample the
// start state, then advance while the budget lasts and the trip is not done.
// Empty segments (trip finished mid-cycle) are still recorded because replay
// must mirror their side effects (traffic-profile switches, flow restarts).
void record_segment(Trajectory& out, TripSimulator& trip,
                    const ran::Corridor& corridor, SegmentKind kind,
                    int test_id, Millis slot, Millis duration) {
  TrajectorySegment seg;
  seg.kind = kind;
  seg.test_id = test_id;
  seg.slot = slot;
  seg.start = resolve(trip.current(), corridor);
  seg.begin = out.points.size();
  Millis elapsed{0.0};
  while (elapsed.value < duration.value && !trip.finished()) {
    const TripPoint pt = trip.advance(slot);
    elapsed += slot;
    out.points.push_back(resolve(pt, corridor));
  }
  seg.end = out.points.size();
  out.segments.push_back(seg);
}

}  // namespace

TrajectoryPoint resolve(const TripPoint& pt, const ran::Corridor& corridor) {
  const auto& seg = corridor.at(pt.position);
  return {pt.time, pt.position, pt.speed, pt.day, seg.tz, seg.env};
}

void fill_batch(std::span<const TrajectoryPoint> points,
                const ran::Deployment& dep,
                const ran::OperatorProfile& profile,
                ran::SegmentBatch& batch) {
  batch.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const TrajectoryPoint& pt = points[i];
    batch.pos_m[i] = pt.position.value;
    batch.speed_mph[i] = pt.speed.value;
    batch.env[i] = pt.env;
    batch.tz[i] = pt.tz;
  }
  ran::fill_nearest_cells(dep, profile, batch);
}

Trajectory record_trajectory(TripSimulator& trip, const ran::Corridor& corridor,
                             const CampaignConfig& cfg) {
  Trajectory out;
  const scenario::TimingSpec& t = cfg.spec.timing;
  const Millis slot{t.slot_ms};
  const Millis tput{t.tput_test_ms};
  const Millis rtt{t.rtt_test_ms};
  const Millis gap{t.gap_ms};
  const Millis cycle{2.0 * tput.value + rtt.value + 3.0 * gap.value};
  int cycle_no = 0;
  int test_id = 0;
  while (!trip.finished()) {
    if (cfg.cycle_stride > 1 && (cycle_no % cfg.cycle_stride) != 0) {
      record_segment(out, trip, corridor, SegmentKind::FastForward, -1,
                     kIdleStep, cycle);
    } else {
      record_segment(out, trip, corridor, SegmentKind::BulkDl, test_id++,
                     slot, tput);
      record_segment(out, trip, corridor, SegmentKind::Gap, -1, kIdleStep,
                     gap);
      record_segment(out, trip, corridor, SegmentKind::BulkUl, test_id++,
                     slot, tput);
      record_segment(out, trip, corridor, SegmentKind::Gap, -1, kIdleStep,
                     gap);
      record_segment(out, trip, corridor, SegmentKind::Rtt, test_id++, slot,
                     rtt);
      record_segment(out, trip, corridor, SegmentKind::Gap, -1, kIdleStep,
                     gap);
    }
    ++cycle_no;
  }
  out.total_drive_time = trip.total_drive_time();
  out.days = trip.current().day;
  return out;
}

}  // namespace wheels::trip
