// Deterministic record/replay of the drive trajectory.
//
// The campaign's round-robin test schedule is a pure function of the
// config, and the vehicle's motion is driven by the trip's own forked Rng
// stream -- independent of every per-operator radio/transport process. The
// trajectory pass therefore executes the schedule against TripSimulator
// exactly once (single-threaded, cheap: no UEs, no TCP) and records one
// TrajectoryPoint per simulation slot, grouped into schedule segments.
// Each operator's PhoneSet then replays the recorded points on its own
// worker thread with bit-identical results to the old interleaved loop,
// because every stochastic process a phone touches forks from that
// operator's own streams (the same record-once / replay-concurrently idea
// as the Mahimahi-style network emulators, applied to the drive).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/sim_time.h"
#include "core/units.h"
#include "radio/pathloss.h"
#include "ran/corridor.h"
#include "ran/deployment.h"
#include "ran/kernel.h"
#include "ran/operator_profile.h"
#include "trip/trip_simulator.h"

namespace wheels::trip {

struct CampaignConfig;  // trip/campaign.h (which includes this header)

// What the campaign was doing during a segment of the drive. Bulk and RTT
// segments advance at the scenario's slot; gaps and fast-forwarded cycles
// advance at the coarse idle step.
enum class SegmentKind : std::uint8_t {
  BulkDl,
  BulkUl,
  Rtt,
  Gap,
  FastForward,
};

[[nodiscard]] constexpr std::string_view to_string(SegmentKind k) {
  switch (k) {
    case SegmentKind::BulkDl: return "bulk-dl";
    case SegmentKind::BulkUl: return "bulk-ul";
    case SegmentKind::Rtt: return "rtt";
    case SegmentKind::Gap: return "gap";
    case SegmentKind::FastForward: return "fast-forward";
  }
  return "?";
}

// One recorded simulation slot: the TripPoint TripSimulator produced plus
// the corridor context at that position, pre-resolved so replay workers
// never have to agree on lookup order.
struct TrajectoryPoint {
  SimTime time;
  Meters position{0.0};
  Mph speed{0.0};
  int day = 1;
  TimeZone tz = TimeZone::Pacific;
  radio::Environment env = radio::Environment::Rural;

  friend bool operator==(const TrajectoryPoint&,
                         const TrajectoryPoint&) = default;
};

// One schedule step: `[begin, end)` indexes Trajectory::points; `start` is
// the trip state just before the segment's first advance (the sequential
// code sampled it for server selection and test summaries). A segment can
// be empty when the drive ended mid-cycle.
struct TrajectorySegment {
  SegmentKind kind = SegmentKind::Gap;
  int test_id = -1;  // -1 for gaps and fast-forwarded cycles
  Millis slot{0.0};  // dt between consecutive points of this segment
  TrajectoryPoint start;
  std::size_t begin = 0;
  std::size_t end = 0;

  friend bool operator==(const TrajectorySegment&,
                         const TrajectorySegment&) = default;
};

struct Trajectory {
  std::vector<TrajectorySegment> segments;
  std::vector<TrajectoryPoint> points;
  Millis total_drive_time{0.0};
  int days = 0;

  friend bool operator==(const Trajectory&, const Trajectory&) = default;
};

// The coarse step used while idling between tests (gaps, fast-forward).
inline constexpr Millis kIdleStep{100.0};

// `pt` with the corridor context (timezone, environment) at its position.
[[nodiscard]] TrajectoryPoint resolve(const TripPoint& pt,
                                      const ran::Corridor& corridor);

// The one batch fill from trajectory points: `batch` becomes the
// structure-of-arrays view of `points` (position, speed, environment,
// timezone), then its candidate-cell columns are filled by one monotone
// sweep over `dep` (ran::fill_nearest_cells). A UE consumes it through
// begin_segment + the batched step. The drive replay fills one batch per
// trajectory segment, the app campaign one per run of idle points.
void fill_batch(std::span<const TrajectoryPoint> points,
                const ran::Deployment& dep,
                const ran::OperatorProfile& profile,
                ran::SegmentBatch& batch);

// Execute the full test-cycle schedule of `cfg` (the scenario's timing at
// its cycle stride) against `trip`, recording every slot. Consumes the
// trip (drives it to the end of the route).
[[nodiscard]] Trajectory record_trajectory(TripSimulator& trip,
                                           const ran::Corridor& corridor,
                                           const CampaignConfig& cfg);

}  // namespace wheels::trip
