// Batched structure-of-arrays replay: per-segment scratch and batch
// preparation for the campaign engine.
//
// The replay loops in campaign.cpp hand each trajectory segment to
// prepare_segment_batch(), which extracts the SoA columns (position,
// speed, pre-resolved environment/timezone) straight out of the recorded
// TrajectoryPoints and fills the per-layer nearest-cell columns with one
// monotone sweep (ran::fill_nearest_cells). UEs then consume the batch via
// ran::UeSimulator::begin_segment + the batched step.
#pragma once

#include <vector>

#include "ran/deployment.h"
#include "ran/kernel.h"
#include "ran/operator_profile.h"
#include "trip/trajectory.h"

namespace wheels::trip {

// Per-PhoneSet scratch, reused across every segment of the replay so the
// hot loop performs no per-segment allocation once warm.
struct ReplayScratch {
  ran::SegmentBatch batch;
  std::vector<double> window_tputs;
  std::vector<double> rtts;
};

// Fill `batch` with the SoA view of `seg` (geometry from the recorded
// points, candidate cells from one sweep over `dep`). Timed into the
// campaign.kernel.* obs counters.
void prepare_segment_batch(const Trajectory& traj, const TrajectorySegment& seg,
                           const ran::Deployment& dep,
                           const ran::OperatorProfile& profile,
                           ran::SegmentBatch& batch);

}  // namespace wheels::trip
