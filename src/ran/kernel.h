// The UE's input rows, RAN half of the KPI chain: the structure-of-arrays
// view of the positions a UE is stepped through.
//
// A SegmentBatch hoists everything about a run of slots that does not
// depend on UE state: per-slot position/speed, the pre-resolved
// environment and timezone, and -- per technology layer -- the nearest
// usable cell with its 2-D distance. A campaign replay fills one batch per
// trajectory segment and shares it between the operator's phones; a point
// step fills the UE's own one-row batch. Candidate cells are a pure
// function of position, so one monotone sweep over the sorted cell list
// serves a whole segment. Everything consuming RNG (shadowing, fading,
// policy draws) stays owned by the UE; the batch is read-only geometry.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/sim_time.h"
#include "radio/pathloss.h"
#include "radio/technology.h"
#include "ran/deployment.h"
#include "ran/operator_profile.h"

namespace wheels::ran {

struct SegmentBatch {
  std::vector<double> pos_m;
  std::vector<double> speed_mph;
  std::vector<radio::Environment> env;
  std::vector<TimeZone> tz;

  struct Layer {
    std::vector<const Cell*> cell;  // nearest usable cell, or nullptr
    std::vector<double> dist_m;     // distance_to(*cell, pos); 0 when null
  };
  std::array<Layer, 5> layers{};  // indexed by Tech

  [[nodiscard]] std::size_t size() const { return pos_m.size(); }
  void resize(std::size_t n);
};

// Fill every layer's candidate-cell columns for the batch positions: per
// row, the cell of the layer nearest in 2-D (Deployment::distance_to)
// among the sites within the service range along the route, first in
// route order on a tie, or nullptr when none is within range. The first
// row (and any row behind its predecessor) seeds the per-layer window
// with a binary search; later rows only move it forward.
void fill_nearest_cells(const Deployment& dep, const OperatorProfile& profile,
                        SegmentBatch& b);

}  // namespace wheels::ran
