// Cell deployment generation along the corridor.
//
// For each operator and each technology layer, coverage is generated as a
// two-state Markov chain over ~3 km corridor blocks (covered / hole) whose
// stationary distribution matches the profile's availability for the local
// environment and timezone -- this produces the *fragmented* coverage the
// paper emphasizes rather than uniformly sprinkled cells. Within covered
// stretches, cell sites are laid out at the profile's inter-site spacing
// with jitter and a lateral offset from the road.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/units.h"
#include "ran/corridor.h"
#include "ran/operator_profile.h"
#include "radio/technology.h"

namespace wheels::ran {

using CellId = std::uint32_t;

struct Cell {
  CellId id = 0;
  radio::Tech tech = radio::Tech::LTE;
  Meters route_pos{0.0};  // corridor coordinate of the site
  Meters lateral{50.0};   // perpendicular offset from the road
  // Static per-cell calibration offset (installation variance, dB).
  double site_offset_db = 0.0;
  // Wired backhaul capacity of the site (downlink Mbps). Urban sites are
  // fibered; many rural interstate sites run on microwave links that cap
  // user throughput far below the radio's ability.
  double backhaul_dl_mbps = 500.0;
};

class Deployment {
 public:
  // Generate the deployment for one operator along the corridor.
  static Deployment generate(const Corridor& corridor,
                             const OperatorProfile& profile, Rng rng);

  // 3-D-ish distance from `pos` to a cell (route delta + lateral offset).
  // Inline: this is evaluated a few times per simulation slot (serving
  // link, candidate sweep) and the hypot is the whole body.
  [[nodiscard]] static Meters distance_to(const Cell& cell, Meters pos) {
    const double dx = cell.route_pos.value - pos.value;
    return Meters{std::hypot(dx, cell.lateral.value)};
  }

  [[nodiscard]] std::span<const Cell> cells(radio::Tech tech) const;
  [[nodiscard]] std::size_t total_cells() const;

  // Service range beyond which a cell of this layer is unusable. A site
  // serves up to ~0.9x the inter-site distance along the road (beyond
  // that a neighbour would be serving, or it is a coverage edge).
  [[nodiscard]] static Meters service_range(radio::Tech tech,
                                            const OperatorProfile& profile) {
    return profile.deployment(tech).site_spacing * 0.9;
  }

 private:
  Deployment() = default;

  // Per-tech cells sorted by route position.
  std::array<std::vector<Cell>, 5> by_tech_;
};

}  // namespace wheels::ran
