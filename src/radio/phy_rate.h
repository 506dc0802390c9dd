// PHY-rate vocabulary: direction, link-adaptation constants, UE peak rates
// and the result type of cached_phy_rate() (radio/kernel.h).
#pragma once

#include "core/units.h"
#include "radio/technology.h"

namespace wheels::radio {

enum class Direction : std::uint8_t { Downlink, Uplink };

// Link-adaptation constants of cached_phy_rate().
// Control/reference-signal overhead: fraction of symbols carrying data.
inline constexpr double kPhyOverhead = 0.75;
// Scheduler backoff applied to the measured SINR before picking MCS.
inline constexpr double kAdaptationBackoffDb = 1.0;
// Each further aggregated carrier is a bit weaker than the primary
// (different band, less favourable geometry).
inline constexpr double kSecondaryCcPenaltyDb = 1.5;

[[nodiscard]] constexpr std::string_view to_string(Direction d) {
  return d == Direction::Downlink ? "DL" : "UL";
}

// UE-category peak rates (Mbps), Samsung S21 / Snapdragon 888 class.
// These cap the instantaneous PHY rate regardless of the link budget.
[[nodiscard]] Mbps ue_peak_rate(Tech t, Direction d);

// Outcome of link adaptation on one scheduling interval.
struct PhyRateResult {
  Mbps rate{0.0};     // goodput after BLER and overhead
  int mcs = 0;        // selected MCS of the primary carrier
  double bler = 0.0;  // residual BLER at the selected MCS
  int num_cc = 1;     // aggregated component carriers
};

}  // namespace wheels::radio
