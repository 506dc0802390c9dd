// Frequency bands and per-technology radio profiles.
#pragma once

#include <array>
#include <cstddef>

#include "core/units.h"
#include "radio/technology.h"

namespace wheels::radio {

// Static radio parameters of one technology class: carrier frequency,
// component-carrier bandwidths, MIMO layers, and link-budget constants.
// Values are representative of 2022-era US deployments (Samsung S21-class
// UE: 8CC DL / 2CC UL over mmWave, per the paper's testbed description).
struct BandProfile {
  Tech tech;
  MHz carrier;           // representative carrier frequency
  MHz cc_bandwidth_dl;   // one component carrier, downlink
  MHz cc_bandwidth_ul;   // one component carrier, uplink
  int max_cc_dl = 1;     // max aggregated component carriers (DL)
  int max_cc_ul = 1;     // max aggregated component carriers (UL)
  int mimo_layers_dl = 2;
  int mimo_layers_ul = 1;
  Dbm tx_power_dl{43.0};     // BS EIRP contribution per CC (before antenna gain)
  Dbm tx_power_ul{23.0};     // UE max transmit power
  Db antenna_gain_dl{15.0};  // BS antenna gain (beamforming gain for mmWave)
  Meters typical_range{2000.0};  // deployment inter-site distance scale
};

// A complete band plan: one profile per technology layer. Scenarios swap
// plans wholesale (e.g. EU carriers/bandwidths) without recompiling;
// derive_plan() (radio/kernel.h) reads the radio chain's constants from
// the plan, so nothing reaches back into the US catalog.
struct BandPlan {
  std::array<BandProfile, 5> profiles{};  // indexed by Tech

  [[nodiscard]] const BandProfile& profile(Tech t) const {
    return profiles[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] BandProfile& profile(Tech t) {
    return profiles[static_cast<std::size_t>(t)];
  }
};

// The 2022-era US catalog the paper's campaign ran on.
[[nodiscard]] const BandPlan& default_band_plan();

}  // namespace wheels::radio
