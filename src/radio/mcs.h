// Link-adaptation tables: CQI decode thresholds, CQI -> MCS, and the
// spectral efficiency and decode threshold of each MCS. derive_plan()
// (radio/kernel.h) reads them into the tables its SINR -> CQI -> MCS
// lookups and BLER use.
//
// The CQI table follows 3GPP TS 36.213 Table 7.2.3-1 (the 4-bit 64-QAM
// table); MCS indices 0-28 interpolate the same efficiency range, which is
// what XCAL reports and Table 2 correlates against throughput.
#pragma once

#include "core/units.h"
#include "radio/technology.h"

namespace wheels::radio {

inline constexpr int kMaxCqi = 15;
inline constexpr int kMaxMcs = 28;

// SINR required to decode CQI index `cqi` (1..kMaxCqi): the boundary the
// CQI selection compares against.
[[nodiscard]] Db cqi_sinr_threshold(int cqi);

// Spectral efficiency (bits/s/Hz per layer) of a CQI index, per the 3GPP
// 64-QAM CQI table. CQI 0 means out of range (efficiency 0).
[[nodiscard]] double cqi_spectral_efficiency(int cqi);

// MCS index (0-28) selected for a CQI, with an operator back-off margin in
// dB (conservative schedulers pick lower MCS to keep BLER near target).
[[nodiscard]] int mcs_from_cqi(int cqi);

// Spectral efficiency of an MCS index (bits/s/Hz per layer).
[[nodiscard]] double mcs_spectral_efficiency(int mcs);

// SINR decode threshold of an MCS: the SINR at which its BLER is ~50%.
[[nodiscard]] Db mcs_sinr_threshold(int mcs);

}  // namespace wheels::radio
