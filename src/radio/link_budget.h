// Link-budget inputs: the channel state and the per-resource-element
// powers that RSRP and SINR (radio/kernel.h) are built from.
#pragma once

#include "core/units.h"
#include "radio/band.h"

namespace wheels::radio {

// Instantaneous channel state fed by the fading layer.
struct ChannelState {
  Db shadowing{0.0};
  Db fast_fading{0.0};
  Db blockage_loss{0.0};
};

// Noise per resource element at the receiver (15 kHz, 9 dB NF).
inline constexpr Dbm kNoisePerRe{-174.0 + 41.76 + 9.0};  // ~ -123.2 dBm

// Per-resource-element transmit powers: the band-constant terms of the
// link budget, which derive_band() adds to the antenna gain once per band.
[[nodiscard]] Dbm per_re_power_dl(const BandProfile& p);
[[nodiscard]] Dbm per_re_power_ul(const BandProfile& p);

}  // namespace wheels::radio
