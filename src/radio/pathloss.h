// Path-loss model constants.
//
// A close-in free-space reference model with band-dependent exponents,
// following the 3GPP TR 38.901 UMa/UMi/RMa spirit without the full
// machinery: PL(d) = FSPL(d0, f) + 10 n log10(d / d0), with the exponent n
// chosen per band class and environment. derive_band() (radio/kernel.h)
// takes FSPL(d0, f) and n from here; cached_pathloss_db() evaluates PL(d).
// mmWave additionally suffers distance-independent blockage handled by the
// fading layer.
#pragma once

#include "core/units.h"
#include "radio/technology.h"

namespace wheels::radio {

enum class Environment : std::uint8_t { Urban, Suburban, Rural };

// Close-in reference distance d0 of the path-loss model.
inline constexpr double kPathlossReferenceM = 10.0;

// Free-space path loss at distance d and carrier frequency f.
[[nodiscard]] Db free_space_pathloss(Meters d, MHz f);

// Path-loss exponent for a technology/environment pair. Sub-6 propagates
// further in rural terrain (lower clutter); mmWave is near-free-space when
// line-of-sight but the effective exponent we use folds in light NLOS.
[[nodiscard]] double pathloss_exponent(Tech t, Environment env);

// Log-normal shadowing standard deviation (dB) per technology/environment.
[[nodiscard]] double shadowing_sigma_db(Tech t, Environment env);

}  // namespace wheels::radio
