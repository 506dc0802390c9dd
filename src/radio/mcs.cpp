#include "radio/mcs.h"

#include <algorithm>
#include <array>

namespace wheels::radio {
namespace {

// 3GPP TS 36.213 Table 7.2.3-1: CQI -> efficiency (bits/s/Hz).
constexpr std::array<double, 16> kCqiEfficiency = {
    0.0,     0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
    1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547};

// Approximate SINR (dB) required for each CQI at 10% BLER; standard
// link-level curves place CQI1 near -6 dB and CQI15 near 20 dB, roughly
// 1.9 dB per step.
constexpr double kCqi1SinrDb = -6.0;
constexpr double kSinrPerCqiDb = 1.85;

}  // namespace

Db cqi_sinr_threshold(int cqi) {
  return Db{kCqi1SinrDb + (cqi - 1) * kSinrPerCqiDb};
}

double cqi_spectral_efficiency(int cqi) {
  return kCqiEfficiency[static_cast<std::size_t>(
      std::clamp(cqi, 0, kMaxCqi))];
}

int mcs_from_cqi(int cqi) {
  // Linear CQI->MCS mapping: CQI 1 -> MCS 0, CQI 15 -> MCS 28.
  if (cqi <= 0) return 0;
  return std::clamp((cqi - 1) * 2, 0, kMaxMcs);
}

double mcs_spectral_efficiency(int mcs) {
  // Interpolate the CQI efficiency curve over the 0-28 MCS range.
  const double c = 1.0 + std::clamp(mcs, 0, kMaxMcs) / 2.0;
  const int lo = static_cast<int>(c);
  const double frac = c - lo;
  const double e_lo = cqi_spectral_efficiency(std::min(lo, kMaxCqi));
  const double e_hi = cqi_spectral_efficiency(std::min(lo + 1, kMaxCqi));
  return e_lo + frac * (e_hi - e_lo);
}

Db mcs_sinr_threshold(int mcs) {
  const double c = 1.0 + std::clamp(mcs, 0, kMaxMcs) / 2.0;
  return Db{kCqi1SinrDb + (c - 1.0) * kSinrPerCqiDb};
}

}  // namespace wheels::radio
