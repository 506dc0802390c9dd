#include "radio/kernel.h"

#include <algorithm>
#include <cmath>

namespace wheels::radio {

BandDerived derive_band(const BandProfile& p) {
  BandDerived b;
  b.tech = p.tech;
  b.pl0_db = free_space_pathloss(Meters{kPathlossReferenceM}, p.carrier).value;
  for (Environment env :
       {Environment::Urban, Environment::Suburban, Environment::Rural}) {
    b.ple[static_cast<std::size_t>(env)] = pathloss_exponent(p.tech, env);
  }
  b.rsrp_const_db = (per_re_power_dl(p) + p.antenna_gain_dl).value;
  b.ul_const_db = (per_re_power_ul(p) + p.antenna_gain_dl).value;
  b.bw_hz_dl = p.cc_bandwidth_dl.hz();
  b.bw_hz_ul = p.cc_bandwidth_ul.hz();
  b.max_cc_dl = p.max_cc_dl;
  b.max_cc_ul = p.max_cc_ul;
  b.layers_dl = p.mimo_layers_dl;
  b.layers_ul = p.mimo_layers_ul;
  b.peak_dl_mbps = ue_peak_rate(p.tech, Direction::Downlink).value;
  b.peak_ul_mbps = ue_peak_rate(p.tech, Direction::Uplink).value;
  for (int m = 0; m <= kMaxMcs; ++m) {
    const std::size_t i = static_cast<std::size_t>(m);
    const double se = mcs_spectral_efficiency(m);
    // The carrier rate's leading multiplications, once per MCS.
    b.rate_base_dl[i] = (b.bw_hz_dl * se) * b.layers_dl;
    b.rate_base_ul[i] = (b.bw_hz_ul * se) * b.layers_ul;
    b.rate_full_dl[i] = b.rate_base_dl[i] * kPhyOverhead;
    b.rate_full_ul[i] = b.rate_base_ul[i] * kPhyOverhead;
  }
  return b;
}

DerivedPlan derive_plan(const BandPlan& plan) {
  DerivedPlan dp;
  for (Tech tech : kAllTechs) {
    dp.bands[static_cast<std::size_t>(tech)] = derive_band(plan.profile(tech));
  }
  for (int c = 1; c <= kMaxCqi; ++c) {
    dp.cqi_required_sinr_db[static_cast<std::size_t>(c - 1)] =
        cqi_sinr_threshold(c).value;
  }
  for (int c = 0; c <= kMaxCqi; ++c) {
    dp.mcs_for_cqi[static_cast<std::size_t>(c)] = mcs_from_cqi(c);
  }
  for (int m = 0; m <= kMaxMcs; ++m) {
    dp.mcs_efficiency[static_cast<std::size_t>(m)] = mcs_spectral_efficiency(m);
    dp.mcs_threshold_db[static_cast<std::size_t>(m)] =
        mcs_sinr_threshold(m).value;
  }
  return dp;
}

double cached_pathloss_db(const BandDerived& b, Environment env,
                          double distance_m) {
  const double dm = std::max(distance_m, kPathlossReferenceM);
  const double n = b.ple[static_cast<std::size_t>(env)];
  return b.pl0_db + 10.0 * n * std::log10(dm / kPathlossReferenceM);
}

int cqi_from_sinr_table(const DerivedPlan& dp, double sinr_db) {
  // The unique result R satisfies (R == 0 or t[R-1] <= sinr) and
  // (R == kMaxCqi or sinr < t[R]) for the strictly increasing table t.
  // Start from a linear guess (the thresholds are evenly spaced) and let
  // the two adjustment loops establish the invariant; they converge to
  // the same R from any start, so the guess only affects speed. A
  // non-finite sinr falls through the !(g > 0) guard to 0, as a scan of
  // the table would (every comparison false).
  const double step = dp.cqi_required_sinr_db[1] - dp.cqi_required_sinr_db[0];
  const double g = (sinr_db - dp.cqi_required_sinr_db[0]) / step + 1.0;
  int cqi = 0;
  if (g >= kMaxCqi) {
    cqi = kMaxCqi;
  } else if (g > 0.0) {
    cqi = static_cast<int>(g);
  }
  while (cqi < kMaxCqi &&
         sinr_db >= dp.cqi_required_sinr_db[static_cast<std::size_t>(cqi)]) {
    ++cqi;
  }
  while (cqi > 0 &&
         sinr_db < dp.cqi_required_sinr_db[static_cast<std::size_t>(cqi - 1)]) {
    --cqi;
  }
  return cqi;
}

PhyRateResult cached_phy_rate(const DerivedPlan& dp, const BandDerived& b,
                              Direction dir, Db sinr, int num_cc,
                              double prb_fraction) {
  const bool dl = dir == Direction::Downlink;
  const int max_cc = dl ? b.max_cc_dl : b.max_cc_ul;
  num_cc = std::clamp(num_cc, 1, max_cc);
  prb_fraction = std::clamp(prb_fraction, 0.0, 1.0);

  PhyRateResult out;
  out.num_cc = num_cc;

  double bits_per_second = 0.0;
  for (int cc = 0; cc < num_cc; ++cc) {
    const Db cc_sinr{sinr.value - cc * kSecondaryCcPenaltyDb};
    const int cqi =
        cqi_from_sinr_table(dp, cc_sinr.value - kAdaptationBackoffDb);
    if (cqi == 0) {
      if (cc == 0) {
        out.mcs = 0;
        out.bler = bler_at_gap(cc_sinr.value - dp.mcs_threshold_db[0]);
      }
      continue;  // carrier out of range
    }
    const int mcs = dp.mcs_for_cqi[static_cast<std::size_t>(cqi)];
    const double gap =
        cc_sinr.value - dp.mcs_threshold_db[static_cast<std::size_t>(mcs)];
    const auto& rate_base = dl ? b.rate_base_dl : b.rate_base_ul;
    const auto& rate_full = dl ? b.rate_full_dl : b.rate_full_ul;
    if (cc > 0 && gap >= 17.0) {
      // BLER factor is exactly 1.0 here, so skip the exp: gap >= 17 gives
      // exp(gap/0.45) >= e^37.7 > 2^54, hence blk < 2^-54 and 1.0 - blk
      // rounds to 1.0 (the midpoint to the next double below 1.0 is
      // 1 - 2^-54). rate_full is (rate_base * 1.0) * kPhyOverhead
      // pre-multiplied; multiplying by exactly 1.0 is the identity, so
      // the sum is bit-identical. cc == 0 still computes blk because the
      // sample records it as the BLER.
      bits_per_second += rate_full[static_cast<std::size_t>(mcs)];
      continue;
    }
    const double blk = bler_at_gap(gap);
    bits_per_second +=
        (rate_base[static_cast<std::size_t>(mcs)] * (1.0 - blk)) *
        kPhyOverhead;
    if (cc == 0) {
      out.mcs = mcs;
      out.bler = blk;
    }
  }
  const Mbps uncapped{bits_per_second / 1e6 * prb_fraction};
  out.rate = std::min(uncapped, Mbps{dl ? b.peak_dl_mbps : b.peak_ul_mbps});
  return out;
}

}  // namespace wheels::radio
