// The radio chain of the drive: path loss and shadowing give RSRP and
// SINR, SINR picks the CQI and MCS, and MCS, BLER and carrier aggregation
// give the PHY rate. This file is its one definition.
//
// derive_plan() evaluates the per-band constant terms once (the FSPL at
// the reference distance, the per-RE transmit powers, the per-MCS carrier
// rates) from the band plan and the link-adaptation tables; the per-slot
// functions below add the distance- and channel-dependent remainder.
// tests/test_replay_kernel.cpp pins the path loss, CQI, MCS and PHY-rate
// outputs over dense grids by value, and the dataset pins in
// tests/contract_pins.h pin the whole chain end to end.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>

#include "core/units.h"
#include "radio/band.h"
#include "radio/link_budget.h"
#include "radio/mcs.h"
#include "radio/pathloss.h"
#include "radio/phy_rate.h"
#include "radio/technology.h"

namespace wheels::radio {

// Per-band constants hoisted out of the per-slot KPI chain.
struct BandDerived {
  Tech tech = Tech::LTE;
  double pl0_db = 0.0;  // FSPL at the d0 reference distance
  std::array<double, 3> ple{};  // pathloss exponent, indexed by Environment
  double rsrp_const_db = 0.0;   // (per_re_power_dl + antenna_gain_dl)
  double ul_const_db = 0.0;     // (per_re_power_ul + antenna_gain_dl)
  double bw_hz_dl = 0.0;
  double bw_hz_ul = 0.0;
  int max_cc_dl = 1;
  int max_cc_ul = 1;
  int layers_dl = 1;
  int layers_ul = 1;
  double peak_dl_mbps = 0.0;
  double peak_ul_mbps = 0.0;
  // Per-MCS carrier rates before BLER and overhead ((bw_hz * se) *
  // layers, evaluated in exactly that order), and the same with the
  // trailing * kPhyOverhead already applied -- used when the BLER factor
  // is provably exactly 1.0 (see cached_phy_rate).
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> rate_base_dl{};
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> rate_base_ul{};
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> rate_full_dl{};
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> rate_full_ul{};
};

// The full derived state of one band plan: per-band constants plus the
// link-adaptation tables (which are plan-independent but live here so a
// replaying UE carries exactly one derived object, no globals).
struct DerivedPlan {
  std::array<BandDerived, 5> bands{};  // indexed by Tech
  // cqi_required_sinr_db[c - 1] is the decode threshold of CQI c (1..15),
  // strictly increasing -- the counting lookup below relies on that.
  std::array<double, static_cast<std::size_t>(kMaxCqi)> cqi_required_sinr_db{};
  std::array<int, static_cast<std::size_t>(kMaxCqi) + 1> mcs_for_cqi{};
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> mcs_efficiency{};
  std::array<double, static_cast<std::size_t>(kMaxMcs) + 1> mcs_threshold_db{};

  [[nodiscard]] const BandDerived& band(Tech t) const {
    return bands[static_cast<std::size_t>(t)];
  }
};

[[nodiscard]] BandDerived derive_band(const BandProfile& p);
[[nodiscard]] DerivedPlan derive_plan(const BandPlan& plan);

// Distance-dependent path loss (dB, excluding shadowing and fading): the
// close-in model PL(d) = FSPL(d0, f) + 10 n log10(d / d0), with d clamped
// to at least d0 = kPathlossReferenceM and the exponent n per technology
// and environment (radio/pathloss.h).
[[nodiscard]] double cached_pathloss_db(const BandDerived& b, Environment env,
                                        double distance_m);

// The link budget over one path loss `pl_db`, so one evaluation serves
// RSRP and both SINR directions.
//
// RSRP: per-resource-element received power, the per-RE transmit power
// plus antenna gain, less path loss and shadowing. Fast fading is averaged
// out by the UE's RSRP filter and blockage is left to the SINR, so neither
// enters here.
[[nodiscard]] inline Dbm rsrp(const BandDerived& b, double pl_db,
                              Db shadowing) {
  return Dbm{(b.rsrp_const_db - pl_db) - shadowing.value};
}

// Downlink SINR for data: the RSRP less blockage, plus fast fading, over
// the noise per RE, less the interference margin (neighbour-cell load,
// from the RAN layer). Per-RE SNR equals wideband SNR.
[[nodiscard]] inline Db sinr_downlink(const BandDerived& b, double pl_db,
                                      const ChannelState& ch, Db margin) {
  const double rx = (rsrp(b, pl_db, ch.shadowing).value -
                     ch.blockage_loss.value) +
                    ch.fast_fading.value;
  return Db{(rx - kNoisePerRe.value) - margin.value};
}

// Uplink SINR: the same budget from the UE's per-RE transmit power (the
// BS antenna gain helps on receive). Interference at the BS is milder
// (power control), so callers pass a smaller margin.
[[nodiscard]] inline Db sinr_uplink(const BandDerived& b, double pl_db,
                                    const ChannelState& ch, Db margin) {
  const double rx = (((b.ul_const_db - pl_db) - ch.shadowing.value) -
                     ch.blockage_loss.value) +
                    ch.fast_fading.value;
  return Db{(rx - kNoisePerRe.value) - margin.value};
}

// Highest CQI whose decode threshold is <= sinr_db (0 when none is):
// with strictly increasing thresholds, the count of thresholds <= sinr.
[[nodiscard]] int cqi_from_sinr_table(const DerivedPlan& dp, double sinr_db);

// Residual BLER of a transmission `gap_db` above its MCS's decode
// threshold: a logistic waterfall, 50% at the threshold and ~10% one dB
// above (slope 0.45 dB). With ideal adaptation this lands near the 10%
// target; fast fading between CQI reports spreads the BLER KPI.
[[nodiscard]] inline double bler_at_gap(double gap_db) {
  return 1.0 / (1.0 + std::exp(gap_db / 0.45));
}

// Achievable PHY goodput of one scheduling interval, with band constants
// from `b` and adaptation lookups from `dp`:
//   sinr          -- primary-carrier SINR for this interval
//   num_cc        -- aggregated carriers, clamped to 1..the band's max;
//                    each further carrier is kSecondaryCcPenaltyDb weaker
//   prb_fraction  -- fraction of PRBs the scheduler grants this UE (cell
//                    load model), clamped to [0, 1]
// Each carrier picks its CQI at sinr - kAdaptationBackoffDb and the MCS of
// that CQI, and delivers its rate times (1 - BLER) times kPhyOverhead; the
// sum, scaled by the PRB share, is capped at the UE's peak rate. mcs and
// bler report the primary carrier.
[[nodiscard]] PhyRateResult cached_phy_rate(const DerivedPlan& dp,
                                            const BandDerived& b,
                                            Direction dir, Db sinr, int num_cc,
                                            double prb_fraction);

}  // namespace wheels::radio
