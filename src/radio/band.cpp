#include "radio/band.h"

namespace wheels::radio {
namespace {

// Representative 2022 US deployments:
//  - LTE: 10 MHz FDD around 1.9 GHz (PCS/AWS).
//  - LTE-A: 20 MHz CCs, up to 3xCA around 2.1 GHz.
//  - NR low: n71/n5 (600-850 MHz), 15/10 MHz, long range.
//  - NR mid: n41/n77 (2.5/3.7 GHz), 60-100 MHz CCs; T-Mobile's n41 at
//    ~80 MHz dominates the paper's mid-band results.
//  - NR mmWave: n260/n261 (28/39 GHz), 100 MHz CCs, up to 8CC DL / 2CC UL
//    (Snapdragon 888 capability per the testbed appendix).
constexpr BandProfile kLte{
    .tech = Tech::LTE,
    .carrier = MHz{1900.0},
    .cc_bandwidth_dl = MHz{10.0},
    .cc_bandwidth_ul = MHz{10.0},
    .max_cc_dl = 1,
    .max_cc_ul = 1,
    .mimo_layers_dl = 2,
    .mimo_layers_ul = 1,
    .tx_power_dl = Dbm{43.0},
    .tx_power_ul = Dbm{23.0},
    .antenna_gain_dl = Db{15.0},
    .typical_range = Meters{3500.0},
};

constexpr BandProfile kLteA{
    .tech = Tech::LTE_A,
    .carrier = MHz{2100.0},
    .cc_bandwidth_dl = MHz{20.0},
    .cc_bandwidth_ul = MHz{20.0},
    .max_cc_dl = 3,
    .max_cc_ul = 2,
    .mimo_layers_dl = 4,
    .mimo_layers_ul = 1,
    .tx_power_dl = Dbm{43.0},
    .tx_power_ul = Dbm{23.0},
    .antenna_gain_dl = Db{16.0},
    .typical_range = Meters{3000.0},
};

constexpr BandProfile kNrLow{
    .tech = Tech::NR_LOW,
    .carrier = MHz{700.0},
    .cc_bandwidth_dl = MHz{20.0},
    .cc_bandwidth_ul = MHz{20.0},
    // NSA EN-DC: the NR leg is aggregated with LTE anchor carriers.
    .max_cc_dl = 3,
    .max_cc_ul = 1,
    .mimo_layers_dl = 4,
    .mimo_layers_ul = 1,
    .tx_power_dl = Dbm{43.0},
    .tx_power_ul = Dbm{23.0},
    .antenna_gain_dl = Db{14.0},
    .typical_range = Meters{5000.0},
};

constexpr BandProfile kNrMid{
    .tech = Tech::NR_MID,
    .carrier = MHz{3500.0},
    .cc_bandwidth_dl = MHz{80.0},
    .cc_bandwidth_ul = MHz{80.0},
    .max_cc_dl = 2,
    .max_cc_ul = 2,
    .mimo_layers_dl = 2,
    .mimo_layers_ul = 1,
    .tx_power_dl = Dbm{46.0},
    .tx_power_ul = Dbm{26.0},
    .antenna_gain_dl = Db{24.0},  // massive-MIMO beamforming
    .typical_range = Meters{1800.0},
};

constexpr BandProfile kNrMmwave{
    .tech = Tech::NR_MMWAVE,
    .carrier = MHz{28000.0},
    .cc_bandwidth_dl = MHz{100.0},
    .cc_bandwidth_ul = MHz{100.0},
    .max_cc_dl = 8,
    .max_cc_ul = 2,
    .mimo_layers_dl = 2,
    .mimo_layers_ul = 1,
    .tx_power_dl = Dbm{40.0},
    .tx_power_ul = Dbm{23.0},
    .antenna_gain_dl = Db{30.0},  // phased-array beam gain
    .typical_range = Meters{250.0},
};

// Constant-initialized (no magic static): safe to read from any worker
// thread without synchronization.
constexpr BandPlan kUsPlan{{kLte, kLteA, kNrLow, kNrMid, kNrMmwave}};

}  // namespace

const BandPlan& default_band_plan() { return kUsPlan; }

}  // namespace wheels::radio
