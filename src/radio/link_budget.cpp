#include "radio/link_budget.h"

#include <cmath>

namespace wheels::radio {

// Per-resource-element transmit power: total CC power spread over the
// occupied subcarriers (15 kHz LTE / 30+ kHz NR; we use the CC bandwidth
// directly, which is equivalent up to a constant we calibrate away).
Dbm per_re_power_dl(const BandProfile& p) {
  const double subcarriers = p.cc_bandwidth_dl.hz() / 15e3;
  return Dbm{p.tx_power_dl.value - 10.0 * std::log10(subcarriers)};
}

// UE transmits with full power over its UL allocation; model the
// allocation as 1/6 of the CC, which boosts the per-Hz density ~9 dB --
// uplink power control in disguise.
Dbm per_re_power_ul(const BandProfile& p) {
  const double subcarriers = p.cc_bandwidth_ul.hz() / 15e3 / 12.0;
  return Dbm{p.tx_power_ul.value - 10.0 * std::log10(subcarriers)};
}

}  // namespace wheels::radio
