#include "radio/pathloss.h"

#include <algorithm>
#include <cmath>

namespace wheels::radio {
Db free_space_pathloss(Meters d, MHz f) {
  const double dm = std::max(d.value, 1.0);
  // 20 log10(d_m) + 20 log10(f_MHz) + 32.45 (d in km form folded in).
  return Db{20.0 * std::log10(dm / 1000.0) + 20.0 * std::log10(f.value) +
            32.45};
}

double pathloss_exponent(Tech t, Environment env) {
  // Exponents beyond the close-in reference distance.
  switch (t) {
    case Tech::NR_MMWAVE:
      // Effective LOS/light-NLOS mix; open terrain is no worse than a
      // street canyon.
      return env == Environment::Urban ? 2.6 : 2.55;
    case Tech::NR_MID:
      switch (env) {
        case Environment::Urban: return 3.2;
        case Environment::Suburban: return 3.0;
        case Environment::Rural: return 2.8;
      }
      break;
    case Tech::NR_LOW:
      switch (env) {
        case Environment::Urban: return 3.3;
        case Environment::Suburban: return 3.0;
        case Environment::Rural: return 2.7;
      }
      break;
    case Tech::LTE:
    case Tech::LTE_A:
      switch (env) {
        case Environment::Urban: return 3.4;
        case Environment::Suburban: return 3.1;
        case Environment::Rural: return 2.8;
      }
      break;
  }
  return 3.0;
}

double shadowing_sigma_db(Tech t, Environment env) {
  // mmWave shadows hardest (foliage/vehicle blockage shows up as shadowing
  // at the timescales we model); rural terrain is smoother.
  double base = 0.0;
  switch (t) {
    case Tech::NR_MMWAVE: base = 8.0; break;
    case Tech::NR_MID: base = 6.0; break;
    case Tech::NR_LOW: base = 5.0; break;
    case Tech::LTE:
    case Tech::LTE_A: base = 5.5; break;
  }
  if (env == Environment::Rural) base -= 1.0;
  return base;
}

}  // namespace wheels::radio
