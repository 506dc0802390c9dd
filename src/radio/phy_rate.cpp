#include "radio/phy_rate.h"

namespace wheels::radio {

Mbps ue_peak_rate(Tech t, Direction d) {
  const bool dl = d == Direction::Downlink;
  switch (t) {
    case Tech::LTE: return dl ? Mbps{75.0} : Mbps{25.0};
    case Tech::LTE_A: return dl ? Mbps{400.0} : Mbps{60.0};
    case Tech::NR_LOW: return dl ? Mbps{300.0} : Mbps{75.0};
    case Tech::NR_MID: return dl ? Mbps{780.0} : Mbps{120.0};
    case Tech::NR_MMWAVE: return dl ? Mbps{3500.0} : Mbps{350.0};
  }
  return Mbps{0.0};
}

}  // namespace wheels::radio
