#include "ran/deployment.h"

#include <algorithm>
#include <cmath>

namespace wheels::ran {
namespace {

using radio::Tech;

constexpr double kBlockMeters = 3000.0;
// Mean sojourn in the "covered" state, in blocks: coverage comes in
// ~4-block (12 km) stretches, matching the fragmented maps of Fig. 1.
constexpr double kMeanCoveredRunBlocks = 4.0;

constexpr std::size_t idx(Tech t) { return static_cast<std::size_t>(t); }

}  // namespace

Deployment Deployment::generate(const Corridor& corridor,
                                const OperatorProfile& profile, Rng rng) {
  Deployment d;
  CellId next_id = 1;

  for (Tech tech : radio::kAllTechs) {
    // wheels-rng: dynamic(one placement stream per radio tech)
    Rng layer_rng = rng.fork(to_string(tech));
    auto& cells = d.by_tech_[idx(tech)];
    const TechDeployment& td = profile.deployment(tech);

    bool covered = false;
    bool first_block = true;
    // Walk the corridor block by block, flipping the coverage state with
    // the Markov transition probabilities implied by (availability, mean
    // covered run length).
    for (double block_start = 0.0; block_start < corridor.length().value;
         block_start += kBlockMeters) {
      const auto& seg = corridor.at(Meters{block_start + kBlockMeters / 2});
      const double avail = td.availability(seg.env, seg.tz);
      if (avail <= 0.0) {
        covered = false;
        first_block = true;  // re-seed the chain after a forced gap
        continue;
      }
      if (first_block) {
        covered = layer_rng.chance(avail);
        first_block = false;
      } else {
        // Two-state chain with stationary P(covered) = avail and mean
        // covered sojourn kMeanCoveredRunBlocks.
        const double p_leave_covered =
            std::min(1.0, 1.0 / kMeanCoveredRunBlocks);
        const double p_enter_covered =
            avail >= 1.0 ? 1.0
                         : std::min(1.0, p_leave_covered * avail /
                                             (1.0 - avail));
        covered = covered ? !layer_rng.chance(p_leave_covered)
                          : layer_rng.chance(p_enter_covered);
      }
      if (!covered) continue;

      // Lay out sites within the covered block.
      const double spacing = td.site_spacing.value;
      double pos = block_start + layer_rng.uniform(0.0, spacing);
      while (pos < block_start + kBlockMeters) {
        Cell c;
        c.id = next_id++;
        c.tech = tech;
        c.route_pos = Meters{pos};
        const double min_lateral = tech == Tech::NR_MMWAVE ? 15.0 : 30.0;
        c.lateral = Meters{min_lateral +
                           std::abs(layer_rng.normal(0.0, spacing / 6.0))};
        c.site_offset_db = layer_rng.normal(0.0, 2.0);
        // Backhaul: lognormal around an environment-dependent median.
        // Sites carrying a 5G upgrade usually received a backhaul upgrade
        // with it, which is what makes a 4G->5G handover typically pay
        // off (Fig. 12).
        double bh_median = 0.0, bh_sigma = 0.0;
        switch (seg.env) {
          case radio::Environment::Urban:
            bh_median = 500.0;
            bh_sigma = 0.7;
            break;
          case radio::Environment::Suburban:
            bh_median = 60.0;
            bh_sigma = 0.9;
            break;
          case radio::Environment::Rural:
            bh_median = 27.0;
            bh_sigma = 1.1;
            break;
        }
        switch (tech) {
          case Tech::NR_LOW: bh_median *= 1.4; break;
          case Tech::NR_MID: bh_median *= 1.9; break;
          case Tech::NR_MMWAVE: bh_median *= 3.0; break;
          default: break;
        }
        c.backhaul_dl_mbps = bh_median * layer_rng.lognormal(0.0, bh_sigma);
        cells.push_back(c);
        pos += spacing * layer_rng.uniform(0.75, 1.25);
      }
    }
    std::sort(cells.begin(), cells.end(),
              [](const Cell& a, const Cell& b) {
                return a.route_pos < b.route_pos;
              });
  }
  return d;
}

std::span<const Cell> Deployment::cells(Tech tech) const {
  return by_tech_[idx(tech)];
}

}  // namespace wheels::ran
