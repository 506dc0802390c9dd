#include "ran/kernel.h"

#include <algorithm>
#include <cmath>

namespace wheels::ran {

void SegmentBatch::resize(std::size_t n) {
  pos_m.resize(n);
  speed_mph.resize(n);
  env.resize(n);
  tz.resize(n);
  for (Layer& layer : layers) {
    layer.cell.resize(n);
    layer.dist_m.resize(n);
  }
}

void fill_nearest_cells(const Deployment& dep, const OperatorProfile& profile,
                        SegmentBatch& b) {
  const std::size_t n = b.size();
  for (radio::Tech tech : radio::kAllTechs) {
    auto& layer = b.layers[static_cast<std::size_t>(tech)];
    const std::span<const Cell> cells = dep.cells(tech);
    if (cells.empty()) {
      std::fill(layer.cell.begin(), layer.cell.end(), nullptr);
      std::fill(layer.dist_m.begin(), layer.dist_m.end(), 0.0);
      continue;
    }
    const double range = Deployment::service_range(tech, profile).value;
    std::size_t lo = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double pos = b.pos_m[i];
      if (i == 0 || pos < b.pos_m[i - 1]) {
        // First row or a backward jump: seed the window start with a
        // binary search, so a one-row fill costs one lower_bound.
        lo = static_cast<std::size_t>(
            std::lower_bound(cells.begin(), cells.end(), pos - range,
                             [](const Cell& c, double v) {
                               return c.route_pos.value < v;
                             }) -
            cells.begin());
      }
      // Advance the window start to the first cell with
      // route_pos >= pos - range, the lower_bound above for this row.
      while (lo < cells.size() && cells[lo].route_pos.value < pos - range) {
        ++lo;
      }
      // Lateral offsets mean the route-adjacent site is not always the
      // nearest in 2-D: scan every site within the service range along
      // the route (a handful at most).
      const Cell* best = nullptr;
      double best_d = 0.0;
      for (std::size_t j = lo; j < cells.size(); ++j) {
        const double dx = cells[j].route_pos.value - pos;
        if (dx > range) break;
        // hypot(dx, lateral) >= |dx| (hypot never rounds below an exact
        // operand), so when |dx| >= best_d the strict `d < best_d` test
        // cannot pass -- skip the hypot without changing the winner.
        if (best != nullptr && std::fabs(dx) >= best_d) continue;
        const double d = Deployment::distance_to(cells[j], Meters{pos}).value;
        if (best == nullptr || d < best_d) {
          best = &cells[j];
          best_d = d;
        }
      }
      if (best == nullptr || best_d > range) {
        layer.cell[i] = nullptr;
        layer.dist_m[i] = 0.0;
      } else {
        layer.cell[i] = best;
        layer.dist_m[i] = best_d;
      }
    }
  }
}

}  // namespace wheels::ran
