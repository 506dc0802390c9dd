#include "trip/world.h"

#include <cmath>
#include <utility>
#include <vector>

#include "ran/scenario_profiles.h"
#include "trip/region.h"

namespace wheels::trip {
namespace {

// Validates before any member that derives from the spec is built.
const scenario::ScenarioSpec& validated(const scenario::ScenarioSpec& spec) {
  scenario::validate(spec);
  return spec;
}

std::vector<net::EdgeSite> edge_sites_from(const Route& route) {
  std::vector<net::EdgeSite> sites;
  for (const auto& c : route.cities()) {
    if (c.has_edge_server) sites.push_back({c.name, c.route_pos});
  }
  return sites;
}

}  // namespace

DriveConfig drive_from_spec(const scenario::ScenarioSpec& spec) {
  DriveConfig drive;
  drive.hours_per_day = spec.drive.hours_per_day;
  drive.start_hour_local = spec.drive.start_hour_local;
  drive.speed = SpeedTargets{spec.speed.urban_mph, spec.speed.suburban_mph,
                             spec.speed.rural_mph, spec.speed.max_mph};
  return drive;
}

World::World(const scenario::ScenarioSpec& spec, std::uint64_t seed)
    : rng_(seed),
      route_(Route::from_spec(validated(spec).route)),
      corridor_(build_corridor(route_, rng_.fork("corridor"))),
      bands_(spec.bands),
      regime_(ran::regime_from_spec(spec.load_regime)),
      servers_(edge_sites_from(route_)) {
  // Roster slot i realizes operators[i] (validate() pins the roster to
  // exactly 3). Fork labels are the roster names: paper-default names the
  // real operators, so the streams match the pre-scenario engine exactly.
  for (ran::OperatorId op : ran::kAllOperators) {
    const auto i = static_cast<std::size_t>(op);
    const scenario::OperatorSpec& ospec = spec.operators[i];
    profiles_[i] = ran::profile_from_spec(ospec, op);
    deployments_[i] = std::make_unique<ran::Deployment>(
        ran::Deployment::generate(corridor_, profiles_[i],
                                  // wheels-rng: dynamic(one deployment stream per operator name)
                                  rng_.fork(ospec.name)));
  }
}

const ran::OperatorProfile& World::profile(ran::OperatorId op) const {
  return profiles_[static_cast<std::size_t>(op)];
}

const ran::Deployment& World::deployment(ran::OperatorId op) const {
  return *deployments_[static_cast<std::size_t>(op)];
}

ran::UeSimulator World::ue(ran::OperatorId op, Rng rng,
                            ran::TrafficProfile traffic) const {
  return ran::UeSimulator(corridor_, deployment(op), profile(op),
                          std::move(rng), traffic, bands_, regime_);
}

const ran::Cell* World::best_5g_site(ran::OperatorId op,
                                     const City& city) const {
  const ran::Cell* site = nullptr;
  for (radio::Tech tech : {radio::Tech::NR_MMWAVE, radio::Tech::NR_MID}) {
    double best_d = 22'000.0;  // urban-core radius
    for (const auto& c : deployment(op).cells(tech)) {
      const double d = std::abs(c.route_pos.value - city.route_pos.value);
      if (d < best_d) {
        best_d = d;
        site = &c;
      }
    }
    if (site) break;  // prefer mmWave; fall back to mid-band
  }
  return site;
}

}  // namespace wheels::trip
