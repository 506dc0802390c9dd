// The simulated world of one (scenario, seed) pair.
//
// Everything a runner reads but never consumes is built here once: the
// root Rng stream, the route and its RAN corridor, the band plan, the load
// regime, the edge/cloud server selector, and per roster slot the realized
// operator profile and its cell deployment. The drive campaign, the app
// campaign and both static baselines all run in a World; each forks its
// own processes (trip, UEs, transport) from rng() and builds every UE
// through ue(), so a UE is constructed the same way everywhere.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "core/rng.h"
#include "net/server.h"
#include "radio/band.h"
#include "ran/corridor.h"
#include "ran/deployment.h"
#include "ran/operator_profile.h"
#include "ran/ue.h"
#include "scenario/spec.h"
#include "trip/route.h"
#include "trip/trip_simulator.h"

namespace wheels::trip {

// The drive settings a scenario specifies: shift length, start hour and
// per-environment speed targets.
[[nodiscard]] DriveConfig drive_from_spec(const scenario::ScenarioSpec& spec);

class World {
 public:
  // Validates `spec` first (std::invalid_argument on a bad scenario).
  World(const scenario::ScenarioSpec& spec, std::uint64_t seed);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // The root stream. Callers bind it to a named reference before forking
  // (`const Rng& root = world.rng();`): tools/wheels_rng.py resolves fork
  // sites by receiver name and cannot follow a fork on a call result.
  [[nodiscard]] const Rng& rng() const { return rng_; }
  [[nodiscard]] const Route& route() const { return route_; }
  [[nodiscard]] const ran::Corridor& corridor() const { return corridor_; }
  [[nodiscard]] const ran::LoadRegime& regime() const { return regime_; }
  [[nodiscard]] const net::ServerSelector& servers() const { return servers_; }
  [[nodiscard]] const ran::OperatorProfile& profile(ran::OperatorId op) const;
  [[nodiscard]] const ran::Deployment& deployment(ran::OperatorId op) const;

  // A UE of operator `op` in this world (its corridor, deployment,
  // profile, the scenario's band plan and load regime) drawing from `rng`.
  // The UE refers into the World, which must outlive it.
  [[nodiscard]] ran::UeSimulator ue(ran::OperatorId op, Rng rng,
                                    ran::TrafficProfile traffic) const;

  // The static baselines' test site near `city`: the nearest mmWave cell
  // of `op` within the urban core, else the nearest mid-band one, or
  // nullptr when the operator has neither there (the study skipped such
  // operator-city pairs).
  [[nodiscard]] const ran::Cell* best_5g_site(ran::OperatorId op,
                                              const City& city) const;

 private:
  Rng rng_;
  Route route_;
  ran::Corridor corridor_;
  radio::BandPlan bands_;
  ran::LoadRegime regime_;
  net::ServerSelector servers_;
  // Indexed by OperatorId. UEs hold references into both, so a World
  // must outlive every runner built on it.
  std::array<ran::OperatorProfile, 3> profiles_;
  std::array<std::unique_ptr<ran::Deployment>, 3> deployments_;
};

}  // namespace wheels::trip
