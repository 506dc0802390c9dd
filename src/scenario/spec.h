// Declarative scenario descriptions.
//
// A ScenarioSpec captures everything the campaign engine previously
// hardcoded: route geometry and speed profile, the operator roster with
// band plan and 5G promotion policy (the Fig. 1 passive-vs-active artifact
// as a tunable), the diurnal load regime, and the app-session mix. The
// built-in `paper-default` spec reproduces the LA->Boston drive verbatim
// (golden checksum pinned in tools/contracts.json); every other scenario
// is expressed as a delta from it, either as a built-in below or as a JSON
// file under scenarios/.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "radio/band.h"

namespace wheels::scenario {

// Sentinel for "inherit the calibrated per-operator value": promotion
// probabilities default to NaN, which profile_from_spec leaves untouched.
[[nodiscard]] double inherit();

// One named route waypoint. `edge_server` marks cities hosting an edge
// measurement server (the paper's 10-city server footprint).
struct WaypointSpec {
  std::string name;
  double lat = 0.0;
  double lon = 0.0;
  bool edge_server = false;
};

// Route geometry: waypoints joined by great-circle legs, stretched by a
// road factor (driving distance / great-circle distance).
struct RouteSpec {
  double road_factor = 1.218;
  std::vector<WaypointSpec> waypoints;
};

// Measurement-cycle timing (milliseconds). Owned here so DriveConfig and
// CampaignConfig can no longer disagree about the slot length.
struct TimingSpec {
  double slot_ms = 20.0;
  double tput_test_ms = 30'000.0;
  double rtt_test_ms = 20'000.0;
  double gap_ms = 3'000.0;
  double ping_interval_ms = 200.0;
  double sample_window_ms = 500.0;
};

// Daily driving shift.
struct DriveSpec {
  double hours_per_day = 11.0;
  int start_hour_local = 8;
};

// Speed-profile targets per environment (mph), plus the hard cap.
struct SpeedSpec {
  double urban_mph = 14.0;
  double suburban_mph = 38.0;
  double rural_mph = 70.0;
  double max_mph = 82.0;
};

// 5G promotion policy overrides. NaN (the default, via inherit()) keeps
// the calibrated value of the operator's base profile; a number in [0, 1]
// replaces it. Setting the traffic-conditioned fields to the idle value
// removes the Fig. 1 passive-vs-active artifact.
struct PromotionSpec {
  double hs5g_given_dl;
  double hs5g_given_ul;
  double hs5g_given_interactive;
  double low5g_given_traffic;
  double any5g_given_idle;

  PromotionSpec();
};

// One operator in the roster. `calibration` names the base profile
// ("verizon", "tmobile", or "att") whose deployment/policy constants
// seed this operator; `name` is the display/fork label (paper-default
// uses the real operator names so RNG fork labels stay bit-identical).
struct OperatorSpec {
  std::string name;
  std::string calibration;
  PromotionSpec promotion;
  double availability_scale = 1.0;  // scales per-tech coverage availability
  double load_scale = 1.0;          // scales mean cell load
};

// Diurnal load multipliers by quarter of the local day:
// night 00-06, morning 06-12, afternoon 12-18, evening 18-24.
// All-ones (the default) disables the regime entirely.
struct LoadRegimeSpec {
  double night = 1.0;
  double morning = 1.0;
  double afternoon = 1.0;
  double evening = 1.0;
};

// Which app-session families the app campaign replays.
struct AppMixSpec {
  bool ar = true;
  bool cav = true;
  bool video = true;
  bool gaming = true;
};

// A complete, validated scenario.
struct ScenarioSpec {
  std::string name = "paper-default";
  std::string description;
  std::uint64_t seed = 42;
  TimingSpec timing;
  DriveSpec drive;
  SpeedSpec speed;
  RouteSpec route;
  std::vector<OperatorSpec> operators;  // exactly 3 (one per result slot)
  radio::BandPlan bands = radio::default_band_plan();
  LoadRegimeSpec load_regime;
  AppMixSpec apps;
};

// The built-in library. paper_default() reproduces the hardcoded campaign
// bit-for-bit; builtin_scenarios() returns it plus five variants (urban
// loop, commuter corridor, highway convoy, EU band plan, degraded-coverage
// storm). Returned by value: specs are small and callers mutate copies.
[[nodiscard]] ScenarioSpec paper_default();
[[nodiscard]] std::vector<ScenarioSpec> builtin_scenarios();

// Throws std::invalid_argument describing the first violated constraint.
void validate(const ScenarioSpec& spec);

// spec.cpp names every field once, in one schema walk; the three functions
// below visit it in the same canonical order.

// Order-sensitive FNV-1a hash over every behavior-affecting field (name
// and description excluded). Feeds dataset fingerprints so the
// content-addressed cache keys distinct scenarios apart.
[[nodiscard]] std::uint64_t scenario_hash(const ScenarioSpec& spec);

// Parse a scenario JSON document over paper_default(): objects merge key
// by key, arrays replace the default wholesale, and unknown keys throw.
// The result is validated before being returned.
[[nodiscard]] ScenarioSpec parse_scenario_json(std::string_view text);

// Full canonical serialization (every field, doubles in their shortest
// round-trip form, inherited promotions left out); parsing the output
// reproduces the spec exactly.
[[nodiscard]] std::string to_json(const ScenarioSpec& spec);

// Resolve a built-in name or a filesystem path to a validated spec. A
// built-in name builds that one spec only.
[[nodiscard]] ScenarioSpec load_scenario(const std::string& name_or_path);

}  // namespace wheels::scenario
