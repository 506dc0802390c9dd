// Scenario engine unit tests: JSON parsing (strict keys, helpful errors),
// validation of malformed specs, canonical serialization round-trips,
// scenario hashing, the built-in library, the scenarios/ directory
// staying in sync with the built-ins it mirrors, and literal pins of the
// hashes, fingerprints and reader messages.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_campaign.h"
#include "dataset/fingerprint.h"
#include "dataset/serialize.h"
#include "scenario/json.h"
#include "scenario/spec.h"
#include "trip/campaign.h"

#ifndef WHEELS_SCENARIO_DIR
#define WHEELS_SCENARIO_DIR "scenarios"
#endif

namespace wheels::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string error_of(const std::string& json) {
  try {
    (void)parse_scenario_json(json);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioJson, ParsesScalarsArraysObjects) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -3}})");
  ASSERT_EQ(v.kind, JsonValue::Kind::Object);
  EXPECT_EQ(v.find("a")->number, 1.5);
  ASSERT_EQ(v.find("b")->array.size(), 3u);
  EXPECT_TRUE(v.find("b")->array[0].boolean);
  EXPECT_EQ(v.find("b")->array[2].string, "x\n");
  EXPECT_EQ(v.find("c")->find("d")->number, -3.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ScenarioJson, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_json("{"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{} trailing"), std::invalid_argument);
  EXPECT_THROW((void)parse_json(R"({"a":1,"a":2})"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("[1,]"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("nul"), std::invalid_argument);
}

TEST(ScenarioSpecTest, RejectsDuplicateOperatorName) {
  const char* json = R"({"operators": [
    {"name": "A", "calibration": "verizon"},
    {"name": "A", "calibration": "tmobile"},
    {"name": "B", "calibration": "att"}]})";
  EXPECT_THROW((void)parse_scenario_json(json), std::invalid_argument);
}

TEST(ScenarioSpecTest, RejectsWrongRosterSize) {
  const char* json = R"({"operators": [
    {"name": "A", "calibration": "verizon"},
    {"name": "B", "calibration": "tmobile"}]})";
  EXPECT_THROW((void)parse_scenario_json(json), std::invalid_argument);
}

TEST(ScenarioSpecTest, RejectsUnknownCalibration) {
  const char* json = R"({"operators": [
    {"name": "A", "calibration": "sprint"},
    {"name": "B", "calibration": "tmobile"},
    {"name": "C", "calibration": "att"}]})";
  EXPECT_THROW((void)parse_scenario_json(json), std::invalid_argument);
}

TEST(ScenarioSpecTest, RejectsRouteWithoutEdgeServer) {
  const char* json = R"({"route": {"waypoints": [
    {"name": "A", "lat": 1.0, "lon": 2.0},
    {"name": "B", "lat": 3.0, "lon": 4.0}]}})";
  EXPECT_THROW((void)parse_scenario_json(json), std::invalid_argument);
}

TEST(ScenarioSpecTest, RejectsSingleWaypointRoute) {
  const char* json = R"({"route": {"waypoints": [
    {"name": "A", "lat": 1.0, "lon": 2.0, "edge_server": true}]}})";
  EXPECT_THROW((void)parse_scenario_json(json), std::invalid_argument);
}

TEST(ScenarioSpecTest, BuiltinsValidateAndRoundTrip) {
  const auto all = builtin_scenarios();
  ASSERT_EQ(all.size(), 6u);
  for (const ScenarioSpec& spec : all) {
    EXPECT_NO_THROW(validate(spec)) << spec.name;
    const std::string json = to_json(spec);
    const ScenarioSpec reparsed = parse_scenario_json(json);
    EXPECT_EQ(to_json(reparsed), json)
        << spec.name << ": to_json -> parse -> to_json is not a fixpoint";
    EXPECT_EQ(scenario_hash(reparsed), scenario_hash(spec))
        << spec.name << ": hash changed across a serialization round-trip";
  }
}

TEST(ScenarioSpecTest, HashIgnoresNameAndDescription) {
  ScenarioSpec a = paper_default();
  ScenarioSpec b = paper_default();
  b.name = "renamed-copy";
  b.description = "different words entirely";
  EXPECT_EQ(scenario_hash(a), scenario_hash(b));
  b.seed = 43;
  EXPECT_NE(scenario_hash(a), scenario_hash(b));
}

TEST(ScenarioSpecTest, BuiltinHashesAreDistinct) {
  const auto all = builtin_scenarios();
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(scenario_hash(all[i]), scenario_hash(all[j]))
          << all[i].name << " and " << all[j].name
          << " hash identically: the cache would conflate them";
    }
  }
}

TEST(ScenarioSpecTest, FingerprintsAreDistinctAcrossBuiltins) {
  const auto all = builtin_scenarios();
  std::vector<std::uint64_t> fps;
  for (const ScenarioSpec& spec : all) {
    fps.push_back(
        dataset::fingerprint(trip::CampaignConfig::from_scenario(spec, 64)));
    fps.push_back(
        dataset::fingerprint(apps::AppCampaignConfig::from_scenario(spec, 64)));
  }
  for (std::size_t i = 0; i < fps.size(); ++i) {
    for (std::size_t j = i + 1; j < fps.size(); ++j) {
      EXPECT_NE(fps[i], fps[j]) << "fingerprint collision at " << i << "," << j;
    }
  }
}

TEST(ScenarioSpecTest, PaperDefaultConfigMatchesLegacyDefaults) {
  // A from_scenario(paper_default()) config must be indistinguishable from
  // a default-constructed one, down to the dataset fingerprint.
  const trip::CampaignConfig legacy;
  const trip::CampaignConfig derived =
      trip::CampaignConfig::from_scenario(paper_default(), 1);
  EXPECT_EQ(derived.seed, legacy.seed);
  EXPECT_EQ(derived.cycle_stride, legacy.cycle_stride);
  EXPECT_EQ(scenario_hash(derived.spec), scenario_hash(legacy.spec));
  EXPECT_EQ(dataset::fingerprint(derived), dataset::fingerprint(legacy));

  const apps::AppCampaignConfig alegacy;
  const apps::AppCampaignConfig aderived =
      apps::AppCampaignConfig::from_scenario(paper_default(), 1);
  EXPECT_EQ(aderived.seed, alegacy.seed);
  EXPECT_EQ(dataset::fingerprint(aderived), dataset::fingerprint(alegacy));
}

TEST(ScenarioSpecTest, DriveFromSpecMatchesLegacyDefaults) {
  // drive_from_spec(paper_default()) is the DriveConfig the study drove.
  const trip::DriveConfig legacy;
  const trip::DriveConfig derived = trip::drive_from_spec(paper_default());
  EXPECT_EQ(derived.hours_per_day, legacy.hours_per_day);
  EXPECT_EQ(derived.start_hour_local, legacy.start_hour_local);
  EXPECT_EQ(derived.speed.urban_mph, legacy.speed.urban_mph);
  EXPECT_EQ(derived.speed.suburban_mph, legacy.speed.suburban_mph);
  EXPECT_EQ(derived.speed.rural_mph, legacy.speed.rural_mph);
  EXPECT_EQ(derived.speed.max_mph, legacy.speed.max_mph);
}

TEST(ScenarioSpecTest, LoadScenarioResolvesBuiltinsAndRejectsUnknown) {
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    EXPECT_EQ(to_json(load_scenario(spec.name)), to_json(spec)) << spec.name;
  }
  EXPECT_THROW((void)load_scenario("not-a-scenario"), std::invalid_argument);
}

TEST(ScenarioSpecTest, LibraryFilesMatchBuiltins) {
  // Every scenarios/*.json delta file must reproduce its built-in exactly:
  // the file is documentation users copy from, so drift is a bug.
  const std::string dir = WHEELS_SCENARIO_DIR;
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    const std::string path = dir + "/" + spec.name + ".json";
    const std::string text = read_file(path);
    ASSERT_FALSE(text.empty()) << path;
    const ScenarioSpec from_file = parse_scenario_json(text);
    EXPECT_EQ(to_json(from_file), to_json(spec))
        << path << " drifted from the built-in definition";
    const ScenarioSpec loaded = load_scenario(path);
    EXPECT_EQ(scenario_hash(loaded), scenario_hash(spec)) << path;
  }
}

// ---------------------------------------------------------------------------
// The scenario contract, pinned literally. scenario_hash feeds every dataset
// fingerprint, and the fingerprints name the cache files, so a reordered or
// re-widened hash must fail here rather than silently rename the cache.

// paper_default() with two of one operator's promotion fields overridden:
// to_json writes only those two, while scenario_hash also hashes the three
// inherited (NaN) fields by their bits.
ScenarioSpec promotion_override() {
  ScenarioSpec s = paper_default();
  s.name = "promotion-override";
  s.operators[1].promotion.hs5g_given_dl = 0.25;
  s.operators[1].promotion.low5g_given_traffic = 0.5;
  return s;
}

struct SpecPin {
  std::string name;
  std::uint64_t hash;
  std::uint64_t json_fnv;  // dataset::fnv1a(to_json(spec))
  std::uint64_t campaign, campaign_static, apps, apps_static;  // stride 64
};

const std::vector<SpecPin>& spec_pins() {
  static const std::vector<SpecPin> pins = {
      {"paper-default", 0x8246617cf6bad2ccull, 0x4ec7ae368cce1ff5ull,
       0x743b76b6f75ca6fcull, 0x6a2180a75ea41d3cull, 0xd967728889b6e7dfull,
       0x93203014a1cb709full},
      {"urban-loop", 0xbee205a0e976d606ull, 0xb7c5635c5a918458ull,
       0xcc1a9aad05a03e81ull, 0x2f245119401ea7c1ull, 0x01cdc7c11b0ac7e6ull,
       0x30a81487106fdda6ull},
      {"commuter-corridor", 0xa4f0e02f1480b369ull, 0x7fa0532394a5fa26ull,
       0xb285e3fc05ab9028ull, 0x867ef6a6fd2402e8ull, 0x41eaa14fd3e939e3ull,
       0xedbfc72e3b8dbc23ull},
      {"highway-convoy", 0x318d816c7e03e0b3ull, 0xf7d67618c9515803ull,
       0x05437b00c43c1ca0ull, 0x69f5f25889674a60ull, 0x64f8589ae655c5abull,
       0x52526f801999a2ebull},
      {"eu-band-plan", 0x1accb5267c83690dull, 0xf1d59cdf79f24cf3ull,
       0x444c22e9f04b8b1bull, 0x5a219566cd5e48dbull, 0xf3becf1fe96f0140ull,
       0x2a139609f1967280ull},
      {"degraded-coverage-storm", 0x4342e3354781037aull,
       0x0e58d6dc0e9df6d2ull, 0x8fece9f7addfd60dull, 0x65334eb2c39574cdull,
       0x8ba765a0737c12aaull, 0xbfea7d02a7a599eaull},
      {"promotion-override", 0x163bb271cc116b2cull, 0x623635249d0338a1ull,
       0x48877394af9b5383ull, 0xb869b4e0863adc43ull, 0xdc920bb09811e578ull,
       0x2041ef0d8ca13eb8ull},
  };
  return pins;
}

std::vector<ScenarioSpec> pinned_specs() {
  std::vector<ScenarioSpec> all = builtin_scenarios();
  all.push_back(promotion_override());
  return all;
}

TEST(ScenarioContract, HashAndCanonicalJsonArePinned) {
  const std::vector<ScenarioSpec> all = pinned_specs();
  ASSERT_EQ(all.size(), spec_pins().size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpecPin& pin = spec_pins()[i];
    ASSERT_EQ(all[i].name, pin.name);
    EXPECT_EQ(scenario_hash(all[i]), pin.hash) << pin.name;
    EXPECT_EQ(dataset::fnv1a(to_json(all[i])), pin.json_fnv) << pin.name;
  }
  // Inherited promotions are left out of the JSON, overrides are written.
  EXPECT_NE(to_json(paper_default()).find("\"promotion\":{},"),
            std::string::npos);
  EXPECT_NE(to_json(promotion_override())
                .find("\"promotion\":{\"hs5g_given_dl\":0.25,"
                      "\"low5g_given_traffic\":0.5},"),
            std::string::npos);
}

TEST(ScenarioContract, FingerprintsArePinnedAtStride64) {
  const std::vector<ScenarioSpec> all = pinned_specs();
  ASSERT_EQ(all.size(), spec_pins().size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpecPin& pin = spec_pins()[i];
    const auto campaign = trip::CampaignConfig::from_scenario(all[i], 64);
    const auto apps = apps::AppCampaignConfig::from_scenario(all[i], 64);
    EXPECT_EQ(dataset::fingerprint(campaign), pin.campaign) << pin.name;
    EXPECT_EQ(dataset::fingerprint_static(campaign), pin.campaign_static)
        << pin.name;
    EXPECT_EQ(dataset::fingerprint(apps), pin.apps) << pin.name;
    EXPECT_EQ(dataset::fingerprint_static(apps), pin.apps_static) << pin.name;
  }
}

// One error per document, so the message does not depend on the order in
// which the reader visits keys.
TEST(ScenarioContract, MalformedDocumentsGetExactMessages) {
  const std::pair<const char*, const char*> cases[] = {
      // A wrong type for each field kind.
      {R"({"name": 5})", "name must be a string"},
      {R"({"description": null})", "description must be a string"},
      {R"({"seed": "42"})", "seed must be a number"},
      {R"({"seed": -1})", "seed must be a non-negative integer"},
      {R"({"seed": 1.5})", "seed must be a non-negative integer"},
      {R"({"timing": {"slot_ms": "20"}})", "timing.slot_ms must be a number"},
      {R"({"drive": {"start_hour_local": 8.5}})",
       "drive.start_hour_local must be an integer"},
      {R"({"drive": {"start_hour_local": true}})",
       "drive.start_hour_local must be a number"},
      {R"({"apps": {"ar": 1}})", "apps.ar must be a boolean"},
      {R"({"route": {"waypoints": [
         {"name": "A", "lat": 1, "lon": 2, "edge_server": "yes"}]}})",
       "route.waypoints[0].edge_server must be a boolean"},
      {R"({"operators": [{"name": 7, "calibration": "att"}]})",
       "operators[0].name must be a string"},
      {R"({"operators": [{"name": "A", "calibration": "att",
                          "promotion": {"hs5g_given_dl": "high"}}]})",
       "operators[0].promotion.hs5g_given_dl must be a number"},
      {R"({"bands": {"5G-mid": {"carrier_mhz": "3500"}}})",
       "bands.5G-mid.carrier_mhz must be a number"},
      {R"({"bands": {"LTE": {"max_cc_dl": 2.5}}})",
       "bands.LTE.max_cc_dl must be an integer"},
      {R"({"route": {"waypoints": {}}})", "route.waypoints must be an array"},
      {R"({"operators": "Verizon"})", "operators must be an array"},
      // A non-object at each nesting level.
      {"[]", "scenario document must be an object"},
      {R"({"timing": 20})", "timing must be an object"},
      {R"({"route": []})", "route must be an object"},
      {R"({"route": {"waypoints": [1]}})",
       "route.waypoints[0] must be an object"},
      {R"({"operators": [null]})", "operators[0] must be an object"},
      {R"({"operators": [{"name": "A", "calibration": "att",
                          "promotion": 0.5}]})",
       "operators[0].promotion must be an object"},
      {R"({"bands": "US"})", "bands must be an object"},
      {R"({"bands": {"LTE-A": 2600}})", "bands.LTE-A must be an object"},
      // An unknown key at every level.
      {R"({"nam": "x"})", "unknown key nam"},
      {R"({"speed": {"warp": 9}})", "unknown key speed.warp"},
      {R"({"route": {"waypoints": [
         {"name": "A", "lat": 1, "lon": 2, "alt": 300}]}})",
       "unknown key route.waypoints[0].alt"},
      {R"({"operators": [{"name": "A", "calibration": "att"},
         {"name": "B", "calibration": "att", "colour": "red"}]})",
       "unknown key operators[1].colour"},
      {R"({"operators": [{"name": "A", "calibration": "att",
                          "promotion": {"hs6g_given_dl": 0.5}}]})",
       "unknown key operators[0].promotion.hs6g_given_dl"},
      {R"({"bands": {"6G": {"carrier_mhz": 1}}})",
       "unknown band \"6G\" in bands"},
      {R"({"bands": {"5G-low": {"carrier_ghz": 0.6}}})",
       "unknown key bands.5G-low.carrier_ghz"},
      // Missing required keys.
      {R"({"route": {"waypoints": [{"name": "A", "lat": 1, "lon": 2},
                                   {"name": "B", "lon": 4}]}})",
       "route.waypoints[1] requires name, lat, and lon"},
      {R"({"operators": [{"name": "A", "calibration": "att"},
         {"name": "B", "calibration": "att"}, {"calibration": "att"}]})",
       "operators[2] requires name and calibration"},
      // validate() runs on the parsed spec.
      {R"({"speed": {"urban_mph": -5}})",
       "speed.urban_mph must be a positive number"},
      {R"({"seed": 9007199254740994})", "seed must be a non-negative integer"},
  };
  for (const auto& [doc, message] : cases) {
    EXPECT_EQ(error_of(doc), std::string("scenario: ") + message) << doc;
  }
}

// validate() messages for specs built in code: values no JSON document can
// spell (NaN) or that the reader refuses first (a seed above 2^53).
std::string validate_error(const ScenarioSpec& spec) {
  try {
    validate(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioContract, NanWaypointIsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ScenarioSpec lat = paper_default();
  lat.route.waypoints[1].lat = nan;
  EXPECT_EQ(validate_error(lat),
            "scenario: route.waypoints[1].lat out of [-90, 90]");
  ScenarioSpec lon = paper_default();
  lon.route.waypoints[0].lon = nan;
  EXPECT_EQ(validate_error(lon),
            "scenario: route.waypoints[0].lon out of [-180, 180]");
  // The range ends themselves are valid.
  ScenarioSpec ends = paper_default();
  ends.route.waypoints[0].lat = -90.0;
  ends.route.waypoints[0].lon = 180.0;
  EXPECT_EQ(validate_error(ends), "");
}

// 2^53 is the largest seed a document carries exactly, so the largest
// that to_json writes for the reader to read back.
TEST(ScenarioContract, SeedsUpTo2To53RoundTrip) {
  constexpr std::uint64_t kMax = std::uint64_t{1} << 53;
  ScenarioSpec spec = paper_default();
  spec.seed = kMax;
  EXPECT_EQ(validate_error(spec), "");
  EXPECT_EQ(parse_scenario_json(to_json(spec)).seed, kMax);
  spec.seed = kMax + 2;  // the next integer a double holds
  EXPECT_EQ(validate_error(spec),
            "scenario: seed must be at most 2^53 (9007199254740992)");
  EXPECT_EQ(error_of(to_json(spec)),
            "scenario: seed must be a non-negative integer");
}

TEST(ScenarioContract, ObjectsMergeAndArraysReplace) {
  const ScenarioSpec base = paper_default();
  const ScenarioSpec s = parse_scenario_json(R"({
    "speed": {"urban_mph": 10},
    "bands": {"LTE": {"carrier_mhz": 1800}},
    "operators": [{"name": "A", "calibration": "verizon", "load_scale": 2},
                  {"name": "B", "calibration": "tmobile",
                   "promotion": {"any5g_given_idle": 0.5}},
                  {"name": "C", "calibration": "att"}]})");
  EXPECT_TRUE(s.description.empty());  // a delta describes itself
  EXPECT_EQ(s.speed.urban_mph, 10.0);
  EXPECT_EQ(s.speed.max_mph, base.speed.max_mph);
  EXPECT_EQ(s.bands.profile(radio::Tech::LTE).carrier.value, 1800.0);
  EXPECT_EQ(s.bands.profile(radio::Tech::LTE).typical_range.value,
            base.bands.profile(radio::Tech::LTE).typical_range.value);
  EXPECT_EQ(s.route.waypoints.size(), base.route.waypoints.size());
  // Each element starts from its default, not from the replaced entry.
  ASSERT_EQ(s.operators.size(), 3u);
  EXPECT_EQ(s.operators[0].load_scale, 2.0);
  EXPECT_EQ(s.operators[0].availability_scale, 1.0);
  EXPECT_TRUE(std::isnan(s.operators[0].promotion.hs5g_given_dl));
  EXPECT_EQ(s.operators[1].promotion.any5g_given_idle, 0.5);
  EXPECT_TRUE(std::isnan(s.operators[1].promotion.hs5g_given_ul));
}

}  // namespace
}  // namespace wheels::scenario
