// Scenario engine unit tests: JSON parsing (strict keys, helpful errors),
// validation of malformed specs, canonical serialization round-trips,
// scenario hashing, the built-in library, and the scenarios/ directory
// staying in sync with the built-ins it mirrors.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "apps/app_campaign.h"
#include "dataset/fingerprint.h"
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

TEST(ScenarioSpecTest, RejectsUnknownKey) {
  EXPECT_NE(error_of(R"({"nam": "x"})").find("unknown key nam"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"speed": {"warp": 9}})")
                .find("unknown key speed.warp"),
            std::string::npos);
}

TEST(ScenarioSpecTest, RejectsUnknownBand) {
  EXPECT_NE(error_of(R"({"bands": {"6G": {"carrier_mhz": 1}}})")
                .find("unknown band \"6G\""),
            std::string::npos);
}

TEST(ScenarioSpecTest, RejectsNegativeSpeed) {
  EXPECT_THROW((void)parse_scenario_json(R"({"speed": {"urban_mph": -5}})"),
               std::invalid_argument);
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
  EXPECT_EQ(load_scenario("urban-loop").name, "urban-loop");
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

}  // namespace
}  // namespace wheels::scenario
