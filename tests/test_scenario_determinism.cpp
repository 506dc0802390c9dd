// Determinism proofs for the scenario engine.
//
// Three hard requirements: (1) the paper-default scenario, routed through
// CampaignConfig::from_scenario, reproduces the golden seed-42 stride-64
// checksum byte-for-byte -- the scenario layer is a pure refactor of the
// hardcoded campaign; (2) every library scenario is byte-identical at
// jobs=1 and jobs=4 (the tsan-parallel preset runs a subset of these as
// its scenario workload); (3) every dataset of every library scenario
// matches its per-dataset pin in tests/contract_pins.h.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "apps/app_campaign.h"
#include "contract_pins.h"
#include "dataset/provider.h"
#include "dataset/serialize.h"
#include "scenario/spec.h"
#include "trip/campaign.h"

namespace wheels::trip {
namespace {

const contract::DatasetPin* find_pin(std::string_view scenario,
                                     std::string_view kind,
                                     std::string_view op = "") {
  for (const contract::DatasetPin& pin : contract::kDatasetPins) {
    if (pin.scenario == scenario && pin.kind == kind && pin.op == op) {
      return &pin;
    }
  }
  return nullptr;
}

std::string scenario_bytes(const std::string& name, int stride, int jobs) {
  Campaign c(CampaignConfig::from_scenario(scenario::load_scenario(name),
                                           stride));
  c.set_jobs(jobs);
  return dataset::encode(c.run());
}

void expect_matches_across_jobs(const std::string& name, int stride) {
  const std::string bytes1 = scenario_bytes(name, stride, 1);
  const std::string bytes4 = scenario_bytes(name, stride, 4);
  ASSERT_EQ(bytes1.size(), bytes4.size()) << name;
  EXPECT_TRUE(bytes1 == bytes4)
      << "scenario " << name << " diverged between jobs=1 and jobs=4";
  const contract::DatasetPin* pin = find_pin(name, "campaign");
  ASSERT_NE(pin, nullptr) << "no campaign pin for " << name;
  ASSERT_EQ(pin->stride, stride) << name;
  const std::uint64_t checksum = dataset::fnv1a(bytes1);
  EXPECT_EQ(checksum, pin->checksum)
      << name << " campaign produced 0x" << std::hex << checksum;
}

// The seven datasets of a scenario besides its campaign -- three static
// baselines, the app campaign and three app static baselines -- at
// stride 64, resolved the way `wheels_campaign generate` resolves them
// but with no disk cache, each checked against its pin.
void expect_datasets_match_pins(const std::string& name) {
  const scenario::ScenarioSpec spec = scenario::load_scenario(name);
  ASSERT_EQ(spec.seed, contract::kDatasetPinSeed) << name;
  dataset::ProviderOptions opts;
  opts.use_cache = false;
  dataset::CampaignProvider provider(opts);
  const auto cfg = CampaignConfig::from_scenario(spec, 64);
  const auto app_cfg = apps::AppCampaignConfig::from_scenario(spec, 64);
  int checked = 0;
  for (const contract::DatasetPin& pin : contract::kDatasetPins) {
    if (pin.scenario != name || pin.kind == "campaign") continue;
    ASSERT_EQ(pin.stride, 64) << name << " " << pin.kind;
    ran::OperatorId op = ran::OperatorId::Verizon;
    for (ran::OperatorId o : ran::kAllOperators) {
      if (ran::to_string(o) == pin.op) op = o;
    }
    std::string bytes;
    if (pin.kind == "static-baseline") {
      bytes = dataset::encode(*provider.resolve_static(cfg, op));
    } else if (pin.kind == "app-campaign") {
      bytes = dataset::encode(*provider.resolve_apps(app_cfg));
    } else {
      ASSERT_EQ(pin.kind, "app-static-baseline");
      bytes = dataset::encode(*provider.resolve_apps_static(app_cfg, op));
    }
    const std::uint64_t checksum = dataset::fnv1a(bytes);
    EXPECT_EQ(checksum, pin.checksum)
        << name << " " << pin.kind << " " << pin.op << " produced 0x"
        << std::hex << checksum;
    ++checked;
  }
  EXPECT_EQ(checked, 7) << "expected 7 non-campaign pins for " << name;
}

TEST(ScenarioDeterminism, PaperDefaultReproducesGoldenChecksum) {
  // The load-bearing claim of the whole refactor: a config *derived from
  // the declarative spec* lands on the exact pinned bytes of the
  // hand-rolled pre-scenario engine.
  const scenario::ScenarioSpec spec = scenario::paper_default();
  ASSERT_EQ(spec.seed, contract::kGoldenSeed);
  Campaign c(CampaignConfig::from_scenario(spec, contract::kGoldenStride));
  c.set_jobs(4);
  const std::uint64_t checksum = dataset::fnv1a(dataset::encode(c.run()));
  EXPECT_EQ(checksum, contract::kGoldenCampaignChecksum)
      << "scenario-derived paper-default produced 0x" << std::hex << checksum;
}

// Per-scenario jobs=1 vs jobs=4 agreement. Strides are chosen so each run
// covers the scenario's full (short) route in a few seconds; determinism
// bugs are scheduling bugs, not sample-count bugs.
TEST(ScenarioDeterminism, UrbanLoopMatchesAcrossJobs) {
  expect_matches_across_jobs("urban-loop", 16);
}

TEST(ScenarioDeterminism, CommuterCorridorMatchesAcrossJobs) {
  expect_matches_across_jobs("commuter-corridor", 32);
}

TEST(ScenarioDeterminism, HighwayConvoyMatchesAcrossJobs) {
  expect_matches_across_jobs("highway-convoy", 64);
}

TEST(ScenarioDeterminism, EuBandPlanMatchesAcrossJobs) {
  expect_matches_across_jobs("eu-band-plan", 32);
}

TEST(ScenarioDeterminism, DegradedCoverageStormMatchesAcrossJobs) {
  expect_matches_across_jobs("degraded-coverage-storm", 32);
}

TEST(ScenarioDeterminism, PaperDefaultDatasetsMatchPins) {
  expect_datasets_match_pins("paper-default");
}

TEST(ScenarioDeterminism, UrbanLoopDatasetsMatchPins) {
  expect_datasets_match_pins("urban-loop");
}

TEST(ScenarioDeterminism, CommuterCorridorDatasetsMatchPins) {
  expect_datasets_match_pins("commuter-corridor");
}

TEST(ScenarioDeterminism, HighwayConvoyDatasetsMatchPins) {
  expect_datasets_match_pins("highway-convoy");
}

TEST(ScenarioDeterminism, EuBandPlanDatasetsMatchPins) {
  expect_datasets_match_pins("eu-band-plan");
}

TEST(ScenarioDeterminism, DegradedCoverageStormDatasetsMatchPins) {
  expect_datasets_match_pins("degraded-coverage-storm");
}

TEST(ScenarioDeterminism, ScenariosProduceDistinctBytes) {
  // Differently-specified worlds must not collapse onto the same dataset
  // (a symptom of the spec not actually being threaded through).
  const std::string urban = scenario_bytes("urban-loop", 64, 1);
  const std::string storm = scenario_bytes("degraded-coverage-storm", 64, 1);
  EXPECT_FALSE(urban == storm);
}

}  // namespace
}  // namespace wheels::trip
