// The hard requirement of the parallel campaign engine: the jobs count is
// a pure wall-clock knob. jobs=1 (fully sequential, no threads at all) and
// jobs=N must produce byte-identical serialized datasets, and the parallel
// path must still hit the PR-2 golden checksum that pins every stochastic
// process of the seed-42 stride-64 campaign.
//
// These tests are also the tsan workload: the tsan-parallel preset runs
// the *MatchesAcrossJobs and *FromTwoThreads tests with WHEELS_JOBS=4 to
// prove the replay workers (the drive campaign's and the app campaign's)
// share no unsynchronized state, and that every run owns its state: two
// runs on one runner, concurrent or back to back, each simulate from fresh
// phones and land on the same bytes.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>

#include "apps/app_campaign.h"
#include "contract_pins.h"
#include "dataset/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/spec.h"
#include "trip/campaign.h"

namespace wheels::trip {
namespace {

// Stride 256 keeps a full-route drive (every segment kind, all four
// timezones) at a few seconds per run: determinism bugs are scheduling
// bugs, not sample-count bugs, so a sparse campaign finds them too.
CampaignConfig sparse_cfg() {
  CampaignConfig cfg;
  cfg.seed = 42;
  cfg.cycle_stride = 256;
  return cfg;
}

TEST(ParallelDeterminism, CampaignMatchesAcrossJobs) {
  Campaign sequential(sparse_cfg());
  sequential.set_jobs(1);
  const std::string bytes1 = dataset::encode(sequential.run());

  Campaign parallel(sparse_cfg());
  parallel.set_jobs(4);
  ASSERT_EQ(parallel.jobs(), 4);
  const std::string bytes4 = dataset::encode(parallel.run());

  ASSERT_EQ(bytes1.size(), bytes4.size());
  EXPECT_TRUE(bytes1 == bytes4)
      << "jobs=4 campaign diverged from jobs=1: replay is reading "
         "cross-operator state";
}

TEST(ParallelDeterminism, StaticBaselinesMatchAcrossJobs) {
  Campaign sequential(sparse_cfg());
  sequential.set_jobs(1);
  Campaign parallel(sparse_cfg());
  parallel.set_jobs(4);

  for (auto op : ran::kAllOperators) {
    const std::string bytes1 =
        dataset::encode(sequential.run_static_baseline(op));
    const std::string bytes4 =
        dataset::encode(parallel.run_static_baseline(op));
    EXPECT_TRUE(bytes1 == bytes4)
        << "static baseline for " << to_string(op)
        << " diverged across jobs: a city is consuming another city's "
           "RNG stream";
  }
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreIdentical) {
  // Same Campaign object, run twice.
  Campaign c(sparse_cfg());
  c.set_jobs(4);
  const auto& first = c.run();
  const auto& second = c.run();
  EXPECT_TRUE(dataset::encode(first) == dataset::encode(second));

  // And a distinct instance at a different jobs value reproduces it.
  Campaign again(sparse_cfg());
  again.set_jobs(2);
  EXPECT_TRUE(dataset::encode(first) == dataset::encode(again.run()));
}

TEST(ParallelDeterminism, GoldenChecksumWithParallelJobs) {
  // The same pin as test_dataset_cache.cpp (seed 42, stride 64), read
  // from the generated tests/contract_pins.h: the parallel engine must
  // land on the exact bytes the sequential PR-2 engine produced. An
  // intentional simulation change repins tools/contracts.json once and
  // every consumer follows.
  CampaignConfig cfg;
  cfg.seed = contract::kGoldenSeed;
  cfg.cycle_stride = contract::kGoldenStride;
  Campaign c(cfg);
  c.set_jobs(4);
  const std::uint64_t checksum = dataset::fnv1a(dataset::encode(c.run()));
  EXPECT_EQ(checksum, contract::kGoldenCampaignChecksum)
      << "parallel campaign produced 0x" << std::hex << checksum;
}

TEST(ParallelDeterminism, CampaignRunIsSafeFromTwoThreads) {
  // run() is const and every call builds its own phones, logs and
  // scratch: two threads running one Campaign at once share only the
  // read-only World, and each gets the jobs=1 bytes.
  Campaign sequential(sparse_cfg());
  sequential.set_jobs(1);
  const std::string bytes1 = dataset::encode(sequential.run());

  Campaign shared(sparse_cfg());
  shared.set_jobs(4);
  const Campaign& c = shared;
  std::string bytes_a;
  std::string bytes_b;
  std::thread a([&] { bytes_a = dataset::encode(c.run()); });
  std::thread b([&] { bytes_b = dataset::encode(c.run()); });
  a.join();
  b.join();
  EXPECT_TRUE(bytes_a == bytes1)
      << "a concurrent run() diverged from the jobs=1 run";
  EXPECT_TRUE(bytes_b == bytes1)
      << "a concurrent run() diverged from the jobs=1 run";
}

TEST(ParallelDeterminism, ObservabilityTransparentAcrossJobs) {
  // The obs hard invariant: collecting metrics and trace spans is
  // bit-transparent. With tracing armed (the most invasive obs mode --
  // every phase span heap-allocates and locks the collector), jobs=1 and
  // jobs=4 must still agree byte-for-byte, and the stable-only metrics
  // export must be identical across jobs values too.
  obs::set_trace_enabled(true);
  obs::clear_trace_events();
  obs::Registry& reg = obs::Registry::global();

  reg.reset_values_for_testing();
  Campaign sequential(sparse_cfg());
  sequential.set_jobs(1);
  const std::string bytes1 = dataset::encode(sequential.run());
  const std::string stable1 = obs::to_jsonl(reg.snapshot(),
                                            /*stable_only=*/true);

  reg.reset_values_for_testing();
  Campaign parallel(sparse_cfg());
  parallel.set_jobs(4);
  const std::string bytes4 = dataset::encode(parallel.run());
  const std::string stable4 = obs::to_jsonl(reg.snapshot(),
                                            /*stable_only=*/true);

  const bool spans_collected = !obs::trace_events().empty();
  obs::set_trace_enabled(false);
  obs::clear_trace_events();

  EXPECT_TRUE(spans_collected)
      << "tracing was supposed to be live during both runs";
  EXPECT_TRUE(bytes1 == bytes4)
      << "enabling tracing changed the campaign bytes";
  EXPECT_EQ(stable1, stable4)
      << "Det::Stable metrics must be byte-stable across WHEELS_JOBS";
}

TEST(ParallelDeterminism, GoldenChecksumWithObservabilityEnabled) {
  // Same pin as GoldenChecksumWithParallelJobs, now with tracing live:
  // the seed-42 stride-64 bytes may not move when observability is on.
  obs::set_trace_enabled(true);
  obs::clear_trace_events();

  CampaignConfig cfg;
  cfg.seed = contract::kGoldenSeed;
  cfg.cycle_stride = contract::kGoldenStride;
  Campaign c(cfg);
  c.set_jobs(4);
  const std::uint64_t checksum = dataset::fnv1a(dataset::encode(c.run()));

  obs::set_trace_enabled(false);
  obs::clear_trace_events();
  EXPECT_EQ(checksum, contract::kGoldenCampaignChecksum)
      << "campaign with tracing enabled produced 0x" << std::hex << checksum;
}

// The app campaign's phones and per-city app baselines run on workers
// too. A short library scenario at stride 64 keeps these cheap enough for
// the tsan preset while covering every app family and segment kind.
constexpr std::string_view kAppScenario = "eu-band-plan";
constexpr int kAppStride = 64;

std::uint64_t app_pin(std::string_view kind, std::string_view op = "") {
  for (const contract::DatasetPin& pin : contract::kDatasetPins) {
    if (pin.scenario == kAppScenario && pin.kind == kind && pin.op == op) {
      EXPECT_EQ(pin.stride, kAppStride);
      return pin.checksum;
    }
  }
  ADD_FAILURE() << "no " << kind << " pin for " << kAppScenario;
  return 0;
}

apps::AppCampaignConfig app_cfg() {
  return apps::AppCampaignConfig::from_scenario(
      scenario::load_scenario(std::string(kAppScenario)), kAppStride);
}

TEST(ParallelDeterminism, AppCampaignMatchesAcrossJobs) {
  apps::AppCampaign sequential(app_cfg());
  sequential.set_jobs(1);
  const std::string bytes1 = dataset::encode(sequential.run());

  apps::AppCampaign parallel(app_cfg());
  parallel.set_jobs(4);
  ASSERT_EQ(parallel.jobs(), 4);
  const std::string bytes4 = dataset::encode(parallel.run());

  EXPECT_TRUE(bytes1 == bytes4)
      << "jobs=4 app campaign diverged from jobs=1: a phone is reading "
         "another phone's state";
  const std::uint64_t checksum = dataset::fnv1a(bytes1);
  EXPECT_EQ(checksum, app_pin("app-campaign"))
      << "app campaign produced 0x" << std::hex << checksum;
}

TEST(ParallelDeterminism, AppStaticBaselinesMatchAcrossJobs) {
  apps::AppCampaign sequential(app_cfg());
  sequential.set_jobs(1);
  apps::AppCampaign parallel(app_cfg());
  parallel.set_jobs(4);

  for (auto op : ran::kAllOperators) {
    const std::string bytes1 =
        dataset::encode(sequential.run_static_baseline(op));
    const std::string bytes4 =
        dataset::encode(parallel.run_static_baseline(op));
    EXPECT_TRUE(bytes1 == bytes4)
        << "app static baseline for " << to_string(op)
        << " diverged across jobs: a city is consuming another city's "
           "RNG stream";
    const std::uint64_t checksum = dataset::fnv1a(bytes1);
    EXPECT_EQ(checksum, app_pin("app-static-baseline", to_string(op)))
        << to_string(op) << " app static baseline produced 0x" << std::hex
        << checksum;
  }
}

TEST(ParallelDeterminism, AppCampaignRunIsSafeFromTwoThreads) {
  // run() is const and builds its phones and records per call: two
  // threads running one AppCampaign at once each get the complete,
  // pinned result.
  apps::AppCampaign shared(app_cfg());
  shared.set_jobs(4);
  const apps::AppCampaign& c = shared;
  std::string bytes_first;
  std::string bytes_second;
  std::thread a([&] { bytes_first = dataset::encode(c.run()); });
  std::thread b([&] { bytes_second = dataset::encode(c.run()); });
  a.join();
  b.join();
  EXPECT_TRUE(bytes_first == bytes_second)
      << "a concurrent run() returned a different result";
  EXPECT_EQ(dataset::fnv1a(bytes_first), app_pin("app-campaign"));
}

TEST(ParallelDeterminism, CampaignRepeatedRunReturnsPinnedBytes) {
  // A second run() on the same instance re-simulates from fresh phones
  // (nothing of the first run persists in the Campaign) and lands on the
  // pinned bytes again. The app tests' scenario at its pinned campaign
  // stride keeps both runs cheap enough for the tsan preset.
  const contract::DatasetPin* pin = nullptr;
  for (const contract::DatasetPin& p : contract::kDatasetPins) {
    if (p.scenario == kAppScenario && p.kind == "campaign") pin = &p;
  }
  ASSERT_NE(pin, nullptr) << "no campaign pin for " << kAppScenario;
  Campaign c(CampaignConfig::from_scenario(
      scenario::load_scenario(std::string(kAppScenario)), pin->stride));
  c.set_jobs(4);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t checksum = dataset::fnv1a(dataset::encode(c.run()));
    EXPECT_EQ(checksum, pin->checksum)
        << "run " << i << " produced 0x" << std::hex << checksum;
  }
}

TEST(ParallelDeterminism, AppCampaignRepeatedRunReturnsPinnedBytes) {
  // A second run() on the same instance re-simulates from fresh phones
  // and lands on the pinned bytes again.
  apps::AppCampaign c(app_cfg());
  c.set_jobs(4);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t checksum = dataset::fnv1a(dataset::encode(c.run()));
    EXPECT_EQ(checksum, app_pin("app-campaign"))
        << "run " << i << " produced 0x" << std::hex << checksum;
  }
}

}  // namespace
}  // namespace wheels::trip
