// Provider/cache integration at the smoke stride: a warm cache must serve
// byte-identical data without simulating, corruption must degrade to
// re-simulation, the seed-42 stride-64 dataset is pinned by checksum so an
// accidental change to any stochastic process (or to the encoder) is
// caught here rather than as a silent drift of every figure, and the exact
// work of a cold and a warm pass is pinned by its counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "contract_pins.h"
#include "dataset/cache.h"
#include "dataset/fingerprint.h"
#include "dataset/provider.h"
#include "dataset/serialize.h"
#include "obs/metrics.h"
#include "scenario/spec.h"

namespace wheels::dataset {
namespace {

namespace fs = std::filesystem;

// All determinism pins come from tests/contract_pins.h (generated from
// tools/contracts.json); an intentional simulation or schema change is a
// registry edit + `tools/wheels_contract.py --fix-pins`, never an edit
// here. The container format the cache writes must be the registry's.
static_assert(kSchemaVersion == contract::kSchemaVersion,
              "src/dataset/serialize.h schema drifted from the registry");
static_assert(kMagic == contract::kDatasetMagic,
              "src/dataset/serialize.h magic drifted from the registry");

constexpr int kStride = contract::kGoldenStride;
constexpr std::uint64_t kGoldenCampaignChecksum =
    contract::kGoldenCampaignChecksum;

const char kDir[] = "dataset-cache-test";

trip::CampaignConfig small_cfg() {
  trip::CampaignConfig cfg;
  cfg.seed = contract::kGoldenSeed;
  cfg.cycle_stride = kStride;
  return cfg;
}

apps::AppCampaignConfig small_app_cfg() {
  apps::AppCampaignConfig cfg;
  cfg.seed = contract::kGoldenSeed;
  cfg.cycle_stride = kStride;
  return cfg;
}

ProviderOptions opts() {
  ProviderOptions o;
  o.cache_dir = kDir;
  return o;
}

TEST(DatasetCache, WarmCacheEqualsFreshSimulation) {
  fs::remove_all(kDir);

  CampaignProvider fresh(opts());
  const auto& res = fresh.load_or_run(small_cfg());
  EXPECT_EQ(fresh.campaign_simulations(), 1);
  EXPECT_EQ(fresh.disk_hits(), 0);

  // Second ask in the same process: the in-memory memo, not a second
  // simulation and not even a disk read.
  const auto& again = fresh.load_or_run(small_cfg());
  EXPECT_EQ(&res, &again);
  EXPECT_EQ(fresh.campaign_simulations(), 1);
  EXPECT_EQ(fresh.disk_hits(), 0);

  // A new provider over the same directory (a fresh process, as far as the
  // cache is concerned) must serve identical data purely from disk.
  CampaignProvider warm(opts());
  const auto& cached = warm.load_or_run(small_cfg());
  EXPECT_EQ(warm.campaign_simulations(), 0);
  EXPECT_EQ(warm.disk_hits(), 1);
  EXPECT_TRUE(res == cached);
}

TEST(DatasetCache, GoldenChecksumPinsSeed42Dataset) {
  // The previous test left the dataset on disk; load it without
  // simulating.
  CampaignProvider p(opts());
  const auto& res = p.load_or_run(small_cfg());
  ASSERT_EQ(p.campaign_simulations(), 0) << "expected a warm cache";
  const std::uint64_t checksum = fnv1a(encode(res));
  EXPECT_EQ(checksum, kGoldenCampaignChecksum)
      << "seed-42 stride-64 dataset changed; if intentional, repin the "
      << "golden in tools/contracts.json to 0x" << std::hex << checksum
      << " and rerun tools/wheels_contract.py --fix-pins --fix-docs";
}

// The provider decodes the golden file straight from disk, a piece at a
// time; at the loader's piece length and at lengths where fields straddle
// refills it must equal the in-memory decode of the same payload.
TEST(DatasetCache, GoldenCampaignDecodesInPieces) {
  const std::uint64_t fp = fingerprint(small_cfg());
  const DatasetCache cache(kDir);
  const auto payload =
      cache.load(DatasetKind::Campaign, fp, ran::OperatorId::Verizon);
  ASSERT_TRUE(payload.has_value()) << "expected a warm cache";
  EXPECT_EQ(fnv1a(*payload), kGoldenCampaignChecksum);
  trip::CampaignResult from_memory;
  ASSERT_TRUE(decode(*payload, from_memory));

  trip::CampaignResult loaded;
  ASSERT_TRUE(cache.load_into(DatasetKind::Campaign, fp,
                              ran::OperatorId::Verizon, loaded));
  EXPECT_TRUE(loaded == from_memory);
  const std::string path =
      cache.path_for(DatasetKind::Campaign, fp, ran::OperatorId::Verizon);
  for (const std::size_t piece : {std::size_t{4093}, std::size_t{7}}) {
    CacheFileReader reader(path, DatasetKind::Campaign, fp, piece);
    trip::CampaignResult out;
    EXPECT_TRUE(decode(reader, out)) << "pieces of " << piece;
    EXPECT_TRUE(reader.verified()) << "pieces of " << piece;
    EXPECT_TRUE(out == from_memory) << "pieces of " << piece;
  }
}

TEST(DatasetCache, CorruptFileFallsBackToSimulation) {
  const auto cfg = small_cfg();
  const std::uint64_t fp = fingerprint(cfg);
  const fs::path path = fs::path(kDir) / DatasetCache::file_name(
      DatasetKind::Campaign, fp, ran::OperatorId::Verizon);
  ASSERT_TRUE(fs::exists(path));

  // Reference copy (memo) before corrupting the file.
  CampaignProvider reference(opts());
  const auto& good = reference.load_or_run(cfg);
  ASSERT_EQ(reference.campaign_simulations(), 0);

  // Flip one payload byte on disk.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-1, std::ios::end);
    char c = 0;
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x5a));
  }

  CampaignProvider repaired(opts());
  const auto& resim = repaired.load_or_run(cfg);
  EXPECT_EQ(repaired.campaign_simulations(), 1)
      << "corrupt cache entry must re-simulate, not serve garbage";
  EXPECT_EQ(repaired.disk_hits(), 0);
  EXPECT_TRUE(good == resim);

  // The re-simulation healed the cache entry.
  CampaignProvider healed(opts());
  healed.load_or_run(cfg);
  EXPECT_EQ(healed.campaign_simulations(), 0);
  EXPECT_EQ(healed.disk_hits(), 1);
}

TEST(DatasetCache, AppCampaignRoundTripsThroughCache) {
  CampaignProvider fresh(opts());
  const auto& res = fresh.load_or_run_apps(small_app_cfg());
  EXPECT_EQ(fresh.campaign_simulations(), 1);

  CampaignProvider warm(opts());
  const auto& cached = warm.load_or_run_apps(small_app_cfg());
  EXPECT_EQ(warm.campaign_simulations(), 0);
  EXPECT_EQ(warm.disk_hits(), 1);
  EXPECT_TRUE(res == cached);
}

TEST(DatasetCache, EnvVariableDisablesDiskCache) {
  // Static baselines are cheap enough to simulate twice here.
  const auto cfg = small_cfg();
  CampaignProvider writer(opts());
  const auto& sb = writer.load_or_run_static(cfg, ran::OperatorId::Verizon);
  EXPECT_EQ(writer.baseline_simulations(), 1);

  ASSERT_EQ(setenv("WHEELS_DATASET_CACHE", "0", 1), 0);
  CampaignProvider bypass(opts());
  EXPECT_FALSE(bypass.cache_enabled());
  const auto& sb2 = bypass.load_or_run_static(cfg, ran::OperatorId::Verizon);
  EXPECT_EQ(bypass.baseline_simulations(), 1)
      << "WHEELS_DATASET_CACHE=0 must force re-simulation";
  EXPECT_EQ(bypass.disk_hits(), 0);
  EXPECT_TRUE(sb == sb2);
  ASSERT_EQ(unsetenv("WHEELS_DATASET_CACHE"), 0);

  // With the variable cleared the same directory serves hits again.
  CampaignProvider reader(opts());
  reader.load_or_run_static(cfg, ran::OperatorId::Verizon);
  EXPECT_EQ(reader.baseline_simulations(), 0);
  EXPECT_EQ(reader.disk_hits(), 1);
}

std::int64_t counter(const obs::Snapshot& snap, std::string_view name) {
  const obs::MetricValue* mv = snap.find(name);
  return mv != nullptr ? mv->value : 0;
}

// Every dataset `wheels_campaign generate` resolves for one scenario.
void resolve_every_dataset(CampaignProvider& p,
                           const trip::CampaignConfig& cfg,
                           const apps::AppCampaignConfig& app_cfg) {
  p.load_or_run(cfg);
  for (auto op : ran::kAllOperators) p.load_or_run_static(cfg, op);
  p.load_or_run_apps(app_cfg);
  for (auto op : ran::kAllOperators) p.load_or_run_apps_static(app_cfg, op);
}

// The Det::Stable deltas of a cold pass (empty cache) and then a warm pass
// (a fresh provider over the cache the cold pass left) must equal
// tools/contracts.json work_counts exactly: simulations, disk hits, cache
// hits and misses, and the bytes moved. A second load or decode, an extra
// simulation or a changed byte count fails here on any host and any
// WHEELS_JOBS.
TEST(DatasetCache, WorkCountsMatchPins) {
  const scenario::ScenarioSpec spec =
      scenario::load_scenario(std::string(contract::kWorkCountScenario));
  const auto cfg =
      trip::CampaignConfig::from_scenario(spec, contract::kWorkCountStride);
  const auto app_cfg = apps::AppCampaignConfig::from_scenario(
      spec, contract::kWorkCountStride);
  ProviderOptions o;
  o.cache_dir = "dataset-work-counts-test";
  fs::remove_all(o.cache_dir);
  for (const std::string_view pass : {"cold", "warm"}) {
    const obs::Snapshot before = obs::Registry::global().snapshot();
    {
      CampaignProvider provider(o);
      resolve_every_dataset(provider, cfg, app_cfg);
    }
    const obs::Snapshot after = obs::Registry::global().snapshot();
    int pinned = 0;
    for (const contract::WorkCount& wc : contract::kWorkCounts) {
      if (wc.pass != pass) continue;
      ++pinned;
      EXPECT_EQ(counter(after, wc.metric) - counter(before, wc.metric),
                wc.value)
          << pass << " pass: " << wc.metric;
    }
    EXPECT_GT(pinned, 0) << "no work counts pinned for the " << pass
                         << " pass";
  }
  fs::remove_all(o.cache_dir);
}

}  // namespace
}  // namespace wheels::dataset
