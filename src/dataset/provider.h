// CampaignProvider: the simulate -> dataset -> analyze seam.
//
// Every figure/table printer used to re-simulate the whole 8-day campaign;
// the provider instead serves datasets content-addressed by the config
// fingerprint, in resolution order:
//
//   1. in-memory memo (one process asking twice pays nothing),
//   2. on-disk cache (WHEELS_DATASET_DIR, default build/dataset-cache/),
//   3. fresh simulation (result is persisted back to the cache).
//
// A warm cache therefore turns `for b in build/bench/*; do $b; done` from
// ~20 campaign simulations into at most 2 (measurement + apps), with
// bit-identical outputs either way. simulations-run counters expose the
// distinction for tests and for the EXPERIMENTS.md measurement.
//
// Concurrent requests for one key are single-flighted through a keyed
// in-flight table (core/singleflight.h): the first request simulates, the
// rest wait on its future and share the result. The serve daemon builds on
// this to guarantee a thundering herd on one cold fingerprint simulates
// exactly once, with memoize=false so residency is owned by its LRU store
// rather than this process-lifetime memo.
//
// A simulation builds one runner (trip::Campaign or apps::AppCampaign) for
// that one resolution and moves its result into the returned shared_ptr;
// no runner outlives its resolution, so the memo and the disk cache are
// the only result caches.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_campaign.h"
#include "core/singleflight.h"
#include "dataset/cache.h"
#include "trip/campaign.h"

namespace wheels::dataset {

struct ProviderOptions {
  // Cache directory; empty resolves via WHEELS_DATASET_DIR then the
  // build/dataset-cache default (see resolve_cache_dir).
  std::string cache_dir;
  // Disk cache on/off; additionally forced off by WHEELS_DATASET_CACHE=0
  // in the environment. The in-memory memo is always on.
  bool use_cache = true;
  // Provenance notes ("[dataset] campaign ... cache hit") on stderr.
  // Figures go to stdout, so cached and fresh runs stay byte-identical
  // where it matters.
  bool verbose = false;
  // Worker threads handed to every runner this provider builds (replay
  // and per-city baseline fan-out). <= 0 resolves from WHEELS_JOBS. Never
  // part of the fingerprint: jobs changes wall-clock, not bytes.
  int jobs = 0;
  // Pin every resolved dataset in the process-lifetime memo. The
  // figure/bench tools want this (ask twice, pay nothing, references stay
  // stable); the serve daemon turns it off and owns residency in its
  // LRU-bounded store instead. The reference-returning load_or_run* API
  // pins its results regardless of this flag, so references never dangle.
  bool memoize = true;
};

class CampaignProvider {
 public:
  explicit CampaignProvider(ProviderOptions opts = ProviderOptions{});
  ~CampaignProvider();

  CampaignProvider(const CampaignProvider&) = delete;
  CampaignProvider& operator=(const CampaignProvider&) = delete;

  // Shared-ownership resolution. Safe to call from several threads;
  // concurrent requests for one key are single-flighted (exactly one
  // simulation, the rest join the in-flight computation and share its
  // result). With memoize=false the returned shared_ptr is the only
  // ownership handle once the flight retires.
  std::shared_ptr<const trip::CampaignResult> resolve(
      const trip::CampaignConfig& cfg);
  std::shared_ptr<const trip::StaticBaseline> resolve_static(
      const trip::CampaignConfig& cfg, ran::OperatorId op);
  std::shared_ptr<const apps::AppCampaignResult> resolve_apps(
      const apps::AppCampaignConfig& cfg);
  std::shared_ptr<const std::vector<apps::AppRunRecord>> resolve_apps_static(
      const apps::AppCampaignConfig& cfg, ran::OperatorId op);

  // Reference-returning conveniences over resolve*. They pin the result in
  // the memo (even with memoize=false) so the reference stays valid for
  // the provider's lifetime.
  const trip::CampaignResult& load_or_run(const trip::CampaignConfig& cfg);
  const trip::StaticBaseline& load_or_run_static(
      const trip::CampaignConfig& cfg, ran::OperatorId op);
  const apps::AppCampaignResult& load_or_run_apps(
      const apps::AppCampaignConfig& cfg);
  const std::vector<apps::AppRunRecord>& load_or_run_apps_static(
      const apps::AppCampaignConfig& cfg, ran::OperatorId op);

  // Re-resolve the worker count (jobs <= 0 reads WHEELS_JOBS) for every
  // later simulation.
  void set_jobs(int jobs);
  [[nodiscard]] int jobs() const { return jobs_; }

  // Full-drive campaign simulations executed by this provider (measurement
  // and app campaigns both count; cache/memo hits do not).
  [[nodiscard]] int campaign_simulations() const {
    return campaign_simulations_;
  }
  // Per-city static-baseline simulations executed (per operator).
  [[nodiscard]] int baseline_simulations() const {
    return baseline_simulations_;
  }
  [[nodiscard]] int disk_hits() const { return disk_hits_; }
  // Flights led (one per cold resolution) and flights joined (waiters that
  // shared an in-progress computation instead of re-resolving).
  [[nodiscard]] int inflight_leaders() const { return inflight_leaders_; }
  [[nodiscard]] int inflight_joins() const { return inflight_joins_; }

  // Observation hook for cross-request single-flight, called outside the
  // provider lock: once per leader (joined=false) before it resolves, and
  // once per waiter (joined=true) before it blocks on the flight. Tests
  // latch the leader in here until the expected waiters have joined,
  // making the herd assertion deterministic. Set before concurrent use.
  using InflightHook =
      std::function<void(DatasetKind kind, std::uint64_t fp, bool joined)>;
  void set_inflight_hook(InflightHook hook);

  [[nodiscard]] const DatasetCache& cache() const { return cache_; }
  [[nodiscard]] bool cache_enabled() const { return use_cache_; }

 private:
  // (fingerprint, operator index) -- operator index is 0 for whole-drive
  // datasets, the OperatorId for per-operator baselines.
  using Key = std::pair<std::uint64_t, int>;
  template <typename Result>
  using Memo = std::map<Key, std::shared_ptr<const Result>>;

  enum class SimKind : std::uint8_t { Campaign, Baseline };

  // Shared memo -> disk -> single-flight-simulate resolution; `simulate`
  // runs outside mu_ inside the flight.
  template <typename Result, typename Simulate>
  std::shared_ptr<const Result> resolve_impl(
      Memo<Result>& memo, SingleFlight<Key, Result>& flights,
      DatasetKind kind, std::uint64_t fp, int opi, ran::OperatorId op,
      SimKind sim, Simulate simulate);

  // jobs_ read under mu_, for a runner built inside a flight.
  int current_jobs();

  void note(DatasetKind kind, std::uint64_t fp, const char* source) const;

  DatasetCache cache_;
  bool use_cache_;
  bool verbose_;
  bool memoize_;
  int jobs_ = 1;
  int campaign_simulations_ = 0;
  int baseline_simulations_ = 0;
  int disk_hits_ = 0;
  int inflight_leaders_ = 0;
  int inflight_joins_ = 0;
  InflightHook inflight_hook_;

  // Guards the memo maps, jobs_ and the counters. Never held across a
  // simulation: concurrent distinct-key requests simulate in parallel, and
  // same-key requests coalesce in the flight tables below.
  std::mutex mu_;

  Memo<trip::CampaignResult> results_;
  Memo<trip::StaticBaseline> baselines_;
  Memo<apps::AppCampaignResult> app_results_;
  Memo<std::vector<apps::AppRunRecord>> app_baselines_;

  SingleFlight<Key, trip::CampaignResult> result_flights_;
  SingleFlight<Key, trip::StaticBaseline> baseline_flights_;
  SingleFlight<Key, apps::AppCampaignResult> app_result_flights_;
  SingleFlight<Key, std::vector<apps::AppRunRecord>> app_baseline_flights_;
};

}  // namespace wheels::dataset
