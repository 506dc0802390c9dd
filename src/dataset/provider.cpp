#include "dataset/provider.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/thread_pool.h"
#include "dataset/fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wheels::dataset {
namespace {

bool cache_disabled_by_env() {
  const char* env = std::getenv("WHEELS_DATASET_CACHE");
  return env != nullptr && std::string_view(env) == "0";
}

int op_index(ran::OperatorId op) { return static_cast<int>(op); }

// Mirrors of the per-provider member counters, aggregated process-wide so
// exporters and the bench metrics object can read them without a handle on
// the provider instance. All Det::Stable: resolution outcomes are a pure
// function of the requested configs and the cache state.
struct ProviderMetrics {
  obs::Counter& memo_hits;
  obs::Counter& disk_hits;
  obs::Counter& campaign_simulations;
  obs::Counter& baseline_simulations;
  obs::Counter& inflight_leaders;
  obs::Counter& inflight_joins;
};

ProviderMetrics& provider_metrics() {
  // wheels-lint: allow(static-local)
  static ProviderMetrics m{
      obs::Registry::global().counter("dataset.provider.memo_hits"),
      obs::Registry::global().counter("dataset.provider.disk_hits"),
      obs::Registry::global().counter("dataset.provider.campaign_simulations"),
      obs::Registry::global().counter("dataset.provider.baseline_simulations"),
      obs::Registry::global().counter("dataset.provider.inflight_leaders"),
      obs::Registry::global().counter("dataset.provider.inflight_joins"),
  };
  return m;
}

// Span around an actual simulation (the expensive branch of load_or_run*).
std::string simulate_span_name(DatasetKind kind) {
  std::string name = "dataset.simulate.";
  name += to_string(kind);
  return name;
}

}  // namespace

CampaignProvider::CampaignProvider(ProviderOptions opts)
    : cache_(opts.cache_dir),
      use_cache_(opts.use_cache && !cache_disabled_by_env()),
      verbose_(opts.verbose),
      memoize_(opts.memoize),
      jobs_(resolve_jobs(opts.jobs)) {}

CampaignProvider::~CampaignProvider() = default;

void CampaignProvider::set_inflight_hook(InflightHook hook) {
  const std::lock_guard<std::mutex> lock(mu_);
  inflight_hook_ = std::move(hook);
}

void CampaignProvider::note(DatasetKind kind, std::uint64_t fp,
                            const char* source) const {
  if (!verbose_) return;
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fp));
  // One write per note: notes from concurrent workers must not interleave
  // mid-line on stderr.
  std::string line = "[dataset] ";
  line += to_string(kind);
  line += " ";
  line += hex;
  line += ": ";
  line += source;
  line += "\n";
  std::fputs(line.c_str(), stderr);
}

template <typename Result, typename Simulate>
std::shared_ptr<const Result> CampaignProvider::resolve_impl(
    Memo<Result>& memo, SingleFlight<Key, Result>& flights, DatasetKind kind,
    std::uint64_t fp, int opi, ran::OperatorId op, SimKind sim,
    Simulate simulate) {
  const Key key{fp, opi};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = memo.find(key); it != memo.end()) {
      provider_metrics().memo_hits.inc();
      return it->second;
    }
  }

  auto compute = [&]() -> std::shared_ptr<const Result> {
    // Losing the pre-flight race (a previous leader retired its flight and
    // published to the memo between our memo miss and our flight insert)
    // must not re-resolve.
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (const auto it = memo.find(key); it != memo.end()) {
        provider_metrics().memo_hits.inc();
        return it->second;
      }
    }
    if (use_cache_) {
      auto loaded = std::make_shared<Result>();
      if (cache_.load_into(kind, fp, op, *loaded)) {
        const std::lock_guard<std::mutex> lock(mu_);
        ++disk_hits_;
        provider_metrics().disk_hits.inc();
        note(kind, fp, "cache hit");
        if (memoize_) memo.emplace(key, loaded);
        return loaded;
      }
    }
    note(kind, fp, "simulating");
    std::shared_ptr<const Result> owned = [&] {
      const obs::Span span(simulate_span_name(kind), "dataset");
      return std::shared_ptr<const Result>(simulate());
    }();
    const std::lock_guard<std::mutex> lock(mu_);
    if (sim == SimKind::Campaign) {
      ++campaign_simulations_;
      provider_metrics().campaign_simulations.inc();
    } else {
      ++baseline_simulations_;
      provider_metrics().baseline_simulations.inc();
    }
    if (use_cache_) cache_.store(kind, fp, op, encode(*owned));
    if (memoize_) memo.emplace(key, owned);
    return owned;
  };

  return flights.resolve(
      key, compute,
      /*on_lead=*/
      [&] {
        InflightHook hook;
        {
          const std::lock_guard<std::mutex> lock(mu_);
          ++inflight_leaders_;
          hook = inflight_hook_;
        }
        provider_metrics().inflight_leaders.inc();
        if (hook) hook(kind, fp, /*joined=*/false);
      },
      /*on_join=*/
      [&] {
        InflightHook hook;
        {
          const std::lock_guard<std::mutex> lock(mu_);
          ++inflight_joins_;
          hook = inflight_hook_;
        }
        provider_metrics().inflight_joins.inc();
        if (hook) hook(kind, fp, /*joined=*/true);
      });
}

int CampaignProvider::current_jobs() {
  const std::lock_guard<std::mutex> lock(mu_);
  return jobs_;
}

std::shared_ptr<const trip::CampaignResult> CampaignProvider::resolve(
    const trip::CampaignConfig& cfg) {
  const std::uint64_t fp = fingerprint(cfg);
  return resolve_impl(
      results_, result_flights_, DatasetKind::Campaign, fp, 0,
      ran::OperatorId::Verizon, SimKind::Campaign, [&] {
        trip::Campaign campaign(cfg);
        campaign.set_jobs(current_jobs());
        return std::make_shared<trip::CampaignResult>(campaign.run());
      });
}

std::shared_ptr<const trip::StaticBaseline> CampaignProvider::resolve_static(
    const trip::CampaignConfig& cfg, ran::OperatorId op) {
  const std::uint64_t fp = fingerprint_static(cfg);
  return resolve_impl(
      baselines_, baseline_flights_, DatasetKind::StaticBaseline, fp,
      op_index(op), op, SimKind::Baseline, [&] {
        trip::Campaign campaign(cfg);
        campaign.set_jobs(current_jobs());
        return std::make_shared<trip::StaticBaseline>(
            campaign.run_static_baseline(op));
      });
}

std::shared_ptr<const apps::AppCampaignResult> CampaignProvider::resolve_apps(
    const apps::AppCampaignConfig& cfg) {
  const std::uint64_t fp = fingerprint(cfg);
  return resolve_impl(
      app_results_, app_result_flights_, DatasetKind::AppCampaign, fp, 0,
      ran::OperatorId::Verizon, SimKind::Campaign, [&] {
        apps::AppCampaign campaign(cfg);
        campaign.set_jobs(current_jobs());
        return std::make_shared<apps::AppCampaignResult>(campaign.run());
      });
}

std::shared_ptr<const std::vector<apps::AppRunRecord>>
CampaignProvider::resolve_apps_static(const apps::AppCampaignConfig& cfg,
                                      ran::OperatorId op) {
  const std::uint64_t fp = fingerprint_static(cfg);
  return resolve_impl(
      app_baselines_, app_baseline_flights_, DatasetKind::AppStaticBaseline,
      fp, op_index(op), op, SimKind::Baseline, [&] {
        apps::AppCampaign campaign(cfg);
        campaign.set_jobs(current_jobs());
        return std::make_shared<std::vector<apps::AppRunRecord>>(
            campaign.run_static_baseline(op));
      });
}

const trip::CampaignResult& CampaignProvider::load_or_run(
    const trip::CampaignConfig& cfg) {
  auto ptr = resolve(cfg);
  const Key key{fingerprint(cfg), 0};
  // Pin in the memo regardless of memoize_ so the reference stays valid
  // for the provider's lifetime (first insert wins; same bytes either way).
  const std::lock_guard<std::mutex> lock(mu_);
  return *results_.emplace(key, std::move(ptr)).first->second;
}

const trip::StaticBaseline& CampaignProvider::load_or_run_static(
    const trip::CampaignConfig& cfg, ran::OperatorId op) {
  auto ptr = resolve_static(cfg, op);
  const Key key{fingerprint_static(cfg), op_index(op)};
  const std::lock_guard<std::mutex> lock(mu_);
  return *baselines_.emplace(key, std::move(ptr)).first->second;
}

const apps::AppCampaignResult& CampaignProvider::load_or_run_apps(
    const apps::AppCampaignConfig& cfg) {
  auto ptr = resolve_apps(cfg);
  const Key key{fingerprint(cfg), 0};
  const std::lock_guard<std::mutex> lock(mu_);
  return *app_results_.emplace(key, std::move(ptr)).first->second;
}

const std::vector<apps::AppRunRecord>&
CampaignProvider::load_or_run_apps_static(const apps::AppCampaignConfig& cfg,
                                          ran::OperatorId op) {
  auto ptr = resolve_apps_static(cfg, op);
  const Key key{fingerprint_static(cfg), op_index(op)};
  const std::lock_guard<std::mutex> lock(mu_);
  return *app_baselines_.emplace(key, std::move(ptr)).first->second;
}

}  // namespace wheels::dataset
