#include "serve/store.h"

#include <climits>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/parse_int.h"
#include "dataset/fingerprint.h"
#include "obs/metrics.h"

namespace wheels::serve {
namespace {

constexpr int kDefaultMaxDatasets = 8;

int resolve_max_datasets(int requested) {
  if (requested > 0) return requested;
  return static_cast<int>(
      parse_int(std::getenv("WHEELS_SERVE_MAX_DATASETS"), 1, INT_MAX)
          .value_or(kDefaultMaxDatasets));
}

// Process-wide mirrors of the per-store counters (Det::Stable: cache
// outcomes are a pure function of the request sequence and capacity).
struct StoreMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
};

StoreMetrics& store_metrics() {
  // wheels-lint: allow(static-local)
  static StoreMetrics m{
      obs::Registry::global().counter("serve.store.hits"),
      obs::Registry::global().counter("serve.store.misses"),
      obs::Registry::global().counter("serve.store.evictions"),
  };
  return m;
}

dataset::ProviderOptions without_memo(dataset::ProviderOptions opts) {
  opts.memoize = false;
  return opts;
}

}  // namespace

DatasetStore::DatasetStore(StoreOptions opts)
    : capacity_(resolve_max_datasets(opts.max_datasets)),
      provider_(without_memo(std::move(opts.provider))) {}

void DatasetStore::set_campaign_factory_for_testing(CampaignFactory factory) {
  campaign_factory_ = std::move(factory);
}

std::shared_ptr<const void> DatasetStore::lookup(const Key& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    store_metrics().misses.inc();
    return nullptr;
  }
  it->second.last_use = ++tick_;
  ++hits_;
  store_metrics().hits.inc();
  return it->second.value;
}

void DatasetStore::insert(const Key& key, std::shared_ptr<const void> value) {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_[key] = Entry{std::move(value), ++tick_};
  while (entries_.size() > static_cast<std::size_t>(capacity_)) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    entries_.erase(victim);
    ++evictions_;
    store_metrics().evictions.inc();
  }
}

std::shared_ptr<const trip::CampaignResult> DatasetStore::campaign(
    const trip::CampaignConfig& cfg) {
  const Key key{static_cast<std::uint8_t>(dataset::DatasetKind::Campaign),
                dataset::fingerprint(cfg)};
  if (auto hit = lookup(key))
    return std::static_pointer_cast<const trip::CampaignResult>(hit);
  // Resolve outside the store lock: distinct keys overlap, same-key herds
  // coalesce in the provider's in-flight table.
  std::shared_ptr<const trip::CampaignResult> value =
      campaign_factory_ ? campaign_factory_(cfg) : provider_.resolve(cfg);
  insert(key, value);
  return value;
}

std::shared_ptr<const apps::AppCampaignResult> DatasetStore::apps(
    const apps::AppCampaignConfig& cfg) {
  const Key key{static_cast<std::uint8_t>(dataset::DatasetKind::AppCampaign),
                dataset::fingerprint(cfg)};
  if (auto hit = lookup(key))
    return std::static_pointer_cast<const apps::AppCampaignResult>(hit);
  std::shared_ptr<const apps::AppCampaignResult> value =
      provider_.resolve_apps(cfg);
  insert(key, value);
  return value;
}

std::size_t DatasetStore::resident() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

long long DatasetStore::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

long long DatasetStore::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

long long DatasetStore::evictions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace wheels::serve
