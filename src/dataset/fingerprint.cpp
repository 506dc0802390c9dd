#include "dataset/fingerprint.h"

#include "core/fnv1a.h"
#include "scenario/spec.h"

namespace wheels::dataset {
namespace {

// Fingerprints widen an int by sign extension (the scenario hash
// zero-extends); both widenings are part of every cache file name.
class FnvHasher : public Fnv1a {
 public:
  void i32(int v) { u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
};

// Domain tags keep the four key spaces disjoint even for configs whose
// hashed fields happen to collide (e.g. a CampaignConfig and an
// AppCampaignConfig sharing seed/stride).
constexpr std::uint64_t kTagCampaign = 0x77686C2D63616D70ull;     // "whl-camp"
constexpr std::uint64_t kTagAppCampaign = 0x77686C2D61707073ull;  // "whl-apps"

// The timing and drive values are hashed on their own, ahead of the
// scenario hash, in this fixed order: the order is part of every cache
// file name.
std::uint64_t hash_campaign(const trip::CampaignConfig& cfg, int stride) {
  const scenario::TimingSpec& t = cfg.spec.timing;
  FnvHasher h;
  h.u64(kTagCampaign);
  h.u64(cfg.seed);
  h.f64(t.slot_ms);
  h.f64(t.tput_test_ms);
  h.f64(t.rtt_test_ms);
  h.f64(t.gap_ms);
  h.f64(t.ping_interval_ms);
  h.f64(t.sample_window_ms);
  h.i32(stride);
  h.f64(cfg.spec.drive.hours_per_day);
  h.i32(cfg.spec.drive.start_hour_local);
  // Distinct scenarios (route, roster, bands, regime, app mix) must never
  // share a cache slot even when the timing fields coincide.
  h.u64(scenario::scenario_hash(cfg.spec));
  return h.digest();
}

std::uint64_t hash_apps(const apps::AppCampaignConfig& cfg, int stride) {
  FnvHasher h;
  h.u64(kTagAppCampaign);
  h.u64(cfg.seed);
  h.i32(stride);
  h.f64(cfg.spec.timing.gap_ms);
  h.f64(cfg.spec.drive.hours_per_day);
  h.i32(cfg.spec.drive.start_hour_local);
  h.u64(scenario::scenario_hash(cfg.spec));
  return h.digest();
}

}  // namespace

std::uint64_t fingerprint(const trip::CampaignConfig& cfg) {
  return hash_campaign(cfg, cfg.cycle_stride);
}

std::uint64_t fingerprint(const apps::AppCampaignConfig& cfg) {
  return hash_apps(cfg, cfg.cycle_stride);
}

std::uint64_t fingerprint_static(const trip::CampaignConfig& cfg) {
  return hash_campaign(cfg, 0);
}

std::uint64_t fingerprint_static(const apps::AppCampaignConfig& cfg) {
  return hash_apps(cfg, 0);
}

}  // namespace wheels::dataset
