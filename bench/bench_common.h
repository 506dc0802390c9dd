// Shared plumbing for the figure/table benches.
//
// Every bench accepts an optional stride argument (`bench_x [stride]`, or
// the WHEELS_BENCH_STRIDE environment variable): the campaign executes
// every stride-th round-robin test cycle and fast-forwards the rest.
// stride=1 reproduces the full 8-day campaign; the default keeps a bench
// under ~1 minute while preserving the geographic spread of samples.
//
// Benches do not simulate directly: they ask the shared CampaignProvider
// for the dataset, which serves it from the content-addressed cache
// (WHEELS_DATASET_DIR, default build/dataset-cache/) when warm and
// simulates + persists otherwise. Warm the cache once with
// `tools/wheels_campaign generate`; after that, regenerating every figure
// costs cache loads, not campaigns. Set WHEELS_DATASET_CACHE=0 to force
// re-simulation.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "apps/app_campaign.h"
#include "core/thread_pool.h"
#include "dataset/provider.h"
#include "obs/runtime.h"
#include "trip/campaign.h"

namespace wheels::bench {

// Strictly parse a stride value; empty optional argument semantics are
// handled by the callers. Exits with a usage message on anything that is
// not a whole positive decimal number (a silent fallback here once meant
// `bench_x abc` quietly benchmarked the wrong configuration).
inline int parse_stride_or_exit(const char* text, const char* origin,
                                const char* argv0) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < 1 ||
      v > 1'000'000L) {
    std::cerr << argv0 << ": invalid stride '" << text << "' (from " << origin
              << ")\n"
              << "usage: " << argv0 << " [stride]\n"
              << "  stride: whole number >= 1; every stride-th test cycle "
                 "is simulated\n"
              << "  (also read from WHEELS_BENCH_STRIDE when no argument "
                 "is given)\n";
    std::exit(2);
  }
  return static_cast<int>(v);
}

inline int stride_from(int argc, char** argv, int fallback) {
  if (argc > 2) {
    std::cerr << argv[0] << ": too many arguments\n"
              << "usage: " << argv[0] << " [stride]\n";
    std::exit(2);
  }
  if (argc > 1) return parse_stride_or_exit(argv[1], "argv[1]", argv[0]);
  // WHEELS_BENCH_STRIDE is declared in tools/contracts.json; new bench
  // knobs must be registered there too.
  if (const char* env = std::getenv("WHEELS_BENCH_STRIDE")) {
    return parse_stride_or_exit(env, "WHEELS_BENCH_STRIDE", argv[0]);
  }
  return fallback;
}

inline trip::CampaignConfig campaign_config(int argc, char** argv,
                                            int default_stride = 8) {
  trip::CampaignConfig cfg;
  cfg.seed = 42;
  cfg.cycle_stride = stride_from(argc, argv, default_stride);
  return cfg;
}

inline apps::AppCampaignConfig app_campaign_config(int argc, char** argv,
                                                   int default_stride = 10) {
  apps::AppCampaignConfig cfg;
  cfg.seed = 42;
  cfg.cycle_stride = stride_from(argc, argv, default_stride);
  return cfg;
}

// The process-wide dataset provider. Provenance notes go to stderr so the
// figures on stdout are bit-identical between cached and fresh runs.
inline dataset::CampaignProvider& provider() {
  static dataset::CampaignProvider p{[] {
    dataset::ProviderOptions opts;
    opts.verbose = true;
    return opts;
  }()};
  return p;
}

inline void print_header(const std::string& id, const std::string& title,
                         int stride) {
  // Arms any WHEELS_METRICS/WHEELS_TRACE exporters for the whole bench.
  obs::init_from_env();
  std::cout << "=== " << id << ": " << title << " ===\n"
            << "(campaign stride " << stride
            << "; stride 1 reproduces the full 8-day drive)\n\n";
}

// Warm every dataset a measurement-figure bench needs (the campaign and
// all three static baselines) in one concurrent round, so a cold cache
// pays max(simulations) instead of their sum when jobs > 1. Wasted on a
// warm cache: everything resolves from memo/disk instantly.
inline void warm_campaign_and_baselines(const trip::CampaignConfig& cfg) {
  auto& p = provider();
  std::vector<std::function<void()>> work;
  work.emplace_back([&] { p.load_or_run(cfg); });
  for (auto op : ran::kAllOperators) {
    work.emplace_back([&, op] { p.load_or_run_static(cfg, op); });
  }
  parallel_for_each(p.jobs(), work.size(),
                    [&](std::size_t i) { work[i](); });
}

// A one-line reminder of the paper's reference numbers next to ours.
inline void paper_note(const std::string& text) {
  std::cout << "  [paper] " << text << "\n";
}

}  // namespace wheels::bench
