// GENERATED FILE -- do not edit by hand.
//
// Single-source determinism pins, rendered from tools/contracts.json by
// `tools/wheels_contract.py --fix-pins`. The wheels-contract analyzer
// (pins-stale rule) fails CI whenever this header and the registry
// disagree, so a deliberate golden/schema bump is a one-line registry
// edit plus a regeneration -- never a hunt for scattered literals.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace wheels::contract {

// Dataset container format (src/dataset/serialize.h must agree; the
// schema-pin rule cross-checks).
inline constexpr std::uint32_t kSchemaVersion = 3;
inline constexpr std::string_view kDatasetMagic = "WDS1";

// The golden campaign: FNV-1a checksum of encode(CampaignResult) for
// this seed/stride pair, pinning every stochastic process in the
// pipeline. Regenerate deliberately via the registry, never by editing
// this file.
inline constexpr std::uint64_t kGoldenSeed = 42;
inline constexpr int kGoldenStride = 64;
inline constexpr std::uint64_t kGoldenCampaignChecksum =
    0xbba11b2dda6d2b08ULL;

// Per-dataset pins: FNV-1a of the encoded dataset for every shipped
// scenario at seed 42, one entry per (scenario, kind, operator
// slot). `kind` is dataset::to_string(DatasetKind); `op` names a roster
// slot by its paper-default operator (ran::to_string) and is empty for
// the whole-roster kinds. Static baselines do not depend on the stride.
struct DatasetPin {
  std::string_view scenario;
  std::string_view kind;
  std::string_view op;
  int stride;
  std::uint64_t checksum;
};

inline constexpr std::uint64_t kDatasetPinSeed = 42;
inline constexpr std::array<DatasetPin, 47> kDatasetPins{{
    {"paper-default", "static-baseline", "Verizon", 64, 0xc29acc08279cd0bcULL},
    {"paper-default", "static-baseline", "T-Mobile", 64, 0x420116fc585096eeULL},
    {"paper-default", "static-baseline", "AT&T", 64, 0x879955a220b6e345ULL},
    {"paper-default", "app-campaign", "", 64, 0xef0abd1b6ba9473eULL},
    {"paper-default", "app-static-baseline", "Verizon", 64, 0x69562470916eaf7bULL},
    {"paper-default", "app-static-baseline", "T-Mobile", 64, 0x2a0f79c812e411c1ULL},
    {"paper-default", "app-static-baseline", "AT&T", 64, 0xa5379c22d1ca3952ULL},
    {"urban-loop", "campaign", "", 16, 0x99312d940f380debULL},
    {"urban-loop", "static-baseline", "Verizon", 64, 0x9ff77f37084144b7ULL},
    {"urban-loop", "static-baseline", "T-Mobile", 64, 0xe65effac37fe8c32ULL},
    {"urban-loop", "static-baseline", "AT&T", 64, 0x2103afcc92b1bd34ULL},
    {"urban-loop", "app-campaign", "", 64, 0xcabe526ae83f0d84ULL},
    {"urban-loop", "app-static-baseline", "Verizon", 64, 0x7a7b482bfc067975ULL},
    {"urban-loop", "app-static-baseline", "T-Mobile", 64, 0x9fd3ffe407899af2ULL},
    {"urban-loop", "app-static-baseline", "AT&T", 64, 0xcbe7a9db777ce568ULL},
    {"commuter-corridor", "campaign", "", 32, 0x1aa9892158e4fc92ULL},
    {"commuter-corridor", "static-baseline", "Verizon", 64, 0x7756a13a68ca3195ULL},
    {"commuter-corridor", "static-baseline", "T-Mobile", 64, 0x7b79dd89a9657af0ULL},
    {"commuter-corridor", "static-baseline", "AT&T", 64, 0x4140170db3b85e45ULL},
    {"commuter-corridor", "app-campaign", "", 64, 0xda26cd157a1ec485ULL},
    {"commuter-corridor", "app-static-baseline", "Verizon", 64, 0xf6a445d2ac7ddd8fULL},
    {"commuter-corridor", "app-static-baseline", "T-Mobile", 64, 0xa81c3bb95606db92ULL},
    {"commuter-corridor", "app-static-baseline", "AT&T", 64, 0xe452f1d241e8c361ULL},
    {"highway-convoy", "campaign", "", 64, 0x072f582e23060ba0ULL},
    {"highway-convoy", "static-baseline", "Verizon", 64, 0x12ccf681c9f334ebULL},
    {"highway-convoy", "static-baseline", "T-Mobile", 64, 0x544e6e5399dd946fULL},
    {"highway-convoy", "static-baseline", "AT&T", 64, 0x9027917a5d11e04dULL},
    {"highway-convoy", "app-campaign", "", 64, 0xaff24f8397328d1aULL},
    {"highway-convoy", "app-static-baseline", "Verizon", 64, 0x0d380b55f28a9b36ULL},
    {"highway-convoy", "app-static-baseline", "T-Mobile", 64, 0x38e0d2d8c8ba46c3ULL},
    {"highway-convoy", "app-static-baseline", "AT&T", 64, 0x60e9630cd910b6d8ULL},
    {"eu-band-plan", "campaign", "", 32, 0xefe42ffcd7bb8d7cULL},
    {"eu-band-plan", "static-baseline", "Verizon", 64, 0x951b9907967eaf58ULL},
    {"eu-band-plan", "static-baseline", "T-Mobile", 64, 0x5aec0380df414687ULL},
    {"eu-band-plan", "static-baseline", "AT&T", 64, 0x69c39dc4b15c8f35ULL},
    {"eu-band-plan", "app-campaign", "", 64, 0x7491e57cf14661bdULL},
    {"eu-band-plan", "app-static-baseline", "Verizon", 64, 0x0465830cf2c126f6ULL},
    {"eu-band-plan", "app-static-baseline", "T-Mobile", 64, 0x7be60f0b661041daULL},
    {"eu-band-plan", "app-static-baseline", "AT&T", 64, 0x576c70e59e802df4ULL},
    {"degraded-coverage-storm", "campaign", "", 32, 0xc73f9d0613f49fcbULL},
    {"degraded-coverage-storm", "static-baseline", "Verizon", 64, 0x1825e2c5acb6a3b1ULL},
    {"degraded-coverage-storm", "static-baseline", "T-Mobile", 64, 0xfcc65022fbb0887dULL},
    {"degraded-coverage-storm", "static-baseline", "AT&T", 64, 0x932bc23f35d57a33ULL},
    {"degraded-coverage-storm", "app-campaign", "", 64, 0x5beeb2f496863b7eULL},
    {"degraded-coverage-storm", "app-static-baseline", "Verizon", 64, 0xdf15e9107602ede4ULL},
    {"degraded-coverage-storm", "app-static-baseline", "T-Mobile", 64, 0x7d2e5181628cf5c3ULL},
    {"degraded-coverage-storm", "app-static-baseline", "AT&T", 64, 0x3d3e51e44a83e8e5ULL},
}};

// Exact work of resolving every dataset of one library scenario: the
// Det::Stable counter deltas of a cold pass into an empty cache, then of a
// warm pass over the cache it left. An extra load, an extra simulation or
// a changed byte count fails the test that asserts them.
struct WorkCount {
  std::string_view pass;
  std::string_view metric;
  std::int64_t value;
};

inline constexpr std::string_view kWorkCountScenario = "eu-band-plan";
inline constexpr int kWorkCountStride = 64;
inline constexpr std::array<WorkCount, 14> kWorkCounts{{
    {"cold", "dataset.cache.bytes_read", 0},
    {"cold", "dataset.cache.bytes_written", 3081366},
    {"cold", "dataset.cache.hits", 0},
    {"cold", "dataset.cache.misses", 8},
    {"cold", "dataset.provider.baseline_simulations", 6},
    {"cold", "dataset.provider.campaign_simulations", 2},
    {"cold", "dataset.provider.disk_hits", 0},
    {"warm", "dataset.cache.bytes_read", 3081366},
    {"warm", "dataset.cache.bytes_written", 0},
    {"warm", "dataset.cache.hits", 8},
    {"warm", "dataset.cache.misses", 0},
    {"warm", "dataset.provider.baseline_simulations", 0},
    {"warm", "dataset.provider.campaign_simulations", 0},
    {"warm", "dataset.provider.disk_hits", 8},
}};

}  // namespace wheels::contract
