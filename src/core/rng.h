// Deterministic random number generation.
//
// Every stochastic process in the simulator draws from an Rng seeded from
// the campaign seed, so any figure or table can be regenerated bit-for-bit.
// xoshiro256++ is used instead of std::mt19937 for speed and because its
// stream-splitting (via SplitMix64 jumps) gives cheap independent
// sub-streams per cell / per UE / per process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace wheels {

// SplitMix64: used for seeding and for deriving child seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

// Optional provenance hooks, mirroring ThreadPoolHooks: core stays free of
// obs dependencies, obs (or a test) fills the struct in. All callbacks are
// observational only -- they receive stream fingerprints and must never
// touch generator state, so arming them cannot change campaign bytes.
// Callbacks may fire concurrently from worker threads and must be
// thread-safe. The struct must outlive its installation.
struct RngHooks {
  // A stream was constructed directly from a seed (not via fork()).
  void (*on_seed)(std::uint64_t stream_id, std::uint64_t seed) = nullptr;
  // `child` was derived from `parent` via fork(). For string-labelled
  // forks `label` points at the label bytes (not NUL-terminated, valid
  // only for the duration of the call); for integer salts it is nullptr.
  void (*on_fork)(std::uint64_t parent_id, std::uint64_t child_id,
                  std::uint64_t salt, const char* label,
                  std::size_t label_len) = nullptr;
  // One base draw (next_u64) was consumed from the stream. Distributions
  // that draw several times (normal, rejection loops) fire once per base
  // draw, so counts are comparable across jobs values.
  void (*on_draw)(std::uint64_t stream_id) = nullptr;
};

// Install (or clear, with nullptr) the process-wide hook struct. Install
// once at startup before campaign threads exist; draws load the pointer
// with relaxed ordering, so mid-campaign swaps are not synchronized.
void set_rng_hooks(const RngHooks* hooks);
[[nodiscard]] const RngHooks* rng_hooks();

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Derive an independent child generator. `salt` distinguishes siblings
  // derived from the same parent (e.g. one stream per cell id).
  [[nodiscard]] Rng fork(std::uint64_t salt) const;
  [[nodiscard]] Rng fork(std::string_view label) const;

  // Deterministic fingerprint of the stream's initial state: identical for
  // copies of one stream, stable across runs and jobs values. Used by the
  // provenance hooks to key the runtime fork tree.
  [[nodiscard]] std::uint64_t stream_id() const { return id_; }

  [[nodiscard]] std::uint64_t next_u64();

  // Uniform in [0, 1).
  [[nodiscard]] double uniform();
  // Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  // Uniform integer in [0, n).
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n);
  // Standard normal via Box-Muller (no cached spare: keeps fork() streams
  // independent of call parity).
  [[nodiscard]] double normal();
  [[nodiscard]] double normal(double mean, double stddev);
  // Log-normal parameterized by the mean/stddev of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma);
  // Exponential with the given mean.
  [[nodiscard]] double exponential(double mean);
  // Bernoulli trial.
  [[nodiscard]] bool chance(double p);

 private:
  // Fork children are built through this tag ctor so only explicit
  // seed construction fires on_seed; fork() fires on_fork itself.
  struct NoHook {};
  Rng(std::uint64_t seed, NoHook);

  void init_state(std::uint64_t seed);
  Rng fork_impl(std::uint64_t salt, const char* label,
                std::size_t label_len) const;

  // Zeroed before init_state fills them, so no path (as the static
  // analyzer sees it) reads an indeterminate word.
  std::uint64_t s_[4] = {};
  std::uint64_t id_ = 0;
};

}  // namespace wheels
