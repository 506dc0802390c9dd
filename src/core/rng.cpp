#include "core/rng.h"

#include <atomic>
#include <cmath>
#include <numbers>

#include "core/fnv1a.h"

namespace wheels {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::atomic<const RngHooks*> g_rng_hooks{nullptr};

}  // namespace

void set_rng_hooks(const RngHooks* hooks) {
  g_rng_hooks.store(hooks, std::memory_order_release);
}

const RngHooks* rng_hooks() {
  return g_rng_hooks.load(std::memory_order_acquire);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Rng::init_state(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // Stream fingerprint: a fixed mix of the initial state words. Copies
  // share it (copying duplicates a stream, it does not create one), and it
  // never changes as the generator advances.
  id_ = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 43);
}

Rng::Rng(std::uint64_t seed) {
  init_state(seed);
  if (const RngHooks* h = rng_hooks(); h && h->on_seed) {
    h->on_seed(id_, seed);
  }
}

Rng::Rng(std::uint64_t seed, NoHook) { init_state(seed); }

Rng Rng::fork_impl(std::uint64_t salt, const char* label,
                   std::size_t label_len) const {
  // Mix the four state words with the salt through SplitMix64 to obtain a
  // decorrelated child seed without advancing this generator.
  std::uint64_t sm = s_[0] ^ rotl(s_[1], 17) ^ rotl(s_[2], 31) ^ s_[3] ^ salt;
  Rng child(splitmix64(sm), NoHook{});
  if (const RngHooks* h = rng_hooks(); h && h->on_fork) {
    h->on_fork(id_, child.id_, salt, label, label_len);
  }
  return child;
}

Rng Rng::fork(std::uint64_t salt) const { return fork_impl(salt, nullptr, 0); }

Rng Rng::fork(std::string_view label) const {
  // Fork labels hash from 1469598103934665603, the standard offset basis
  // with its last decimal digit dropped. Every labelled fork salt, and so
  // the golden checksum, depends on this value.
  Fnv1a salt(1469598103934665603ull);
  salt.bytes(label);
  return fork_impl(salt.digest(), label.data(), label.size());
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  if (const RngHooks* h = g_rng_hooks.load(std::memory_order_relaxed);
      h && h->on_draw) {
    h->on_draw(id_);
  }
  return result;
}

double Rng::uniform() {
  // 53-bit mantissa in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  // Lemire's unbiased bounded generation would be overkill here; modulo bias
  // for n << 2^64 is negligible for simulation purposes, but we still use
  // the multiply-shift trick which is both fast and nearly unbiased.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next_u64()) * n) >> 64);
}

double Rng::normal() {
  // Box-Muller; discard the spare to keep the stream call-parity free.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double mean) {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

bool Rng::chance(double p) { return uniform() < p; }

}  // namespace wheels
