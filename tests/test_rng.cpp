#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string_view>

#include "core/rng.h"

namespace wheels {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsIndependentOfParentAdvancement) {
  Rng parent(7);
  Rng child1 = parent.fork(11);
  (void)parent.next_u64();  // advancing the parent after the fork...
  Rng parent2(7);
  Rng child2 = parent2.fork(11);
  // ...must not change what an identically-derived child produces.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(child1.next_u64(), child2.next_u64());
  }
}

TEST(Rng, ForkSaltsAndLabelsDistinguish) {
  Rng parent(7);
  Rng a = parent.fork(1), b = parent.fork(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
  Rng c = parent.fork("cell"), d = parent.fork("trip");
  EXPECT_NE(c.next_u64(), d.next_u64());
  // Duplicate labels are the point here: same label, same stream.
  Rng e = parent.fork("cell");  // wheels-lint: allow(duplicate-fork)
  Rng f = parent.fork("cell");  // wheels-lint: allow(duplicate-fork)
  EXPECT_EQ(e.next_u64(), f.next_u64());
}

// Golden values: the determinism contract says any figure regenerates
// bit-for-bit from the campaign seed, which only holds if fork() streams
// are stable across platforms, compilers, and refactors. These constants
// were produced by the reference implementation; if this test fails, the
// generator changed and every recorded figure is invalidated -- do not
// "fix" the constants without bumping the campaign seed policy in
// DESIGN.md.
TEST(Rng, ForkStreamsMatchGoldenValues) {
  const Rng campaign(0xC0FFEEull);

  const struct {
    std::string_view label;
    std::uint64_t expected[4];
  } cases[] = {
      {"fading",
       {0xf7595deb18896445ull, 0x906234501e656982ull, 0x2a4de8b44093fc68ull,
        0x90c0c07dbb077ff7ull}},
      {"cell-load",
       {0xb7b3c1367da509b4ull, 0x64ce0cde67f2d256ull, 0xd2ed3e49812028eaull,
        0x04c6701e124afe37ull}},
      {"handover",
       {0xb0f12ad4695d9285ull, 0xadd92569dde76e05ull, 0x80985a3a2fe5cfe9ull,
        0x039addd60ef0d306ull}},
      {"app-traffic",
       {0x5982801b2ed6d3b5ull, 0x861a7d5fdb2e9057ull, 0xac7ea76d7219222aull,
        0x618711fc5321a923ull}},
  };
  for (const auto& c : cases) {
    Rng stream = campaign.fork(c.label);
    for (std::uint64_t want : c.expected) {
      EXPECT_EQ(stream.next_u64(), want) << "label=" << c.label;
    }
  }

  Rng salted = campaign.fork(std::uint64_t{12345});
  EXPECT_EQ(salted.next_u64(), 0xd49d8913efa9a206ull);
  EXPECT_EQ(salted.next_u64(), 0x18ad1b24d14beaa6ull);

  // Nested forks (campaign -> trip -> UE) are how per-entity streams are
  // actually derived in the simulator; pin one chain end-to-end.
  Rng nested = campaign.fork("trip").fork(std::uint64_t{7}).fork("ue");
  EXPECT_EQ(nested.next_u64(), 0xa1228cab59d091dfull);
  EXPECT_EQ(nested.next_u64(), 0x1c62b782fa3d1aa4ull);

  // The double-producing paths go through bit-exact integer arithmetic
  // (mantissa shift, Box-Muller on exact libm inputs), so they are pinned
  // too: a change here means figures no longer regenerate.
  EXPECT_DOUBLE_EQ(campaign.fork("uniform").uniform(), 0.9028112945776835);
}

TEST(Rng, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1'000; ++i) {
    const double u = r.uniform(5.0, 7.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng r(5);
  double sum = 0.0, sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double u = r.uniform();
    sum += u;
    sq += u * u;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformIndexBounds) {
  Rng r(9);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.uniform_index(17), 17u);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0.0, sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 3.0);
    sum += x;
    sq += (x - 10.0) * (x - 10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n), 3.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, LognormalMedian) {
  Rng r(15);
  std::vector<double> v(20'001);
  for (auto& x : v) x = r.lognormal(std::log(50.0), 0.5);
  std::nth_element(v.begin(), v.begin() + 10'000, v.end());
  EXPECT_NEAR(v[10'000], 50.0, 3.0);
}

TEST(Rng, LognormalIsExpOfTheSameNormalDraw) {
  // The deployment's backhaul and the UE's handover durations call
  // lognormal() where they once wrote exp(normal(...)) out by hand; the
  // datasets stay byte-identical only if that is the same draw and the
  // same arithmetic, bit for bit, leaving the stream in the same place.
  Rng a(21), b(21);
  for (int i = 0; i < 1'000; ++i) {
    const double sigma = 0.1 + 0.001 * i;
    EXPECT_EQ(a.lognormal(0.0, sigma), std::exp(b.normal(0.0, sigma)));
    EXPECT_EQ(a.lognormal(std::log(50.0), sigma),
              std::exp(b.normal(std::log(50.0), sigma)));
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ChanceFrequency) {
  Rng r(17);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

}  // namespace
}  // namespace wheels
