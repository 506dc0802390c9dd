// 64-bit FNV-1a over a byte stream: the one implementation behind the RNG's
// fork labels, the scenario hash, the dataset fingerprints and the dataset
// digest. Multi-byte values are fed least significant byte first, so a
// digest does not depend on the host's byte order. Callers that hash
// narrower integers choose their own widening before calling u64().
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace wheels {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ull;

  // A basis other than the standard one starts a separate key space.
  constexpr explicit Fnv1a(std::uint64_t basis = kOffsetBasis)
      : state_(basis) {}

  void byte(std::uint8_t b) {
    state_ ^= b;
    state_ *= 0x100000001B3ull;
  }
  void bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  // By bit pattern: -0.0 and 0.0 differ, and a NaN hashes by its payload.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_;
};

}  // namespace wheels
