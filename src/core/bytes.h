// The little-endian codec of the repo's two wire formats: the WDS1
// dataset payloads (dataset/serialize.h) and the WSV1 serve protocol
// (serve/protocol.h). Integers are little-endian whatever the host, a
// double travels as its bit pattern, and a decoder is bounds-checked and
// must consume every byte.
//
// Each record or message lists its fields once, in a
//   template <class V, Is<T> S> void walk(V& v, S& s)
// that the ByteWriter runs over a const T to encode and the ByteReader
// runs over a T to decode, so the two cannot disagree on the layout.
// Header-only, so that the per-field fast path inlines into every walk.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wheels {

// S is T or const T: the value a walk visits, const for the ByteWriter.
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

// The little-endian unsigned integer in the sizeof(T) bytes at `p`.
template <typename T>
T load_le(const char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(p[i])) << (8 * i);
    }
  }
  return v;
}

// A payload that arrives in pieces, such as a cache file read a piece at
// a time. The decoder holds a window of it and asks for the next one when
// a field runs past the bytes the window has left.
class PayloadPieces {
 public:
  // The next window: the last `unread` bytes of the previous window moved
  // to its front, then more of the payload until the window holds at
  // least `need` bytes. Shorter only when the payload ended or a read
  // failed; empty at the end when `unread` is 0. Invalidates the previous
  // window.
  virtual std::string_view next(std::size_t unread, std::size_t need) = 0;
  // Declared payload bytes that no window has held yet.
  [[nodiscard]] virtual std::uint64_t pending() const = 0;

 protected:
  ~PayloadPieces() = default;
};

// The walk visitor that encodes. On a little-endian host a fixed-width
// field is its in-memory bytes, copied whole; elsewhere it is assembled
// one byte at a time. The checks a walk states are the ByteReader's.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { fixed(v); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  // An int travels in 8 bytes.
  void i32(int v) { u64(static_cast<std::uint64_t>(std::int64_t{v})); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  // An enum travels in its underlying type; `max` is its largest value.
  template <class E>
  void enumeration(E v, E /*max*/) {
    fixed(static_cast<std::underlying_type_t<E>>(v));
  }
  void check(bool /*ok*/) {}

  // The element count as a u64 or u32, then each element through `each`;
  // `min_bytes` is the fewest bytes an element encodes to.
  template <class T, class F>
  void vec64(const std::vector<T>& xs, std::size_t /*min_bytes*/, F&& each) {
    u64(xs.size());
    for (const T& x : xs) each(x);
  }
  template <class T, class F>
  void vec32(const std::vector<T>& xs, std::size_t /*min_bytes*/, F&& each) {
    u32(static_cast<std::uint32_t>(xs.size()));
    for (const T& x : xs) each(x);
  }

  // A string after its length as a u8. One longer than 255 bytes throws
  // std::invalid_argument: cut short, a name would name something else.
  void str8(std::string_view s) {
    if (s.size() > std::numeric_limits<std::uint8_t>::max()) {
      throw std::invalid_argument("a string of " + std::to_string(s.size()) +
                                  " bytes does not fit a u8 length");
    }
    u8(static_cast<std::uint8_t>(s.size()));
    bytes(s);
  }
  // A string after its length as a u16, cut to its first 65,535 bytes.
  void str16(std::string_view s) {
    s = s.substr(0, std::numeric_limits<std::uint16_t>::max());
    u16(static_cast<std::uint16_t>(s.size()));
    bytes(s);
  }

  void bytes(std::string_view s) { out_.append(s); }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  template <typename T>
  void fixed(T v) {
    if constexpr (sizeof(T) == 1) {
      out_.push_back(static_cast<char>(v));
    } else if constexpr (std::endian::native == std::endian::little) {
      char buf[sizeof(T)];
      std::memcpy(buf, &v, sizeof(T));
      out_.append(buf, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
      }
    }
  }

  std::string out_;
};

// The walk visitor that decodes. Every read checks the bytes left in its
// window once; a read past the end of the payload, or a value a check
// refuses, sets a sticky failure flag, so a decoder runs a whole walk and
// tests failed() afterwards. Over a payload in memory the window is the
// whole payload. Over pieces, a field that runs past the window fetches
// the next one first (the slow path, once per piece), so the per-field
// cost is the same single check.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data)
      : p_(data.data()), end_(data.data() + data.size()) {}
  explicit ByteReader(PayloadPieces& in) : in_(&in) {}

  void u8(std::uint8_t& v) { v = fixed<std::uint8_t>(); }
  void u16(std::uint16_t& v) { v = fixed<std::uint16_t>(); }
  void u32(std::uint32_t& v) { v = fixed<std::uint32_t>(); }
  void u64(std::uint64_t& v) { v = fixed<std::uint64_t>(); }
  // Refuses a value outside int's range.
  void i32(int& v) {
    const auto x = static_cast<std::int64_t>(fixed<std::uint64_t>());
    check(x >= std::numeric_limits<int>::min() &&
          x <= std::numeric_limits<int>::max());
    v = static_cast<int>(x);
  }
  void f64(double& v) { v = std::bit_cast<double>(fixed<std::uint64_t>()); }
  // Refuses a byte other than 0 or 1.
  void boolean(bool& v) {
    const std::uint8_t x = fixed<std::uint8_t>();
    check(x <= 1);
    v = x == 1;
  }
  // Refuses a value above `max`.
  template <class E>
  void enumeration(E& v, E max) {
    v = static_cast<E>(fixed<std::underlying_type_t<E>>());
    check(v <= max);
  }
  void check(bool ok) {
    if (!ok) fail_ = true;
  }

  // An element count is capped by the bytes still to come, the window's
  // and those the pieces declare: each element takes at least
  // `min_bytes`, so a count implying more data than the payload holds is
  // refused before anything is reserved (instead of attempting a
  // multi-gigabyte reserve on a corrupt file). After a failure no count
  // is read: the vector is left empty.
  template <class T, class F>
  void vec64(std::vector<T>& xs, std::size_t min_bytes, F&& each) {
    elements(count<std::uint64_t>(min_bytes), xs, each);
  }
  template <class T, class F>
  void vec32(std::vector<T>& xs, std::size_t min_bytes, F&& each) {
    elements(count<std::uint32_t>(min_bytes), xs, each);
  }

  // Strings are read from memory only: no field of a payload read in
  // pieces is one.
  void str8(std::string& s) { s = bytes(fixed<std::uint8_t>()); }
  void str16(std::string& s) { s = bytes(fixed<std::uint16_t>()); }

  [[nodiscard]] bool failed() const { return fail_; }
  // Every byte of the payload read, none left in the window or declared.
  [[nodiscard]] bool exhausted() const {
    return p_ == end_ && (in_ == nullptr || in_->pending() == 0);
  }

 private:
  [[nodiscard]] std::size_t window_left() const {
    return static_cast<std::size_t>(end_ - p_);
  }

  template <typename T>
  T fixed() {
    if (window_left() < sizeof(T) && !refill(sizeof(T))) {
      fail_ = true;
      return 0;
    }
    const char* p = p_;
    p_ += sizeof(T);
    return load_le<T>(p);
  }

  template <typename U>
  std::size_t count(std::size_t min_bytes) {
    if (fail_) return 0;
    const std::uint64_t n = fixed<U>();
    const std::uint64_t left = window_left() + (in_ ? in_->pending() : 0);
    if (n > left / min_bytes) {
      fail_ = true;
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  template <class T, class F>
  void elements(std::size_t n, std::vector<T>& xs, F& each) {
    xs.clear();
    xs.reserve(n);
    for (std::size_t i = 0; i < n && !fail_; ++i) each(xs.emplace_back());
  }

  // The next n bytes of the window.
  std::string_view bytes(std::size_t n) {
    if (window_left() < n) {
      fail_ = true;
      return {};
    }
    const char* p = p_;
    p_ += n;
    return {p, n};
  }

  // The window holds fewer than `need` bytes: true once the next window
  // (the unread tail, then more) holds `need`.
  [[gnu::noinline]] bool refill(std::size_t need) {
    if (in_ == nullptr) return false;
    const std::string_view w = in_->next(window_left(), need);
    p_ = w.data();
    end_ = w.data() + w.size();
    return w.size() >= need;
  }

  const char* p_ = nullptr;    // next unread byte of the window
  const char* end_ = nullptr;  // end of the window
  PayloadPieces* in_ = nullptr;
  bool fail_ = false;
};

}  // namespace wheels
