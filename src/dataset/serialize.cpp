#include "dataset/serialize.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>

#include "core/fnv1a.h"

namespace wheels::dataset {
namespace {

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

// Fixed little-endian byte order, independent of the host, so datasets are
// portable between machines (and checksums comparable in CI). On a
// little-endian host a fixed-width field is its in-memory bytes, copied
// whole; elsewhere it is assembled one byte at a time.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(int v) { i64(v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void size(std::size_t n) { u64(static_cast<std::uint64_t>(n)); }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  template <typename T>
  void fixed(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      char bytes[sizeof(T)];
      std::memcpy(bytes, &v, sizeof(T));
      out_.append(bytes, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        u8(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
      }
    }
  }

  std::string out_;
};

// Every read checks the bytes left in its window once; a read past the
// end of the payload sets a sticky failure flag and yields 0, so a decoder
// can run a whole record and test failed() afterwards. Over a payload in
// memory the window is the whole payload. Over pieces, a field that runs
// past the window fetches the next one first (the slow path, once per
// piece), so the per-field cost is the same single check.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data)
      : p_(data.data()), end_(data.data() + data.size()) {}
  explicit ByteReader(PayloadPieces& in) : in_(&in) {}

  std::uint8_t u8() {
    if (p_ == end_ && !refill(1)) {
      fail_ = true;
      return 0;
    }
    return static_cast<std::uint8_t>(*p_++);
  }

  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  int i32() {
    const std::int64_t v = i64();
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      fail_ = true;
      return 0;
    }
    return static_cast<int>(v);
  }

  double f64() { return std::bit_cast<double>(u64()); }

  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail_ = true;
    return v == 1;
  }

  // Element counts are sanity-capped against the bytes still to come, the
  // window's and those the pieces declare: each element takes at least
  // `min_elem_bytes`, so a length prefix implying more data than the
  // payload holds is rejected immediately (instead of attempting a
  // multi-gigabyte reserve on a corrupt file).
  std::size_t size(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    const std::uint64_t left = window_left() + (in_ ? in_->pending() : 0);
    if (min_elem_bytes > 0 && n > left / min_elem_bytes) {
      fail_ = true;
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  // Enum decoded from u8, validated against the inclusive max value.
  template <typename E>
  E enum8(std::uint8_t max_value) {
    const std::uint8_t v = u8();
    if (v > max_value) fail_ = true;
    return static_cast<E>(v);
  }

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

// Inclusive max underlying values of the enums that appear in records.
constexpr std::uint8_t kMaxTestType = 2;    // trip::TestType::Ping
constexpr std::uint8_t kMaxOperator = 2;    // ran::OperatorId::ATT
constexpr std::uint8_t kMaxTimeZone = 3;    // TimeZone::Eastern
constexpr std::uint8_t kMaxEnvironment = 2; // radio::Environment::Rural
constexpr std::uint8_t kMaxTech = 4;        // radio::Tech::NR_MMWAVE
constexpr std::uint8_t kMaxServerKind = 1;  // net::ServerKind::Edge
constexpr std::uint8_t kMaxAppKind = 3;     // apps::AppKind::Gaming

// --- per-record field codecs ------------------------------------------------

void put(ByteWriter& w, const trip::KpiSample& s) {
  w.f64(s.time.ms_since_epoch);
  w.i32(s.test_id);
  w.u8(static_cast<std::uint8_t>(s.test));
  w.u8(static_cast<std::uint8_t>(s.op));
  w.f64(s.position.value);
  w.f64(s.speed.value);
  w.u8(static_cast<std::uint8_t>(s.tz));
  w.u8(static_cast<std::uint8_t>(s.env));
  w.boolean(s.connected);
  w.u8(static_cast<std::uint8_t>(s.tech));
  w.f64(s.rsrp_dbm);
  w.f64(s.mcs);
  w.f64(s.bler);
  w.f64(s.num_cc);
  w.f64(s.tput_mbps);
  w.i32(s.handovers);
  w.u8(static_cast<std::uint8_t>(s.server));
}

void get(ByteReader& r, trip::KpiSample& s) {
  s.time.ms_since_epoch = r.f64();
  s.test_id = r.i32();
  s.test = r.enum8<trip::TestType>(kMaxTestType);
  s.op = r.enum8<ran::OperatorId>(kMaxOperator);
  s.position = Meters{r.f64()};
  s.speed = Mph{r.f64()};
  s.tz = r.enum8<TimeZone>(kMaxTimeZone);
  s.env = r.enum8<radio::Environment>(kMaxEnvironment);
  s.connected = r.boolean();
  s.tech = r.enum8<radio::Tech>(kMaxTech);
  s.rsrp_dbm = r.f64();
  s.mcs = r.f64();
  s.bler = r.f64();
  s.num_cc = r.f64();
  s.tput_mbps = r.f64();
  s.handovers = r.i32();
  s.server = r.enum8<net::ServerKind>(kMaxServerKind);
}

void put(ByteWriter& w, const trip::RttSample& s) {
  w.f64(s.time.ms_since_epoch);
  w.i32(s.test_id);
  w.u8(static_cast<std::uint8_t>(s.op));
  w.f64(s.position.value);
  w.f64(s.speed.value);
  w.u8(static_cast<std::uint8_t>(s.tz));
  w.boolean(s.success);
  w.f64(s.rtt_ms);
  w.boolean(s.connected);
  w.u8(static_cast<std::uint8_t>(s.tech));
  w.u8(static_cast<std::uint8_t>(s.server));
}

void get(ByteReader& r, trip::RttSample& s) {
  s.time.ms_since_epoch = r.f64();
  s.test_id = r.i32();
  s.op = r.enum8<ran::OperatorId>(kMaxOperator);
  s.position = Meters{r.f64()};
  s.speed = Mph{r.f64()};
  s.tz = r.enum8<TimeZone>(kMaxTimeZone);
  s.success = r.boolean();
  s.rtt_ms = r.f64();
  s.connected = r.boolean();
  s.tech = r.enum8<radio::Tech>(kMaxTech);
  s.server = r.enum8<net::ServerKind>(kMaxServerKind);
}

void put(ByteWriter& w, const trip::PassiveSample& s) {
  w.f64(s.time.ms_since_epoch);
  w.u8(static_cast<std::uint8_t>(s.op));
  w.f64(s.position.value);
  w.f64(s.speed.value);
  w.u8(static_cast<std::uint8_t>(s.tz));
  w.boolean(s.connected);
  w.u8(static_cast<std::uint8_t>(s.tech));
  w.u32(s.cell);
}

void get(ByteReader& r, trip::PassiveSample& s) {
  s.time.ms_since_epoch = r.f64();
  s.op = r.enum8<ran::OperatorId>(kMaxOperator);
  s.position = Meters{r.f64()};
  s.speed = Mph{r.f64()};
  s.tz = r.enum8<TimeZone>(kMaxTimeZone);
  s.connected = r.boolean();
  s.tech = r.enum8<radio::Tech>(kMaxTech);
  s.cell = r.u32();
}

void put(ByteWriter& w, const trip::TestSummary& s) {
  w.i32(s.test_id);
  w.u8(static_cast<std::uint8_t>(s.test));
  w.u8(static_cast<std::uint8_t>(s.op));
  w.f64(s.start.ms_since_epoch);
  w.f64(s.duration.value);
  w.f64(s.start_position.value);
  w.f64(s.distance.value);
  w.u8(static_cast<std::uint8_t>(s.tz));
  w.u8(static_cast<std::uint8_t>(s.server));
  w.f64(s.mean);
  w.f64(s.stddev);
  w.i32(s.samples);
  w.i32(s.handovers);
  w.f64(s.frac_high_speed_5g);
  w.f64(s.bytes_transferred);
}

void get(ByteReader& r, trip::TestSummary& s) {
  s.test_id = r.i32();
  s.test = r.enum8<trip::TestType>(kMaxTestType);
  s.op = r.enum8<ran::OperatorId>(kMaxOperator);
  s.start.ms_since_epoch = r.f64();
  s.duration = Millis{r.f64()};
  s.start_position = Meters{r.f64()};
  s.distance = Meters{r.f64()};
  s.tz = r.enum8<TimeZone>(kMaxTimeZone);
  s.server = r.enum8<net::ServerKind>(kMaxServerKind);
  s.mean = r.f64();
  s.stddev = r.f64();
  s.samples = r.i32();
  s.handovers = r.i32();
  s.frac_high_speed_5g = r.f64();
  s.bytes_transferred = r.f64();
}

void put(ByteWriter& w, const ran::HandoverRecord& h) {
  w.f64(h.time.ms_since_epoch);
  w.f64(h.duration.value);
  w.u8(static_cast<std::uint8_t>(h.from_tech));
  w.u8(static_cast<std::uint8_t>(h.to_tech));
  w.u32(h.from_cell);
  w.u32(h.to_cell);
  w.f64(h.position.value);
}

void get(ByteReader& r, ran::HandoverRecord& h) {
  h.time.ms_since_epoch = r.f64();
  h.duration = Millis{r.f64()};
  h.from_tech = r.enum8<radio::Tech>(kMaxTech);
  h.to_tech = r.enum8<radio::Tech>(kMaxTech);
  h.from_cell = r.u32();
  h.to_cell = r.u32();
  h.position = Meters{r.f64()};
}

void put(ByteWriter& w, const apps::AppRunRecord& a) {
  w.u8(static_cast<std::uint8_t>(a.app));
  w.boolean(a.compression);
  w.u8(static_cast<std::uint8_t>(a.op));
  w.f64(a.start.ms_since_epoch);
  w.f64(a.position.value);
  w.u8(static_cast<std::uint8_t>(a.tz));
  w.u8(static_cast<std::uint8_t>(a.server));
  w.i32(a.handovers);
  w.f64(a.frac_high_speed_5g);
  w.f64(a.mean_e2e_ms);
  w.f64(a.median_e2e_ms);
  w.f64(a.offloaded_fps);
  w.f64(a.map);
  w.size(a.e2e_ms.size());
  for (double v : a.e2e_ms) w.f64(v);
  w.f64(a.qoe);
  w.f64(a.avg_bitrate_mbps);
  w.f64(a.rebuffer_fraction);
  w.f64(a.gaming_bitrate_mbps);
  w.f64(a.gaming_latency_ms);
  w.f64(a.frame_drop_rate);
}

void get(ByteReader& r, apps::AppRunRecord& a) {
  a.app = r.enum8<apps::AppKind>(kMaxAppKind);
  a.compression = r.boolean();
  a.op = r.enum8<ran::OperatorId>(kMaxOperator);
  a.start.ms_since_epoch = r.f64();
  a.position = Meters{r.f64()};
  a.tz = r.enum8<TimeZone>(kMaxTimeZone);
  a.server = r.enum8<net::ServerKind>(kMaxServerKind);
  a.handovers = r.i32();
  a.frac_high_speed_5g = r.f64();
  a.mean_e2e_ms = r.f64();
  a.median_e2e_ms = r.f64();
  a.offloaded_fps = r.f64();
  a.map = r.f64();
  const std::size_t n = r.size(sizeof(double));
  a.e2e_ms.clear();
  a.e2e_ms.reserve(n);
  for (std::size_t i = 0; i < n && !r.failed(); ++i) {
    a.e2e_ms.push_back(r.f64());
  }
  a.qoe = r.f64();
  a.avg_bitrate_mbps = r.f64();
  a.rebuffer_fraction = r.f64();
  a.gaming_bitrate_mbps = r.f64();
  a.gaming_latency_ms = r.f64();
  a.frame_drop_rate = r.f64();
}

template <typename T>
void put_vec(ByteWriter& w, const std::vector<T>& v) {
  w.size(v.size());
  for (const T& e : v) put(w, e);
}

// Conservative lower bound on any record's encoded size (the smallest,
// PassiveSample, is 33 bytes); used only to reject absurd length prefixes.
constexpr std::size_t kMinRecordBytes = 16;

template <typename T>
bool get_vec(ByteReader& r, std::vector<T>& v) {
  const std::size_t n = r.size(kMinRecordBytes);
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (r.failed()) return false;
    get(r, v.emplace_back());
  }
  return !r.failed();
}

void put(ByteWriter& w, const trip::OperatorLogs& log) {
  w.u8(static_cast<std::uint8_t>(log.op));
  put_vec(w, log.kpi);
  put_vec(w, log.rtt);
  put_vec(w, log.tests);
  put_vec(w, log.test_handovers);
  put_vec(w, log.passive);
  put_vec(w, log.passive_handovers);
  w.size(log.unique_cells);
  w.f64(log.experiment_runtime.value);
}

bool get(ByteReader& r, trip::OperatorLogs& log) {
  log.op = r.enum8<ran::OperatorId>(kMaxOperator);
  if (!get_vec(r, log.kpi)) return false;
  if (!get_vec(r, log.rtt)) return false;
  if (!get_vec(r, log.tests)) return false;
  if (!get_vec(r, log.test_handovers)) return false;
  if (!get_vec(r, log.passive)) return false;
  if (!get_vec(r, log.passive_handovers)) return false;
  log.unique_cells = static_cast<std::size_t>(r.u64());
  log.experiment_runtime = Millis{r.f64()};
  return !r.failed();
}

}  // namespace

std::string_view to_string(DatasetKind k) {
  switch (k) {
    case DatasetKind::Campaign: return "campaign";
    case DatasetKind::StaticBaseline: return "static-baseline";
    case DatasetKind::AppCampaign: return "app-campaign";
    case DatasetKind::AppStaticBaseline: return "app-static-baseline";
  }
  return "?";
}

std::uint64_t fnv1a(std::string_view bytes) {
  Fnv1a h;
  h.bytes(bytes);
  return h.digest();
}

namespace {

// Odd multipliers (2^64 / golden ratio and the two splitmix64 constants),
// so every multiply below is a bijection of 64-bit words.
constexpr std::uint64_t kMulLane = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kMulTail = 0xBF58476D1CE4E5B9ull;
constexpr std::uint64_t kMulMix = 0x94D049BB133111EBull;

// One step of a lane or of the tail: for a fixed state it is a bijection
// of the word, and for a fixed word a bijection of the state, so a changed
// word leaves a changed state behind it whatever follows.
constexpr std::uint64_t step(std::uint64_t state, std::uint64_t word,
                             int rot, std::uint64_t mul) {
  return std::rotl(state ^ word, rot) * mul;
}

}  // namespace

// Four independent lanes over 32-byte stripes: their multiplies overlap
// instead of waiting on one another as FNV-1a's byte chain does. Each lane
// starts from its own state, so equal words in two lanes differ.
PayloadChecksum::PayloadChecksum()
    : lanes_{kMulLane, kMulTail, kMulMix, ~kMulLane} {}

void PayloadChecksum::stripes(const char* p, std::size_t n) {
  std::uint64_t a = lanes_[0];
  std::uint64_t b = lanes_[1];
  std::uint64_t c = lanes_[2];
  std::uint64_t d = lanes_[3];
  for (const char* end = p + n; p != end; p += 32) {
    a = step(a, load_le<std::uint64_t>(p), 31, kMulLane);
    b = step(b, load_le<std::uint64_t>(p + 8), 31, kMulLane);
    c = step(c, load_le<std::uint64_t>(p + 16), 31, kMulLane);
    d = step(d, load_le<std::uint64_t>(p + 24), 31, kMulLane);
  }
  lanes_[0] = a;
  lanes_[1] = b;
  lanes_[2] = c;
  lanes_[3] = d;
}

void PayloadChecksum::update(std::string_view bytes) {
  if (bytes.empty()) return;
  total_ += bytes.size();
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  if (held_ > 0) {  // complete the stripe an earlier piece began
    const std::size_t take = std::min(left, sizeof stripe_ - held_);
    std::memcpy(stripe_ + held_, p, take);
    held_ += take;
    p += take;
    left -= take;
    if (held_ < sizeof stripe_) return;
    stripes(stripe_, sizeof stripe_);
    held_ = 0;
  }
  const std::size_t whole = left - left % sizeof stripe_;
  stripes(p, whole);
  held_ = left - whole;
  std::memcpy(stripe_, p + whole, held_);
}

std::uint64_t PayloadChecksum::digest() const {
  // Each lane enters the sum through its own rotation, so for fixed other
  // lanes the sum is a bijection of any one of them.
  std::uint64_t h = lanes_[0] + std::rotl(lanes_[1], 7) +
                    std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
  // The payload's last size % 32 bytes: whole words, then the last 1-7
  // bytes as one zero-padded word.
  const char* p = stripe_;
  std::size_t left = held_;
  for (; left >= 8; p += 8, left -= 8) {
    h = step(h, load_le<std::uint64_t>(p), 27, kMulTail);
  }
  if (left > 0) {
    char last[8] = {};
    std::memcpy(last, p, left);
    h = step(h, load_le<std::uint64_t>(last), 23, kMulTail);
  }
  h ^= total_;
  // Avalanche: xor-shifts and odd multiplies, each a bijection.
  h ^= h >> 31;
  h *= kMulMix;
  h ^= h >> 29;
  h *= kMulLane;
  h ^= h >> 32;
  return h;
}

std::uint64_t payload_checksum(std::string_view bytes) {
  PayloadChecksum sum;
  sum.update(bytes);
  return sum.digest();
}

std::string encode(const trip::CampaignResult& r) {
  ByteWriter w;
  for (const auto& log : r.logs) put(w, log);
  w.f64(r.route_length.value);
  w.i32(r.days);
  w.f64(r.drive_time.value);
  return w.take();
}

std::string encode(const trip::StaticBaseline& b) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(b.op));
  w.size(b.dl_tput_mbps.size());
  for (double v : b.dl_tput_mbps) w.f64(v);
  w.size(b.ul_tput_mbps.size());
  for (double v : b.ul_tput_mbps) w.f64(v);
  w.size(b.rtt_ms.size());
  for (double v : b.rtt_ms) w.f64(v);
  w.i32(b.cities_tested);
  return w.take();
}

std::string encode(const apps::AppCampaignResult& r) {
  ByteWriter w;
  for (const auto& runs : r.runs) put_vec(w, runs);
  return w.take();
}

std::string encode(const std::vector<apps::AppRunRecord>& runs) {
  ByteWriter w;
  put_vec(w, runs);
  return w.take();
}

namespace {

// --- one decoder body per dataset kind ---------------------------------------

void get(ByteReader& r, trip::CampaignResult& out) {
  for (auto& log : out.logs) {
    if (!get(r, log)) return;
  }
  out.route_length = Meters{r.f64()};
  out.days = r.i32();
  out.drive_time = Millis{r.f64()};
}

void get(ByteReader& r, trip::StaticBaseline& out) {
  out.op = r.enum8<ran::OperatorId>(kMaxOperator);
  for (auto* vec : {&out.dl_tput_mbps, &out.ul_tput_mbps, &out.rtt_ms}) {
    const std::size_t n = r.size(sizeof(double));
    vec->clear();
    vec->reserve(n);
    for (std::size_t i = 0; i < n && !r.failed(); ++i) {
      vec->push_back(r.f64());
    }
  }
  out.cities_tested = r.i32();
}

void get(ByteReader& r, apps::AppCampaignResult& out) {
  for (auto& runs : out.runs) {
    if (!get_vec(r, runs)) return;
  }
}

void get(ByteReader& r, std::vector<apps::AppRunRecord>& out) {
  get_vec(r, out);
}

// The body for `out`'s kind over `src` (a payload in memory or pieces):
// true when every field decoded and no byte is left over.
template <typename Source, typename Result>
bool decode_from(Source& src, Result& out) {
  ByteReader r(src);
  get(r, out);
  return !r.failed() && r.exhausted();
}

}  // namespace

bool decode(std::string_view payload, trip::CampaignResult& out) {
  return decode_from(payload, out);
}
bool decode(std::string_view payload, trip::StaticBaseline& out) {
  return decode_from(payload, out);
}
bool decode(std::string_view payload, apps::AppCampaignResult& out) {
  return decode_from(payload, out);
}
bool decode(std::string_view payload, std::vector<apps::AppRunRecord>& out) {
  return decode_from(payload, out);
}
bool decode(PayloadPieces& in, trip::CampaignResult& out) {
  return decode_from(in, out);
}
bool decode(PayloadPieces& in, trip::StaticBaseline& out) {
  return decode_from(in, out);
}
bool decode(PayloadPieces& in, apps::AppCampaignResult& out) {
  return decode_from(in, out);
}
bool decode(PayloadPieces& in, std::vector<apps::AppRunRecord>& out) {
  return decode_from(in, out);
}

std::string encode_header(DatasetKind kind, std::uint64_t fingerprint,
                          std::string_view payload) {
  ByteWriter w;
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(kSchemaVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(fingerprint);
  w.u64(payload.size());
  w.u64(payload_checksum(payload));
  return w.take();
}

std::string wrap_dataset(DatasetKind kind, std::uint64_t fingerprint,
                         std::string_view payload) {
  std::string out = encode_header(kind, fingerprint, payload);
  out.append(payload);
  return out;
}

std::optional<DatasetHeader> parse_header(std::string_view file) {
  if (file.size() < kHeaderBytes) return std::nullopt;
  if (file.substr(0, kMagic.size()) != kMagic) return std::nullopt;
  ByteReader r(file.substr(kMagic.size()));
  DatasetHeader h;
  h.version = r.u32();
  const std::uint8_t kind = r.u8();
  if (kind < 1 || kind > 4) return std::nullopt;
  h.kind = static_cast<DatasetKind>(kind);
  h.fingerprint = r.u64();
  h.payload_bytes = r.u64();
  h.checksum = r.u64();
  if (r.failed()) return std::nullopt;
  return h;
}

std::optional<DatasetHeader> accept_header(std::string_view head,
                                           std::uint64_t file_bytes,
                                           DatasetKind expected_kind,
                                           std::uint64_t expected_fingerprint) {
  const auto h = parse_header(head);
  if (!h) return std::nullopt;
  if (h->version != kSchemaVersion) return std::nullopt;
  if (h->kind != expected_kind) return std::nullopt;
  if (expected_fingerprint != 0 && h->fingerprint != expected_fingerprint) {
    return std::nullopt;
  }
  if (file_bytes < kHeaderBytes ||
      h->payload_bytes != file_bytes - kHeaderBytes) {
    return std::nullopt;
  }
  return h;
}

std::optional<std::string_view> unwrap_dataset(
    std::string_view file, DatasetKind expected_kind,
    std::uint64_t expected_fingerprint) {
  const auto h =
      accept_header(file, file.size(), expected_kind, expected_fingerprint);
  if (!h) return std::nullopt;
  const std::string_view payload = file.substr(kHeaderBytes);
  if (payload_checksum(payload) != h->checksum) return std::nullopt;
  return payload;
}

}  // namespace wheels::dataset
