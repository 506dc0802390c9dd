#include "dataset/serialize.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>

#include "core/fnv1a.h"

namespace wheels::dataset {
namespace {

// Largest values of the enums that appear in records.
constexpr auto kMaxTestType = trip::TestType::Ping;
constexpr auto kMaxOperator = ran::OperatorId::ATT;
constexpr auto kMaxTimeZone = TimeZone::Eastern;
constexpr auto kMaxEnvironment = radio::Environment::Rural;
constexpr auto kMaxTech = radio::Tech::NR_MMWAVE;
constexpr auto kMaxServerKind = net::ServerKind::Edge;
constexpr auto kMaxAppKind = apps::AppKind::Gaming;

// Conservative lower bound on any record's encoded size (the smallest,
// PassiveSample, is 32 bytes); used only to reject absurd length prefixes.
constexpr std::size_t kMinRecordBytes = 16;

// --- the field list of each record and each dataset kind ---------------------

template <class V, Is<trip::KpiSample> S>
void walk(V& v, S& s) {
  v.f64(s.time.ms_since_epoch);
  v.i32(s.test_id);
  v.enumeration(s.test, kMaxTestType);
  v.enumeration(s.op, kMaxOperator);
  v.f64(s.position.value);
  v.f64(s.speed.value);
  v.enumeration(s.tz, kMaxTimeZone);
  v.enumeration(s.env, kMaxEnvironment);
  v.boolean(s.connected);
  v.enumeration(s.tech, kMaxTech);
  v.f64(s.rsrp_dbm);
  v.f64(s.mcs);
  v.f64(s.bler);
  v.f64(s.num_cc);
  v.f64(s.tput_mbps);
  v.i32(s.handovers);
  v.enumeration(s.server, kMaxServerKind);
}

template <class V, Is<trip::RttSample> S>
void walk(V& v, S& s) {
  v.f64(s.time.ms_since_epoch);
  v.i32(s.test_id);
  v.enumeration(s.op, kMaxOperator);
  v.f64(s.position.value);
  v.f64(s.speed.value);
  v.enumeration(s.tz, kMaxTimeZone);
  v.boolean(s.success);
  v.f64(s.rtt_ms);
  v.boolean(s.connected);
  v.enumeration(s.tech, kMaxTech);
  v.enumeration(s.server, kMaxServerKind);
}

template <class V, Is<trip::PassiveSample> S>
void walk(V& v, S& s) {
  v.f64(s.time.ms_since_epoch);
  v.enumeration(s.op, kMaxOperator);
  v.f64(s.position.value);
  v.f64(s.speed.value);
  v.enumeration(s.tz, kMaxTimeZone);
  v.boolean(s.connected);
  v.enumeration(s.tech, kMaxTech);
  v.u32(s.cell);
}

template <class V, Is<trip::TestSummary> S>
void walk(V& v, S& s) {
  v.i32(s.test_id);
  v.enumeration(s.test, kMaxTestType);
  v.enumeration(s.op, kMaxOperator);
  v.f64(s.start.ms_since_epoch);
  v.f64(s.duration.value);
  v.f64(s.start_position.value);
  v.f64(s.distance.value);
  v.enumeration(s.tz, kMaxTimeZone);
  v.enumeration(s.server, kMaxServerKind);
  v.f64(s.mean);
  v.f64(s.stddev);
  v.i32(s.samples);
  v.i32(s.handovers);
  v.f64(s.frac_high_speed_5g);
  v.f64(s.bytes_transferred);
}

template <class V, Is<ran::HandoverRecord> S>
void walk(V& v, S& h) {
  v.f64(h.time.ms_since_epoch);
  v.f64(h.duration.value);
  v.enumeration(h.from_tech, kMaxTech);
  v.enumeration(h.to_tech, kMaxTech);
  v.u32(h.from_cell);
  v.u32(h.to_cell);
  v.f64(h.position.value);
}

template <class V, Is<apps::AppRunRecord> S>
void walk(V& v, S& a) {
  v.enumeration(a.app, kMaxAppKind);
  v.boolean(a.compression);
  v.enumeration(a.op, kMaxOperator);
  v.f64(a.start.ms_since_epoch);
  v.f64(a.position.value);
  v.enumeration(a.tz, kMaxTimeZone);
  v.enumeration(a.server, kMaxServerKind);
  v.i32(a.handovers);
  v.f64(a.frac_high_speed_5g);
  v.f64(a.mean_e2e_ms);
  v.f64(a.median_e2e_ms);
  v.f64(a.offloaded_fps);
  v.f64(a.map);
  v.vec64(a.e2e_ms, sizeof(double), [&](auto& x) { v.f64(x); });
  v.f64(a.qoe);
  v.f64(a.avg_bitrate_mbps);
  v.f64(a.rebuffer_fraction);
  v.f64(a.gaming_bitrate_mbps);
  v.f64(a.gaming_latency_ms);
  v.f64(a.frame_drop_rate);
}

template <class V, Is<trip::OperatorLogs> S>
void walk(V& v, S& log) {
  const auto record = [&](auto& x) { walk(v, x); };
  v.enumeration(log.op, kMaxOperator);
  v.vec64(log.kpi, kMinRecordBytes, record);
  v.vec64(log.rtt, kMinRecordBytes, record);
  v.vec64(log.tests, kMinRecordBytes, record);
  v.vec64(log.test_handovers, kMinRecordBytes, record);
  v.vec64(log.passive, kMinRecordBytes, record);
  v.vec64(log.passive_handovers, kMinRecordBytes, record);
  v.u64(log.unique_cells);
  v.f64(log.experiment_runtime.value);
}

template <class V, Is<trip::CampaignResult> S>
void walk(V& v, S& r) {
  for (auto& log : r.logs) walk(v, log);
  v.f64(r.route_length.value);
  v.i32(r.days);
  v.f64(r.drive_time.value);
}

template <class V, Is<trip::StaticBaseline> S>
void walk(V& v, S& b) {
  const auto f64 = [&](auto& x) { v.f64(x); };
  v.enumeration(b.op, kMaxOperator);
  v.vec64(b.dl_tput_mbps, sizeof(double), f64);
  v.vec64(b.ul_tput_mbps, sizeof(double), f64);
  v.vec64(b.rtt_ms, sizeof(double), f64);
  v.i32(b.cities_tested);
}

template <class V, Is<std::vector<apps::AppRunRecord>> S>
void walk(V& v, S& runs) {
  v.vec64(runs, kMinRecordBytes, [&](auto& x) { walk(v, x); });
}

template <class V, Is<apps::AppCampaignResult> S>
void walk(V& v, S& r) {
  for (auto& runs : r.runs) walk(v, runs);
}

template <typename Result>
std::string encode_walk(const Result& r) {
  ByteWriter w;
  walk(w, r);
  return w.take();
}

// The walk of `out`'s kind over `src` (a payload in memory or pieces):
// true when every field decoded and no byte is left over.
template <typename Source, typename Result>
bool decode_from(Source& src, Result& out) {
  ByteReader r(src);
  walk(r, out);
  return !r.failed() && r.exhausted();
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

std::string encode(const trip::CampaignResult& r) { return encode_walk(r); }
std::string encode(const trip::StaticBaseline& b) { return encode_walk(b); }
std::string encode(const apps::AppCampaignResult& r) { return encode_walk(r); }
std::string encode(const std::vector<apps::AppRunRecord>& runs) {
  return encode_walk(runs);
}

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
  r.u32(h.version);
  std::uint8_t kind = 0;
  r.u8(kind);
  if (kind < 1 || kind > 4) return std::nullopt;
  h.kind = static_cast<DatasetKind>(kind);
  r.u64(h.fingerprint);
  r.u64(h.payload_bytes);
  r.u64(h.checksum);
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
