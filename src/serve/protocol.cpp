#include "serve/protocol.h"

#include <cstddef>
#include <utility>

#include "core/bytes.h"

namespace wheels::serve {
namespace {

// Largest op (AT&T) and test (RTT), the last TimeZone, and the tz that
// selects the whole drive.
constexpr std::uint8_t kMaxOp = 2;
constexpr std::uint8_t kMaxTest = 2;
constexpr std::uint8_t kMaxTz = 3;
constexpr std::uint8_t kWholeDrive = 255;

// The smaller reply row, RegionRow, is 25 bytes.
constexpr std::size_t kMinRowBytes = 25;

// --- the field list of each message ------------------------------------------

template <class V, Is<DatasetSelector> S>
void walk(V& v, S& s) {
  v.str8(s.scenario);
  v.boolean(s.has_seed);
  v.u64(s.seed);
  v.u32(s.stride);
  v.check(s.stride != 0);
}

template <class V, Is<PingRequest> S>
void walk(V& v, S& q) {
  v.u64(q.token);
}

template <class V, Is<KpiQuery> S>
void walk(V& v, S& q) {
  walk(v, q.dataset);
  v.u8(q.op);
  v.u8(q.test);
  v.u8(q.tz);
  v.f64(q.min_mph);
  v.f64(q.max_mph);
  v.check(q.op <= kMaxOp && q.test <= kMaxTest &&
          (q.tz <= kMaxTz || q.tz == kWholeDrive));
}

template <class V, Is<RegionSliceQuery> S>
void walk(V& v, S& q) {
  walk(v, q.dataset);
  v.u8(q.op);
  v.u8(q.test);
  v.check(q.op <= kMaxOp && q.test <= kMaxTest);
}

template <class V, Is<AppQoeQuery> S>
void walk(V& v, S& q) {
  walk(v, q.dataset);
  v.u8(q.op);
  v.check(q.op <= kMaxOp);
}

template <class V, Is<ErrorReply> S>
void walk(V& v, S& e) {
  v.enumeration(e.code, ErrorCode::Busy);
  v.check(e.code >= ErrorCode::BadMagic);
  v.str16(e.message);
}

template <class V, Is<PongReply> S>
void walk(V& v, S& p) {
  v.u64(p.token);
}

template <class V, Is<KpiReply> S>
void walk(V& v, S& k) {
  v.u64(k.count);
  v.f64(k.mean);
  v.f64(k.p10);
  v.f64(k.p50);
  v.f64(k.p90);
  v.f64(k.p99);
}

template <class V, Is<RegionRow> S>
void walk(V& v, S& row) {
  v.u8(row.tz);
  v.u64(row.count);
  v.f64(row.median);
  v.f64(row.p90);
}

template <class V, Is<AppQoeRow> S>
void walk(V& v, S& row) {
  v.u8(row.app);
  v.u8(row.compression);
  v.u64(row.count);
  v.f64(row.m1);
  v.f64(row.m2);
  v.f64(row.m3);
}

template <class V, class S>
  requires Is<S, RegionReply> || Is<S, AppQoeReply>
void walk(V& v, S& r) {
  v.vec32(r.rows, kMinRowBytes, [&](auto& row) { walk(v, row); });
}

template <class V, Is<StatsReply> S>
void walk(V& v, S& s) {
  v.u64(s.requests);
  v.u64(s.errors);
  v.u64(s.sessions);
  v.u64(s.store_hits);
  v.u64(s.store_misses);
  v.u64(s.store_evictions);
  v.u64(s.store_resident);
  v.u64(s.store_capacity);
  v.u64(s.inflight_leaders);
  v.u64(s.inflight_joins);
  v.u64(s.campaign_simulations);
  v.u64(s.baseline_simulations);
  v.u64(s.disk_hits);
}

// Messages without fields.
template <class V, class S>
  requires Is<S, StatsRequest> || Is<S, ShutdownRequest> ||
           Is<S, ShutdownReply>
void walk(V& /*v*/, S& /*s*/) {}

// Alternative `i` of `out`'s variant, walked by `r`; `out` is assigned
// only when every field decoded and no byte is left over.
template <class Variant>
bool decode_alternative(ByteReader& r, std::size_t i, Variant& out) {
  Variant m;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((I == i ? void(walk(r, m.template emplace<I>())) : void()), ...);
  }(std::make_index_sequence<std::variant_size_v<Variant>>());
  if (r.failed() || !r.exhausted()) return false;
  out = std::move(m);
  return true;
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadMagic: return "bad-magic";
    case ErrorCode::Oversize: return "oversize";
    case ErrorCode::Truncated: return "truncated";
    case ErrorCode::UnknownKind: return "unknown-kind";
    case ErrorCode::BadPayload: return "bad-payload";
    case ErrorCode::BadScenario: return "bad-scenario";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::IdleTimeout: return "idle-timeout";
    case ErrorCode::Busy: return "busy";
  }
  return "?";
}

QueryKind kind_of(const Request& req) {
  return static_cast<QueryKind>(req.index() + 1);
}

FrameStatus peek_frame(std::string_view bytes, std::size_t max_body_bytes,
                       std::uint32_t& body_len) {
  if (bytes.size() < kFrameHeaderBytes) return FrameStatus::NeedMore;
  if (bytes.substr(0, kFrameMagic.size()) != kFrameMagic)
    return FrameStatus::BadMagic;
  body_len = load_le<std::uint32_t>(bytes.data() + kFrameMagic.size());
  if (body_len > max_body_bytes) return FrameStatus::Oversize;
  return FrameStatus::Ok;
}

std::string wrap_frame(std::string_view body) {
  ByteWriter w;
  w.bytes(kFrameMagic);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.bytes(body);
  return w.take();
}

std::string encode_request(const Request& req) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kind_of(req)));
  std::visit([&w](const auto& q) { walk(w, q); }, req);
  return w.take();
}

DecodeStatus decode_request(std::string_view body, Request& out) {
  ByteReader r(body);
  std::uint8_t tag = 0;
  r.u8(tag);
  if (r.failed()) return DecodeStatus::Malformed;
  if (tag == 0 || tag > std::variant_size_v<Request>) {
    return DecodeStatus::UnknownKind;
  }
  return decode_alternative(r, tag - 1, out) ? DecodeStatus::Ok
                                             : DecodeStatus::Malformed;
}

std::string encode_reply(std::uint8_t kind, const Reply& reply) {
  ByteWriter w;
  w.u8(std::holds_alternative<ErrorReply>(reply) ? 1 : 0);
  w.u8(kind);
  std::visit([&w](const auto& m) { walk(w, m); }, reply);
  return w.take();
}

bool decode_reply(std::string_view body, std::uint8_t& kind, Reply& out) {
  ByteReader r(body);
  std::uint8_t status = 0;
  r.u8(status);
  r.u8(kind);
  if (r.failed() || status > 1) return false;
  // An error travels under any kind; any other reply under the kind of
  // the request it answers, which is its alternative's index.
  if (status == 0 && (kind == 0 || kind >= std::variant_size_v<Reply>)) {
    return false;
  }
  return decode_alternative(r, status == 1 ? 0 : kind, out);
}

}  // namespace wheels::serve
