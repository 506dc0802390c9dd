// Length-prefixed binary protocol of the campaign query daemon.
//
// Frame := magic "WSV1" (4 bytes) | u32 body length (LE) | body.
// A request body is one tag byte (QueryKind) followed by the kind-specific
// payload; a response body is a status byte (0 ok, 1 error), the echoed
// request kind, and the reply payload. Bodies are written and read by the
// little-endian codec of core/bytes.h, which the dataset payloads share,
// and each message lists its fields once, in a walk that both encode and
// decode run. Identical queries over identical datasets produce
// byte-identical response frames regardless of jobs count or request
// interleaving (pinned by tests/test_serve.cpp).
//
// Malformed input is a first-class citizen: bad magic, oversize length,
// truncated payloads and unknown tags each map to a typed ErrorCode the
// daemon answers with instead of crashing or wedging the connection.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace wheels::serve {

inline constexpr std::string_view kFrameMagic = "WSV1";
inline constexpr std::size_t kFrameHeaderBytes = 8;  // magic + u32 length
// Default cap on a frame body; override with WHEELS_SERVE_MAX_FRAME or
// RouterOptions/DaemonOptions.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1 << 20;
// Scenario names / paths travel with a u8 length prefix: encode_request
// throws std::invalid_argument for a longer one, since a cut name would
// select a different scenario.
inline constexpr std::size_t kMaxNameBytes = 255;

enum class QueryKind : std::uint8_t {
  Ping = 1,
  KpiPercentiles = 2,
  RegionSlice = 3,
  AppQoe = 4,
  Stats = 5,
  Shutdown = 6,
};

enum class ErrorCode : std::uint16_t {
  BadMagic = 1,
  Oversize = 2,
  Truncated = 3,
  UnknownKind = 4,
  BadPayload = 5,
  BadScenario = 6,
  Internal = 7,
  IdleTimeout = 8,
  Busy = 9,
};

[[nodiscard]] const char* to_string(QueryKind kind);
[[nodiscard]] const char* to_string(ErrorCode code);

// Which dataset a query runs against: a scenario from the built-in
// library (or a JSON path), with an optional seed override and the
// replay/cycle stride (an execution knob of sample density -- part of the
// dataset fingerprint, so distinct strides are distinct datasets).
struct DatasetSelector {
  std::string scenario = "paper-default";
  bool has_seed = false;
  std::uint64_t seed = 0;
  std::uint32_t stride = 64;

  friend bool operator==(const DatasetSelector&,
                         const DatasetSelector&) = default;
};

// ---- Requests --------------------------------------------------------------

struct PingRequest {
  std::uint64_t token = 0;
  friend bool operator==(const PingRequest&, const PingRequest&) = default;
};

// KPI distribution summary over one operator's campaign logs.
struct KpiQuery {
  DatasetSelector dataset;
  std::uint8_t op = 0;    // OperatorId value (0 Verizon, 1 T-Mobile, 2 AT&T)
  std::uint8_t test = 0;  // 0 DL tput, 1 UL tput, 2 RTT
  std::uint8_t tz = 255;  // TimeZone value; 255 = whole drive
  double min_mph = -1.0;
  double max_mph = 1e9;
  friend bool operator==(const KpiQuery&, const KpiQuery&) = default;
};

// Per-time-zone slices of one KPI (the regional Fig. 4 cut).
struct RegionSliceQuery {
  DatasetSelector dataset;
  std::uint8_t op = 0;
  std::uint8_t test = 0;
  friend bool operator==(const RegionSliceQuery&,
                         const RegionSliceQuery&) = default;
};

// App QoE summary rows over one operator's app-campaign runs.
struct AppQoeQuery {
  DatasetSelector dataset;
  std::uint8_t op = 0;
  friend bool operator==(const AppQoeQuery&, const AppQoeQuery&) = default;
};

struct StatsRequest {
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

struct ShutdownRequest {
  friend bool operator==(const ShutdownRequest&,
                         const ShutdownRequest&) = default;
};

// In QueryKind order: a request's tag is its alternative's index + 1.
using Request = std::variant<PingRequest, KpiQuery, RegionSliceQuery,
                             AppQoeQuery, StatsRequest, ShutdownRequest>;

[[nodiscard]] QueryKind kind_of(const Request& req);

// ---- Replies ---------------------------------------------------------------

struct ErrorReply {
  ErrorCode code = ErrorCode::Internal;
  std::string message;  // sent cut to its first 65,535 bytes
  friend bool operator==(const ErrorReply&, const ErrorReply&) = default;
};

struct PongReply {
  std::uint64_t token = 0;
  friend bool operator==(const PongReply&, const PongReply&) = default;
};

struct KpiReply {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p10 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  friend bool operator==(const KpiReply&, const KpiReply&) = default;
};

struct RegionRow {
  std::uint8_t tz = 0;
  std::uint64_t count = 0;
  double median = 0.0;
  double p90 = 0.0;
  friend bool operator==(const RegionRow&, const RegionRow&) = default;
};

struct RegionReply {
  std::vector<RegionRow> rows;  // one per TimeZone, fixed west-to-east order
  friend bool operator==(const RegionReply&, const RegionReply&) = default;
};

struct AppQoeRow {
  std::uint8_t app = 0;  // AppKind value
  std::uint8_t compression = 0;
  std::uint64_t count = 0;
  // Meaning depends on app: AR/CAV = (mean e2e ms, offloaded fps, mAP);
  // Video = (QoE, avg bitrate Mbps, rebuffer fraction); Gaming = (latency
  // ms, bitrate Mbps, frame drop rate).
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;
  friend bool operator==(const AppQoeRow&, const AppQoeRow&) = default;
};

struct AppQoeReply {
  std::vector<AppQoeRow> rows;  // fixed order: AR, AR+comp, CAV, CAV+comp,
                                // Video, Gaming
  friend bool operator==(const AppQoeReply&, const AppQoeReply&) = default;
};

// Daemon-lifetime counters, fixed field order. Explicitly NOT part of the
// byte-determinism claim: stats depend on request history.
struct StatsReply {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t sessions = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_evictions = 0;
  std::uint64_t store_resident = 0;
  std::uint64_t store_capacity = 0;
  std::uint64_t inflight_leaders = 0;
  std::uint64_t inflight_joins = 0;
  std::uint64_t campaign_simulations = 0;
  std::uint64_t baseline_simulations = 0;
  std::uint64_t disk_hits = 0;
  friend bool operator==(const StatsReply&, const StatsReply&) = default;
};

struct ShutdownReply {
  friend bool operator==(const ShutdownReply&, const ShutdownReply&) = default;
};

// A reply's alternative index is the kind of the request it answers;
// ErrorReply travels under any kind, flagged by the status byte.
using Reply = std::variant<ErrorReply, PongReply, KpiReply, RegionReply,
                           AppQoeReply, StatsReply, ShutdownReply>;

// ---- Framing ---------------------------------------------------------------

enum class FrameStatus : std::uint8_t { Ok, NeedMore, BadMagic, Oversize };

// Inspect (without consuming) the frame header at the head of `bytes`.
// NeedMore: fewer than kFrameHeaderBytes available yet. On Ok, body_len is
// the body size that follows the header.
[[nodiscard]] FrameStatus peek_frame(std::string_view bytes,
                                     std::size_t max_body_bytes,
                                     std::uint32_t& body_len);

// Prefix `body` with magic + length.
[[nodiscard]] std::string wrap_frame(std::string_view body);

// ---- Body encode / decode --------------------------------------------------

enum class DecodeStatus : std::uint8_t { Ok, UnknownKind, Malformed };

[[nodiscard]] std::string encode_request(const Request& req);
[[nodiscard]] DecodeStatus decode_request(std::string_view body, Request& out);

// `kind` echoes the request the reply answers (ErrorReply uses the kind of
// the offending request, or 0 when it never decoded). decode_reply refuses
// an error code outside BadMagic..Busy.
[[nodiscard]] std::string encode_reply(std::uint8_t kind, const Reply& reply);
[[nodiscard]] bool decode_reply(std::string_view body, std::uint8_t& kind,
                                Reply& out);

}  // namespace wheels::serve
