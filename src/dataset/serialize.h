// Versioned binary (de)serialization for campaign datasets.
//
// The simulate -> analyze split hinges on a stable on-disk form of every
// record the campaign produces (mirroring the study's consolidated XCAL
// database): a fixed little-endian field-by-field encoding (the codec of
// core/bytes.h; each record's fields are listed once, in a walk that both
// encode and decode run) wrapped in a self-describing container header
// (magic, schema version, dataset kind, config fingerprint, payload
// checksum). Readers are fully bounds-checked and reject any file whose
// header, length, or checksum disagrees with the payload, so a corrupt or
// stale cache entry degrades to re-simulation, never to a wrong figure.
// Each kind has one decoder, which reads either a payload in memory or one
// that arrives in pieces (PayloadPieces: the cache's file reader, which
// checks the checksum once the last piece is in).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app_campaign.h"
#include "core/bytes.h"
#include "trip/campaign.h"

namespace wheels::dataset {

// Bump whenever the encoded layout of any record changes, or when the
// simulation bytes change for an unchanged fingerprint (v2: per-city ping
// RNG streams in the static baseline), or when the container checksum
// changes (v3: payload_checksum in place of FNV-1a). Readers reject files
// written under a different version (no migration: datasets are cheap to
// regenerate from the seed). Both pins are registered in
// tools/contracts.json -- bump the registry (with a fresh golden) in the
// same change, or the wheels-contract schema-pin rule fails CI.
inline constexpr std::uint32_t kSchemaVersion = 3;

inline constexpr std::string_view kMagic = "WDS1";

enum class DatasetKind : std::uint8_t {
  Campaign = 1,          // trip::CampaignResult
  StaticBaseline = 2,    // trip::StaticBaseline (one operator)
  AppCampaign = 3,       // apps::AppCampaignResult
  AppStaticBaseline = 4  // std::vector<apps::AppRunRecord> (one operator)
};

[[nodiscard]] std::string_view to_string(DatasetKind k);

struct DatasetHeader {
  std::uint32_t version = 0;
  DatasetKind kind = DatasetKind::Campaign;
  std::uint64_t fingerprint = 0;  // of the producing config (fingerprint.h)
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;  // payload_checksum of the payload bytes
};

// FNV-1a 64-bit over a byte range: the digest of a payload that the
// golden, the dataset pins and the benchmark's expected digests record.
// It reads one byte per step, so the container does not use it.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

// The container's integrity checksum: 64 bits over the payload, read as
// little-endian 8-byte words in four independent lanes of 32-byte stripes.
// Every lane step is a bijection of its word, so a change confined to one
// 8-byte word always changes the result. Like FNV-1a it catches accidents
// (a torn write, a flipped bit), not attackers: the bounds-checked
// decoders are the guard against hostile bytes.
[[nodiscard]] std::uint64_t payload_checksum(std::string_view bytes);

// payload_checksum fed in pieces: update() with consecutive pieces of a
// payload, of any lengths, then digest() equals payload_checksum of their
// concatenation. A partial 32-byte stripe waits for the next piece.
class PayloadChecksum {
 public:
  PayloadChecksum();

  void update(std::string_view bytes);
  [[nodiscard]] std::uint64_t digest() const;

 private:
  // Folds the whole 32-byte stripes at `p` (n a multiple of 32) into the
  // lanes.
  void stripes(const char* p, std::size_t n);

  std::uint64_t lanes_[4];
  std::uint64_t total_ = 0;  // bytes so far
  char stripe_[32] = {};     // the first held_ bytes of a partial stripe
  std::size_t held_ = 0;
};

// --- payload encoding -------------------------------------------------------
[[nodiscard]] std::string encode(const trip::CampaignResult& r);
[[nodiscard]] std::string encode(const trip::StaticBaseline& b);
[[nodiscard]] std::string encode(const apps::AppCampaignResult& r);
[[nodiscard]] std::string encode(const std::vector<apps::AppRunRecord>& runs);

// Decoders return false (leaving `out` unspecified) on any malformed,
// truncated, or out-of-range input, or on bytes left over. Each kind has
// one decoder body; the two overloads run it over memory or over pieces.
// An element count is capped by the bytes still to come (the window plus
// what `pending()` declares), so a corrupt count cannot size a buffer
// beyond the payload's declared length.
[[nodiscard]] bool decode(std::string_view payload, trip::CampaignResult& out);
[[nodiscard]] bool decode(std::string_view payload, trip::StaticBaseline& out);
[[nodiscard]] bool decode(std::string_view payload,
                          apps::AppCampaignResult& out);
[[nodiscard]] bool decode(std::string_view payload,
                          std::vector<apps::AppRunRecord>& out);
[[nodiscard]] bool decode(PayloadPieces& in, trip::CampaignResult& out);
[[nodiscard]] bool decode(PayloadPieces& in, trip::StaticBaseline& out);
[[nodiscard]] bool decode(PayloadPieces& in, apps::AppCampaignResult& out);
[[nodiscard]] bool decode(PayloadPieces& in,
                          std::vector<apps::AppRunRecord>& out);

// --- container --------------------------------------------------------------
// Bytes of the container header that precedes every payload: magic, schema
// version, kind, fingerprint, payload length and checksum.
inline constexpr std::size_t kHeaderBytes = 4 + 4 + 1 + 8 + 8 + 8;

// The container header for `payload`; the file image is this header
// followed by the payload bytes.
[[nodiscard]] std::string encode_header(DatasetKind kind,
                                        std::uint64_t fingerprint,
                                        std::string_view payload);

// Prepend the header to an encoded payload, producing the full file image.
[[nodiscard]] std::string wrap_dataset(DatasetKind kind,
                                       std::uint64_t fingerprint,
                                       std::string_view payload);

// Parse just the header (for `wheels_campaign info`); nullopt when the file
// is too short or the magic/version tag is unrecognisable.
[[nodiscard]] std::optional<DatasetHeader> parse_header(std::string_view file);

// Every rule a file's header must pass before its payload is touched:
// magic, schema version, kind, fingerprint (`expected_fingerprint` 0
// accepts any config) and a payload length equal to what the file holds
// after the header. `head` holds at least the first kHeaderBytes of a file
// of `file_bytes` bytes. The checksum is left to the caller, which checks
// it once it has read the whole payload.
[[nodiscard]] std::optional<DatasetHeader> accept_header(
    std::string_view head, std::uint64_t file_bytes, DatasetKind expected_kind,
    std::uint64_t expected_fingerprint);

// Validate the container end-to-end (accept_header, then the checksum) and
// return a view of the payload.
[[nodiscard]] std::optional<std::string_view> unwrap_dataset(
    std::string_view file, DatasetKind expected_kind,
    std::uint64_t expected_fingerprint);

}  // namespace wheels::dataset
