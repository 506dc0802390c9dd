// Content-addressed on-disk cache of serialized campaign datasets.
//
// Files are keyed by dataset kind + config fingerprint (+ operator for the
// per-operator baselines): `campaign-<fp>.wds`, `static-<fp>-tmobile.wds`.
// Writes go to a per-process temp name and are renamed into place, so
// concurrent producers (parallel ctest smoke runs) race benignly: the last
// atomic rename wins and every reader sees either a complete file or none.
// Loads read a file's payload in fixed pieces into one reused buffer,
// decode as the pieces arrive and accept the result only when the whole
// declared payload was read and its checksum matches; anything else is a
// miss, so a corrupt, truncated or rewritten file degrades to
// re-simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "dataset/serialize.h"
#include "ran/operator_profile.h"

namespace wheels::dataset {

// The payload of one cache file, read with pread in pieces of
// `piece_bytes` into one buffer that every piece reuses. Each piece feeds
// the checksum as it is read. The header is read and accepted
// (accept_header: kind, fingerprint, length against the file's size) on
// construction; a file whose header is refused reads as an empty payload.
// The loader passes kPieceBytes; tests pass small pieces so that fields
// straddle refills.
class CacheFileReader final : public PayloadPieces {
 public:
  // Under glibc's 128 KiB mmap threshold, so the buffer always comes from
  // the heap and a long-lived process keeps at most one piece after its
  // loads; a larger buffer is mapped by the first load and, once glibc
  // has raised its threshold, stays resident from the second on
  // (DESIGN.md "Load path"). Pieces of 64 KiB to 1 MiB read as fast.
  static constexpr std::size_t kPieceBytes = std::size_t{64} << 10;

  CacheFileReader(const std::string& path, DatasetKind kind,
                  std::uint64_t fingerprint, std::size_t piece_bytes);
  ~CacheFileReader();
  CacheFileReader(const CacheFileReader&) = delete;
  CacheFileReader& operator=(const CacheFileReader&) = delete;

  // The header was accepted.
  [[nodiscard]] bool opened() const { return header_.has_value(); }
  // The declared payload length (0 when the header was refused).
  [[nodiscard]] std::uint64_t payload_bytes() const;

  std::string_view next(std::size_t unread, std::size_t need) override;
  [[nodiscard]] std::uint64_t pending() const override { return pending_; }

  // The header was accepted, every declared byte has been read, no read
  // came up short, and the checksum of the bytes read is the header's.
  [[nodiscard]] bool verified() const;

 private:
  void read_piece();

  int fd_ = -1;
  std::optional<DatasetHeader> header_;
  std::size_t piece_bytes_;
  std::unique_ptr<char[]> buf_;  // a piece + room for an unread tail
  std::size_t held_ = 0;         // bytes of the current window
  std::uint64_t offset_ = 0;     // file offset of the next piece
  std::uint64_t pending_ = 0;    // declared payload bytes not yet read
  bool short_read_ = false;
  PayloadChecksum sum_;
};

// Resolution order: explicit `dir` argument, then the WHEELS_DATASET_DIR
// environment variable, then "build/dataset-cache" relative to the CWD.
[[nodiscard]] std::string resolve_cache_dir(const std::string& dir);

class DatasetCache {
 public:
  explicit DatasetCache(std::string dir = "");

  [[nodiscard]] const std::string& dir() const { return dir_; }

  // File name (without directory) for a cache entry. `op` is ignored for
  // the whole-campaign kinds.
  [[nodiscard]] static std::string file_name(DatasetKind kind,
                                             std::uint64_t fingerprint,
                                             ran::OperatorId op);

  [[nodiscard]] std::string path_for(DatasetKind kind,
                                     std::uint64_t fingerprint,
                                     ran::OperatorId op) const;

  // Decode an entry straight from its file into `out` (the provider's
  // disk-hit path); false on miss, corruption, version or fingerprint
  // mismatch, a short read or bytes that do not decode, leaving `out`
  // unspecified. The payload is never held whole: it is decoded one piece
  // at a time and accepted only when the decoder consumed exactly the
  // declared bytes and their checksum matches.
  template <typename Result>
  [[nodiscard]] bool load_into(DatasetKind kind, std::uint64_t fingerprint,
                               ran::OperatorId op, Result& out) const {
    return read_entry(kind, fingerprint, op,
                      [&out](PayloadPieces& in) { return decode(in, out); });
  }

  // The same reader drained into a string: the raw payload of an entry
  // (serialize.h decodes it), or nullopt wherever load_into would miss.
  [[nodiscard]] std::optional<std::string> load(DatasetKind kind,
                                                std::uint64_t fingerprint,
                                                ran::OperatorId op) const;

  // Atomically persist an encoded payload; returns the final path, or
  // nullopt when the directory or file could not be written (cache is
  // best-effort: simulation results are still served from memory).
  std::optional<std::string> store(DatasetKind kind, std::uint64_t fingerprint,
                                   ran::OperatorId op,
                                   std::string_view payload) const;

 private:
  // Runs `consume` over the entry's pieces and counts one hit (with the
  // file's bytes) when it returns true and the reader verifies, else one
  // miss.
  bool read_entry(DatasetKind kind, std::uint64_t fingerprint,
                  ran::OperatorId op,
                  const std::function<bool(PayloadPieces&)>& consume) const;

  std::string dir_;
};

}  // namespace wheels::dataset
