// Content-addressed on-disk cache of serialized campaign datasets.
//
// Files are keyed by dataset kind + config fingerprint (+ operator for the
// per-operator baselines): `campaign-<fp>.wds`, `static-<fp>-tmobile.wds`.
// Writes go to a per-process temp name and are renamed into place, so
// concurrent producers (parallel ctest smoke runs) race benignly: the last
// atomic rename wins and every reader sees either a complete file or none.
// Loads validate the container header + checksum and treat any mismatch as
// a miss, so a corrupt or truncated file degrades to re-simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dataset/serialize.h"
#include "ran/operator_profile.h"

namespace wheels::dataset {

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

  // Load + validate an entry; nullopt on miss, corruption, version or
  // fingerprint mismatch. Returns the raw payload (serialize.h decodes it).
  // The header is checked against the file's size before the payload is
  // allocated, then the payload is read in one call into the result.
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
  std::string dir_;
};

}  // namespace wheels::dataset
