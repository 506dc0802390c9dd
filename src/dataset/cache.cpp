#include "dataset/cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <system_error>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace wheels::dataset {
namespace {

namespace fs = std::filesystem;

// All Det::Stable: for a given cache state and workload, the set of load
// and store operations -- and the exact bytes moved -- is a pure function
// of the configs requested, independent of WHEELS_JOBS and scheduling.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& bytes_read;
  obs::Counter& bytes_written;
};

CacheMetrics& cache_metrics() {
  // wheels-lint: allow(static-local)
  static CacheMetrics m{
      obs::Registry::global().counter("dataset.cache.hits"),
      obs::Registry::global().counter("dataset.cache.misses"),
      obs::Registry::global().counter("dataset.cache.bytes_read"),
      obs::Registry::global().counter("dataset.cache.bytes_written"),
  };
  return m;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::string kind_slug(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::Campaign: return "campaign";
    case DatasetKind::StaticBaseline: return "static";
    case DatasetKind::AppCampaign: return "apps";
    case DatasetKind::AppStaticBaseline: return "apps-static";
  }
  return "unknown";
}

std::string op_slug(ran::OperatorId op) {
  switch (op) {
    case ran::OperatorId::Verizon: return "verizon";
    case ran::OperatorId::TMobile: return "tmobile";
    case ran::OperatorId::ATT: return "att";
  }
  return "op";
}

bool is_per_operator(DatasetKind kind) {
  return kind == DatasetKind::StaticBaseline ||
         kind == DatasetKind::AppStaticBaseline;
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

// The verified payload of the cache file at `path`, or nullopt. The header
// is checked against the file's size before anything is allocated, so a
// header claiming more bytes than the file holds is a miss, never a huge
// allocation; the payload is then read in one call straight into the
// string that is returned.
std::optional<std::string> read_payload(const std::string& path,
                                        DatasetKind kind,
                                        std::uint64_t fingerprint) {
  // O_NONBLOCK so that a FIFO planted at a cache path is refused below
  // instead of blocking the open until a writer appears; a regular file's
  // reads ignore the flag.
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  const File f(::fdopen(fd, "rb"));
  if (!f) {
    ::close(fd);
    return std::nullopt;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) return std::nullopt;
  char head[kHeaderBytes];
  if (std::fread(head, 1, sizeof head, f.get()) != sizeof head) {
    return std::nullopt;
  }
  const auto header =
      accept_header(std::string_view(head, sizeof head),
                    static_cast<std::uint64_t>(st.st_size), kind, fingerprint);
  if (!header) return std::nullopt;
  std::string payload(static_cast<std::size_t>(header->payload_bytes), '\0');
  if (std::fread(payload.data(), 1, payload.size(), f.get()) !=
      payload.size()) {
    return std::nullopt;
  }
  if (fnv1a(payload) != header->checksum) return std::nullopt;
  return payload;
}

}  // namespace

std::string resolve_cache_dir(const std::string& dir) {
  if (!dir.empty()) return dir;
  if (const char* env = std::getenv("WHEELS_DATASET_DIR")) {
    if (*env != '\0') return env;
  }
  return "build/dataset-cache";
}

DatasetCache::DatasetCache(std::string dir)
    : dir_(resolve_cache_dir(dir)) {}

std::string DatasetCache::file_name(DatasetKind kind,
                                    std::uint64_t fingerprint,
                                    ran::OperatorId op) {
  std::string name = kind_slug(kind) + "-" + hex16(fingerprint);
  if (is_per_operator(kind)) name += "-" + op_slug(op);
  return name + ".wds";
}

std::string DatasetCache::path_for(DatasetKind kind, std::uint64_t fingerprint,
                                   ran::OperatorId op) const {
  return (fs::path(dir_) / file_name(kind, fingerprint, op)).string();
}

std::optional<std::string> DatasetCache::load(DatasetKind kind,
                                              std::uint64_t fingerprint,
                                              ran::OperatorId op) const {
  const obs::Span span("dataset.cache.load", "dataset");
  auto payload = read_payload(path_for(kind, fingerprint, op), kind,
                              fingerprint);
  if (!payload) {  // missing/corrupt/stale: caller re-simulates
    cache_metrics().misses.inc();
    return std::nullopt;
  }
  cache_metrics().hits.inc();
  cache_metrics().bytes_read.add(kHeaderBytes + payload->size());
  return payload;
}

std::optional<std::string> DatasetCache::store(DatasetKind kind,
                                               std::uint64_t fingerprint,
                                               ran::OperatorId op,
                                               std::string_view payload) const {
  const obs::Span span("dataset.cache.store", "dataset");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return std::nullopt;

  const std::string path = path_for(kind, fingerprint, op);
  // Per-process + per-call temp name so concurrent writers never interleave
  // into the same temp file; the final rename is atomic on POSIX. The atomic
  // is constant-initialised, so its magic-static guard never races.
  // wheels-lint: allow(static-local)
  static std::atomic<unsigned> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  // Header then payload, straight from the caller's buffer: the payload
  // is never copied into a file image.
  const std::string header = encode_header(kind, fingerprint, payload);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return std::nullopt;
    os.write(header.data(), static_cast<std::streamsize>(header.size()));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.close();
    if (!os) {
      fs::remove(tmp, ec);
      return std::nullopt;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return std::nullopt;
  }
  cache_metrics().bytes_written.add(header.size() + payload.size());
  return path;
}

}  // namespace wheels::dataset
