#include "dataset/cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
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

// Every dataset.cache.load span covers reading and checksumming: one for
// the open and the header, one per piece. Decoding runs between the pieces,
// outside every span, so the spans' total is the load time without the
// decode.
CacheFileReader::CacheFileReader(const std::string& path, DatasetKind kind,
                                 std::uint64_t fingerprint,
                                 std::size_t piece_bytes)
    : piece_bytes_(piece_bytes) {
  const obs::Span span("dataset.cache.load", "dataset");
  // O_NONBLOCK so that a FIFO planted at a cache path is refused below
  // instead of blocking the open until a writer appears; a regular file's
  // reads ignore the flag.
  fd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd_ < 0) return;
  struct stat st {};
  if (::fstat(fd_, &st) != 0 || !S_ISREG(st.st_mode)) return;
  char head[kHeaderBytes];
  if (::pread(fd_, head, sizeof head, 0) !=
      static_cast<ssize_t>(sizeof head)) {
    return;
  }
  // The header is checked against the file's size before anything is
  // allocated, so a header claiming more bytes than the file holds is a
  // miss, never a huge allocation.
  header_ =
      accept_header(std::string_view(head, sizeof head),
                    static_cast<std::uint64_t>(st.st_size), kind, fingerprint);
  if (!header_) return;
  offset_ = kHeaderBytes;
  pending_ = header_->payload_bytes;
  // Room for one piece after an unread tail, which is shorter than the
  // widest field. A payload shorter than a piece gets a buffer its size.
  const std::size_t piece = static_cast<std::size_t>(
      std::min<std::uint64_t>(piece_bytes_, pending_));
  buf_ = std::make_unique_for_overwrite<char[]>(piece + sizeof(std::uint64_t));
}

CacheFileReader::~CacheFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t CacheFileReader::payload_bytes() const {
  return header_ ? header_->payload_bytes : 0;
}

std::string_view CacheFileReader::next(std::size_t unread, std::size_t need) {
  if (!buf_) return {};
  std::memmove(buf_.get(), buf_.get() + held_ - unread, unread);
  held_ = unread;
  while (held_ < need && pending_ > 0 && !short_read_) read_piece();
  return {buf_.get(), held_};
}

void CacheFileReader::read_piece() {
  const obs::Span span("dataset.cache.load", "dataset");
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(piece_bytes_, pending_));
  // A regular file returns fewer bytes than asked only at its end, so a
  // short read means the file shrank after its header was accepted.
  if (::pread(fd_, buf_.get() + held_, want, static_cast<off_t>(offset_)) !=
      static_cast<ssize_t>(want)) {
    short_read_ = true;
    return;
  }
  sum_.update(std::string_view(buf_.get() + held_, want));
  held_ += want;
  offset_ += want;
  pending_ -= want;
}

bool CacheFileReader::verified() const {
  return header_ && pending_ == 0 && !short_read_ &&
         sum_.digest() == header_->checksum;
}

bool DatasetCache::read_entry(
    DatasetKind kind, std::uint64_t fingerprint, ran::OperatorId op,
    const std::function<bool(PayloadPieces&)>& consume) const {
  CacheFileReader in(path_for(kind, fingerprint, op), kind, fingerprint,
                     CacheFileReader::kPieceBytes);
  // A corrupt file may decode to garbage before its checksum is known:
  // the decoders are bounds-checked and cap every count by the declared
  // bytes, and nothing decoded is kept unless the whole file verifies.
  if (!in.opened() || !consume(in) || !in.verified()) {
    cache_metrics().misses.inc();  // missing/corrupt/stale: re-simulate
    return false;
  }
  cache_metrics().hits.inc();
  cache_metrics().bytes_read.add(kHeaderBytes + in.payload_bytes());
  return true;
}

std::optional<std::string> DatasetCache::load(DatasetKind kind,
                                              std::uint64_t fingerprint,
                                              ran::OperatorId op) const {
  std::string payload;
  const auto drain = [&payload](PayloadPieces& in) {
    payload.reserve(static_cast<std::size_t>(in.pending()));
    for (std::string_view w = in.next(0, 1); !w.empty(); w = in.next(0, 1)) {
      payload.append(w);
    }
    return true;
  };
  if (!read_entry(kind, fingerprint, op, drain)) return std::nullopt;
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
