// Dataset serialization: byte-exact round-trips for every record type,
// container/header validation, hostile cache files and payload mutation,
// and fingerprint stability. Everything here runs on synthetic records (no
// simulation), so it stays in the fast tier.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.h"
#include "dataset/cache.h"
#include "dataset/fingerprint.h"
#include "dataset/serialize.h"
#include "obs/metrics.h"

namespace wheels::dataset {
namespace {

using apps::AppCampaignConfig;
using apps::AppCampaignResult;
using apps::AppKind;
using apps::AppRunRecord;
using ran::OperatorId;
using trip::CampaignConfig;
using trip::CampaignResult;
using trip::StaticBaseline;

// Synthetic records with every field away from its default, so a skipped
// or reordered field breaks equality.
trip::KpiSample make_kpi(int salt) {
  trip::KpiSample s;
  s.time = SimTime{1'000.5 + salt};
  s.test_id = 7 + salt;
  s.test = trip::TestType::UplinkBulk;
  s.op = OperatorId::TMobile;
  s.position = Meters{12'345.0 + salt};
  s.speed = Mph{71.5};
  s.tz = TimeZone::Mountain;
  s.env = radio::Environment::Suburban;
  s.connected = true;
  s.tech = radio::Tech::NR_MMWAVE;
  s.rsrp_dbm = -87.25;
  s.mcs = 21.5;
  s.bler = 0.125;
  s.num_cc = 3.5;
  s.tput_mbps = 512.75;
  s.handovers = 2;
  s.server = net::ServerKind::Edge;
  return s;
}

trip::RttSample make_rtt(int salt) {
  trip::RttSample s;
  s.time = SimTime{2'000.25 + salt};
  s.test_id = 9;
  s.op = OperatorId::ATT;
  s.position = Meters{50'000.0 + salt};
  s.speed = Mph{64.0};
  s.tz = TimeZone::Central;
  s.success = true;
  s.rtt_ms = 43.875;
  s.connected = true;
  s.tech = radio::Tech::NR_MID;
  s.server = net::ServerKind::Cloud;
  return s;
}

trip::PassiveSample make_passive(int salt) {
  trip::PassiveSample s;
  s.time = SimTime{3'000.0 + salt};
  s.op = OperatorId::Verizon;
  s.position = Meters{99'000.0};
  s.speed = Mph{55.0};
  s.tz = TimeZone::Eastern;
  s.connected = true;
  s.tech = radio::Tech::LTE_A;
  s.cell = 4'242u + static_cast<ran::CellId>(salt);
  return s;
}

trip::TestSummary make_summary(int salt) {
  trip::TestSummary s;
  s.test_id = 11 + salt;
  s.test = trip::TestType::Ping;
  s.op = OperatorId::TMobile;
  s.start = SimTime{4'000.75};
  s.duration = Millis{20'000.0};
  s.start_position = Meters{1'234.0};
  s.distance = Meters{567.0};
  s.tz = TimeZone::Pacific;
  s.server = net::ServerKind::Edge;
  s.mean = 12.5;
  s.stddev = 3.25;
  s.samples = 99;
  s.handovers = 4;
  s.frac_high_speed_5g = 0.625;
  s.bytes_transferred = 1e9;
  return s;
}

ran::HandoverRecord make_handover(int salt) {
  ran::HandoverRecord h;
  h.time = SimTime{5'000.5};
  h.duration = Millis{180.0 + salt};
  h.from_tech = radio::Tech::LTE;
  h.to_tech = radio::Tech::NR_LOW;
  h.from_cell = 10u + static_cast<ran::CellId>(salt);
  h.to_cell = 20u;
  h.position = Meters{77'000.0};
  return h;
}

AppRunRecord make_app_run(int salt) {
  AppRunRecord r;
  r.app = AppKind::Video;
  r.compression = true;
  r.op = OperatorId::ATT;
  r.start = SimTime{6'000.0 + salt};
  r.position = Meters{88'000.0};
  r.tz = TimeZone::Mountain;
  r.server = net::ServerKind::Edge;
  r.handovers = 3;
  r.frac_high_speed_5g = 0.375;
  r.mean_e2e_ms = 120.5;
  r.median_e2e_ms = 110.25;
  r.offloaded_fps = 24.5;
  r.map = 0.8125;
  r.e2e_ms = {100.5, 110.25, 131.0};
  r.qoe = 3.75;
  r.avg_bitrate_mbps = 18.5;
  r.rebuffer_fraction = 0.03125;
  r.gaming_bitrate_mbps = 22.25;
  r.gaming_latency_ms = 38.5;
  r.frame_drop_rate = 0.0625;
  return r;
}

CampaignResult make_campaign_result() {
  CampaignResult res;
  res.route_length = Meters{4'500'000.0};
  res.days = 9;
  res.drive_time = Millis{3.6e7};
  for (int i = 0; i < 3; ++i) {
    auto& log = res.logs[static_cast<std::size_t>(i)];
    log.op = static_cast<OperatorId>(i);
    log.kpi = {make_kpi(i), make_kpi(i + 10)};
    log.rtt = {make_rtt(i)};
    log.tests = {make_summary(i), make_summary(i + 5)};
    log.test_handovers = {make_handover(i)};
    log.passive = {make_passive(i), make_passive(i + 3)};
    log.passive_handovers = {make_handover(i + 7), make_handover(i + 8)};
    log.unique_cells = 123u + static_cast<std::size_t>(i);
    log.experiment_runtime = Millis{1e6 + i};
  }
  return res;
}

StaticBaseline make_static_baseline() {
  StaticBaseline sb;
  sb.op = OperatorId::TMobile;
  sb.dl_tput_mbps = {1511.0, 1400.5, 900.25};
  sb.ul_tput_mbps = {167.5, 120.0};
  sb.rtt_ms = {8.5, 12.25, 150.0};
  sb.cities_tested = 10;
  return sb;
}

AppCampaignResult make_app_result() {
  AppCampaignResult res;
  for (int i = 0; i < 3; ++i) {
    res.runs[static_cast<std::size_t>(i)] = {make_app_run(i),
                                             make_app_run(i + 4)};
  }
  return res;
}

TEST(DatasetRoundtrip, CampaignResult) {
  const CampaignResult in = make_campaign_result();
  const std::string payload = encode(in);
  CampaignResult out;
  ASSERT_TRUE(decode(payload, out));
  EXPECT_TRUE(in == out);
  // Re-encoding the decoded value must be byte-identical: the encoding is
  // canonical, so dataset files are stable across load/store cycles.
  EXPECT_EQ(payload, encode(out));
}

TEST(DatasetRoundtrip, StaticBaseline) {
  const StaticBaseline in = make_static_baseline();
  const std::string payload = encode(in);
  StaticBaseline out;
  ASSERT_TRUE(decode(payload, out));
  EXPECT_TRUE(in == out);
  EXPECT_EQ(payload, encode(out));
}

TEST(DatasetRoundtrip, AppCampaignResult) {
  const AppCampaignResult in = make_app_result();
  const std::string payload = encode(in);
  AppCampaignResult out;
  ASSERT_TRUE(decode(payload, out));
  EXPECT_TRUE(in == out);
  EXPECT_EQ(payload, encode(out));
}

TEST(DatasetRoundtrip, AppRunVector) {
  const std::vector<AppRunRecord> in = {make_app_run(1), make_app_run(2),
                                        make_app_run(3)};
  const std::string payload = encode(in);
  std::vector<AppRunRecord> out;
  ASSERT_TRUE(decode(payload, out));
  EXPECT_TRUE(in == out);
  EXPECT_EQ(payload, encode(out));
}

TEST(DatasetRoundtrip, EveryTruncationIsRejected) {
  const std::string payload = encode(make_static_baseline());
  StaticBaseline out;
  for (std::size_t k = 0; k < payload.size(); ++k) {
    EXPECT_FALSE(decode(payload.substr(0, k), out)) << "prefix " << k;
  }
  EXPECT_FALSE(decode(payload + '\0', out)) << "trailing garbage";
}

TEST(DatasetRoundtrip, TruncatedCampaignIsRejected) {
  const std::string payload = encode(make_campaign_result());
  CampaignResult out;
  EXPECT_FALSE(decode(payload.substr(0, payload.size() - 1), out));
  EXPECT_FALSE(decode(payload.substr(0, payload.size() / 2), out));
  EXPECT_FALSE(decode(std::string_view{}, out));
  EXPECT_FALSE(decode(payload + 'x', out));
}

TEST(DatasetContainer, WrapUnwrapRoundtrip) {
  const std::string payload = encode(make_static_baseline());
  const std::uint64_t fp = 0xdeadbeefcafef00dULL;
  const std::string file =
      wrap_dataset(DatasetKind::StaticBaseline, fp, payload);

  const auto header = parse_header(file);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->version, kSchemaVersion);
  EXPECT_EQ(header->kind, DatasetKind::StaticBaseline);
  EXPECT_EQ(header->fingerprint, fp);
  EXPECT_EQ(header->payload_bytes, payload.size());
  EXPECT_EQ(header->checksum, fnv1a(payload));

  const auto view = unwrap_dataset(file, DatasetKind::StaticBaseline, fp);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(*view, payload);
  // Fingerprint 0 skips the match (used by `wheels_campaign info`).
  EXPECT_TRUE(unwrap_dataset(file, DatasetKind::StaticBaseline, 0)
                  .has_value());
}

TEST(DatasetContainer, RejectsMismatches) {
  const std::string payload = encode(make_static_baseline());
  const std::uint64_t fp = 42;
  std::string file = wrap_dataset(DatasetKind::StaticBaseline, fp, payload);

  // Wrong kind or fingerprint.
  EXPECT_FALSE(
      unwrap_dataset(file, DatasetKind::Campaign, fp).has_value());
  EXPECT_FALSE(
      unwrap_dataset(file, DatasetKind::StaticBaseline, fp + 1).has_value());

  // Schema version bump: the header still parses (so `info` can describe
  // foreign files), but unwrap refuses to serve the payload.
  std::string bumped = file;
  bumped[4] = static_cast<char>(kSchemaVersion + 1);
  EXPECT_FALSE(
      unwrap_dataset(bumped, DatasetKind::StaticBaseline, fp).has_value());
  ASSERT_TRUE(parse_header(bumped).has_value());
  EXPECT_EQ(parse_header(bumped)->version, kSchemaVersion + 1);

  // Bad magic.
  std::string magic = file;
  magic[0] = 'X';
  EXPECT_FALSE(
      unwrap_dataset(magic, DatasetKind::StaticBaseline, fp).has_value());

  // Truncated container (header alone, half the payload, empty).
  EXPECT_FALSE(unwrap_dataset(file.substr(0, 33), DatasetKind::StaticBaseline,
                              fp)
                   .has_value());
  EXPECT_FALSE(unwrap_dataset(file.substr(0, file.size() / 2),
                              DatasetKind::StaticBaseline, fp)
                   .has_value());
  EXPECT_FALSE(
      unwrap_dataset("", DatasetKind::StaticBaseline, fp).has_value());

  // A flipped payload byte breaks the checksum.
  std::string corrupt = file;
  corrupt[file.size() - 1] =
      static_cast<char>(corrupt[file.size() - 1] ^ 0x5a);
  EXPECT_FALSE(
      unwrap_dataset(corrupt, DatasetKind::StaticBaseline, fp).has_value());
}

// --- hostile cache files ----------------------------------------------------
// A file at a cache path is outside input: whatever it holds, load() must
// count a miss and return nullopt (the caller re-simulates), never throw,
// crash or size a buffer from an unchecked header.

std::int64_t metric(std::string_view name) {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const obs::MetricValue* mv = snap.find(name);
  return mv != nullptr ? mv->value : 0;
}

class HostileCacheFile : public ::testing::Test {
 protected:
  static constexpr DatasetKind kKind = DatasetKind::StaticBaseline;
  static constexpr std::uint64_t kFp = 0x5eed5eed5eed5eedULL;
  static constexpr OperatorId kOp = OperatorId::TMobile;

  // ctest runs each test of this binary as its own, possibly concurrent,
  // process: one directory per test.
  HostileCacheFile()
      : dir_(std::string("dataset-hostile-") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()),
        cache_(dir_.string()),
        payload_(encode(make_static_baseline())),
        file_(wrap_dataset(kKind, kFp, payload_)) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~HostileCacheFile() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path() const {
    return cache_.path_for(kKind, kFp, kOp);
  }

  void write(std::string_view bytes) const {
    std::ofstream os(path(), std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // The file now at path() must be one miss and nothing else.
  void expect_miss(const std::string& what) const {
    const std::int64_t misses = metric("dataset.cache.misses");
    const std::int64_t hits = metric("dataset.cache.hits");
    const std::int64_t bytes = metric("dataset.cache.bytes_read");
    std::optional<std::string> got;
    EXPECT_NO_THROW(got = cache_.load(kKind, kFp, kOp)) << what;
    EXPECT_FALSE(got.has_value()) << what;
    EXPECT_EQ(metric("dataset.cache.misses"), misses + 1) << what;
    EXPECT_EQ(metric("dataset.cache.hits"), hits) << what;
    EXPECT_EQ(metric("dataset.cache.bytes_read"), bytes) << what;
  }

  // Both readers apply the same header rules: the in-memory unwrap must
  // refuse the same bytes the file load refused.
  void expect_rejected(const std::string& bytes, const std::string& what) {
    write(bytes);
    expect_miss(what);
    EXPECT_FALSE(unwrap_dataset(bytes, kKind, kFp).has_value()) << what;
  }

  // The header with its payload_bytes field rewritten to `claim`.
  [[nodiscard]] std::string claiming(std::uint64_t claim) const {
    std::string f = file_;
    constexpr std::size_t kAt = 4 + 4 + 1 + 8;  // magic, version, kind, fp
    for (std::size_t i = 0; i < 8; ++i) {
      f[kAt + i] = static_cast<char>((claim >> (8 * i)) & 0xFFu);
    }
    return f;
  }

  std::filesystem::path dir_;
  DatasetCache cache_;
  std::string payload_;
  std::string file_;
};

TEST_F(HostileCacheFile, IntactFileIsOneHit) {
  write(file_);
  const std::int64_t hits = metric("dataset.cache.hits");
  const std::int64_t misses = metric("dataset.cache.misses");
  const std::int64_t bytes = metric("dataset.cache.bytes_read");
  const auto got = cache_.load(kKind, kFp, kOp);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload_);
  EXPECT_EQ(metric("dataset.cache.hits"), hits + 1);
  EXPECT_EQ(metric("dataset.cache.misses"), misses);
  // The whole file counts, header included.
  EXPECT_EQ(metric("dataset.cache.bytes_read"),
            bytes + static_cast<std::int64_t>(file_.size()));
}

TEST_F(HostileCacheFile, MissingFileIsAMiss) { expect_miss("no file"); }

TEST_F(HostileCacheFile, EveryTruncationIsAMiss) {
  for (std::size_t k = 0; k < file_.size(); ++k) {
    expect_rejected(file_.substr(0, k), "truncated to " + std::to_string(k));
  }
}

TEST_F(HostileCacheFile, TrailingByteIsAMiss) {
  expect_rejected(file_ + '\0', "one trailing byte");
}

TEST_F(HostileCacheFile, LengthClaimBeyondTheFileIsAMiss) {
  expect_rejected(claiming(payload_.size() + 1), "payload_bytes = size + 1");
  // Checked against the file's size before anything is allocated.
  expect_rejected(claiming(std::uint64_t{1} << 62), "payload_bytes = 2^62");
}

TEST_F(HostileCacheFile, ForeignHeaderIsAMiss) {
  expect_rejected(wrap_dataset(DatasetKind::AppStaticBaseline, kFp, payload_),
                  "wrong kind");
  expect_rejected(wrap_dataset(kKind, kFp + 1, payload_), "wrong fingerprint");
  std::string bumped = file_;
  bumped[4] = static_cast<char>(kSchemaVersion + 1);
  expect_rejected(bumped, "wrong schema version");
  std::string magic = file_;
  magic[0] = 'X';
  expect_rejected(magic, "wrong magic");
}

TEST_F(HostileCacheFile, EveryFlippedPayloadByteIsAMiss) {
  for (std::size_t i = kHeaderBytes; i < file_.size(); ++i) {
    std::string corrupt = file_;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    expect_rejected(corrupt, "payload byte " + std::to_string(i) + " flipped");
  }
}

TEST_F(HostileCacheFile, EmptyFileIsAMiss) {
  expect_rejected(std::string(), "empty file");
}

TEST_F(HostileCacheFile, DirectoryIsAMiss) {
  std::filesystem::create_directory(path());
  expect_miss("a directory at the cache path");
}

TEST_F(HostileCacheFile, FifoIsAMissNotAHang) {
  ASSERT_EQ(::mkfifo(path().c_str(), 0600), 0);
  expect_miss("a FIFO at the cache path");
}

// --- payload mutation -------------------------------------------------------
// Random bytes overwritten anywhere in a payload: the decoder must reject
// the mutant, or accept it only when it re-encodes to exactly the mutant's
// bytes (the encoding is canonical, so an accepted payload is a real one).

template <typename T>
void expect_mutants_rejected_or_canonical(const std::string& payload,
                                          std::uint64_t seed) {
  constexpr int kTrials = 3000;
  Rng rng(seed);
  int accepted = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string mutant = payload;
    const std::uint64_t writes = 1 + rng.uniform_index(4);
    for (std::uint64_t w = 0; w < writes; ++w) {
      mutant[rng.uniform_index(mutant.size())] =
          static_cast<char>(rng.uniform_index(256));
    }
    T out;
    if (!decode(mutant, out)) continue;
    ++accepted;
    ASSERT_EQ(encode(out), mutant) << "trial " << trial;
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kTrials);
}

TEST(DatasetMutation, CampaignResult) {
  expect_mutants_rejected_or_canonical<CampaignResult>(
      encode(make_campaign_result()), 1);
}

TEST(DatasetMutation, StaticBaseline) {
  expect_mutants_rejected_or_canonical<StaticBaseline>(
      encode(make_static_baseline()), 2);
}

TEST(DatasetMutation, AppCampaignResult) {
  expect_mutants_rejected_or_canonical<AppCampaignResult>(
      encode(make_app_result()), 3);
}

TEST(DatasetMutation, AppRunVector) {
  expect_mutants_rejected_or_canonical<std::vector<AppRunRecord>>(
      encode(std::vector<AppRunRecord>{make_app_run(1), make_app_run(2)}), 4);
}

TEST(DatasetFingerprint, StableAndSensitive) {
  CampaignConfig a;
  CampaignConfig b;
  EXPECT_EQ(fingerprint(a), fingerprint(b));

  b.seed = 43;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  b = a;
  b.cycle_stride = 99;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  b = a;
  b.spec.timing.gap_ms = 1.0;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  b = a;
  b.spec.drive.start_hour_local = 5;
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(DatasetFingerprint, StaticVariantIgnoresStride) {
  CampaignConfig a;
  CampaignConfig b;
  a.cycle_stride = 1;
  b.cycle_stride = 64;
  EXPECT_EQ(fingerprint_static(a), fingerprint_static(b));
  EXPECT_NE(fingerprint(a), fingerprint(b));

  AppCampaignConfig aa;
  AppCampaignConfig ab;
  aa.cycle_stride = 1;
  ab.cycle_stride = 64;
  EXPECT_EQ(fingerprint_static(aa), fingerprint_static(ab));
  EXPECT_NE(fingerprint(aa), fingerprint(ab));
}

TEST(DatasetFingerprint, DomainsAreSeparated) {
  // A measurement config and an app config must never share a cache key,
  // even with identical field values.
  CampaignConfig c;
  AppCampaignConfig a;
  c.seed = a.seed = 7;
  c.cycle_stride = a.cycle_stride = 3;
  EXPECT_NE(fingerprint(c), fingerprint(a));
}

TEST(DatasetCacheNaming, FileNamesAreStable) {
  EXPECT_EQ(DatasetCache::file_name(DatasetKind::Campaign, 0xabcULL,
                                    OperatorId::Verizon),
            "campaign-0000000000000abc.wds");
  EXPECT_EQ(DatasetCache::file_name(DatasetKind::StaticBaseline, 1,
                                    OperatorId::TMobile),
            "static-0000000000000001-tmobile.wds");
  EXPECT_EQ(DatasetCache::file_name(DatasetKind::AppStaticBaseline, 2,
                                    OperatorId::ATT),
            "apps-static-0000000000000002-att.wds");
}

}  // namespace
}  // namespace wheels::dataset
