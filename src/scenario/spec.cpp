#include "scenario/spec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/fnv1a.h"
#include "scenario/json.h"

namespace wheels::scenario {
namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("scenario: " + what);
}

// JSON numbers are doubles, which hold every integer up to 2^53 exactly:
// the largest seed a document can carry, so the largest one to_json can
// write for parse_scenario_json to read back.
constexpr std::uint64_t kMaxSeed = std::uint64_t{1} << 53;

// ---------------------------------------------------------------------------
// The schema

// Every ScenarioSpec field, once: its JSON key, its kind and its place in
// the canonical order, which is the order to_json writes and scenario_hash
// hashes. S is ScenarioSpec for the Reader and const ScenarioSpec for the
// Writer and the Hasher. Each visitor V provides:
//   field(key, x)            a double, int, u64, bool or string value;
//   label(key, x)            a string that names the spec but never steers
//                            it: read and written, not hashed;
//   required(key, x)         a field every array element must spell out;
//   inheritable(key, x)      a promotion probability, NaN meaning inherit;
//   object(key, body)        a nested object, merged key by key;
//   object(key, noun, body)  the same, whose keys each name a `noun`;
//   array(key, xs, body)     an array of objects that replaces xs wholesale.
template <class V, class S>
void walk(V& v, S& s) {
  v.label("name", s.name);
  v.label("description", s.description);
  v.field("seed", s.seed);
  v.object("timing", [&] {
    v.field("slot_ms", s.timing.slot_ms);
    v.field("tput_test_ms", s.timing.tput_test_ms);
    v.field("rtt_test_ms", s.timing.rtt_test_ms);
    v.field("gap_ms", s.timing.gap_ms);
    v.field("ping_interval_ms", s.timing.ping_interval_ms);
    v.field("sample_window_ms", s.timing.sample_window_ms);
  });
  v.object("drive", [&] {
    v.field("hours_per_day", s.drive.hours_per_day);
    v.field("start_hour_local", s.drive.start_hour_local);
  });
  v.object("speed", [&] {
    v.field("urban_mph", s.speed.urban_mph);
    v.field("suburban_mph", s.speed.suburban_mph);
    v.field("rural_mph", s.speed.rural_mph);
    v.field("max_mph", s.speed.max_mph);
  });
  v.object("route", [&] {
    v.field("road_factor", s.route.road_factor);
    v.array("waypoints", s.route.waypoints, [&](auto& w) {
      v.required("name", w.name);
      v.required("lat", w.lat);
      v.required("lon", w.lon);
      v.field("edge_server", w.edge_server);
    });
  });
  v.array("operators", s.operators, [&](auto& op) {
    v.required("name", op.name);
    v.required("calibration", op.calibration);
    v.object("promotion", [&] {
      v.inheritable("hs5g_given_dl", op.promotion.hs5g_given_dl);
      v.inheritable("hs5g_given_ul", op.promotion.hs5g_given_ul);
      v.inheritable("hs5g_given_interactive",
                    op.promotion.hs5g_given_interactive);
      v.inheritable("low5g_given_traffic", op.promotion.low5g_given_traffic);
      v.inheritable("any5g_given_idle", op.promotion.any5g_given_idle);
    });
    v.field("availability_scale", op.availability_scale);
    v.field("load_scale", op.load_scale);
  });
  v.object("bands", "band", [&] {
    for (const radio::Tech tech : radio::kAllTechs) {
      auto& b = s.bands.profile(tech);
      v.object(radio::to_string(tech), [&] {
        v.field("carrier_mhz", b.carrier.value);
        v.field("cc_bandwidth_dl_mhz", b.cc_bandwidth_dl.value);
        v.field("cc_bandwidth_ul_mhz", b.cc_bandwidth_ul.value);
        v.field("max_cc_dl", b.max_cc_dl);
        v.field("max_cc_ul", b.max_cc_ul);
        v.field("mimo_layers_dl", b.mimo_layers_dl);
        v.field("mimo_layers_ul", b.mimo_layers_ul);
        v.field("tx_power_dl_dbm", b.tx_power_dl.value);
        v.field("tx_power_ul_dbm", b.tx_power_ul.value);
        v.field("antenna_gain_dl_db", b.antenna_gain_dl.value);
        v.field("typical_range_m", b.typical_range.value);
      });
    }
  });
  v.object("load_regime", [&] {
    v.field("night", s.load_regime.night);
    v.field("morning", s.load_regime.morning);
    v.field("afternoon", s.load_regime.afternoon);
    v.field("evening", s.load_regime.evening);
  });
  v.object("apps", [&] {
    v.field("ar", s.apps.ar);
    v.field("cav", s.apps.cav);
    v.field("video", s.apps.video);
    v.field("gaming", s.apps.gaming);
  });
}

// ---------------------------------------------------------------------------
// JSON -> spec

// Reads a document into the spec it starts from: a present key overwrites
// its field, an absent one keeps it. Keys are visited in schema order, so
// a document with several errors reports the first one the schema
// reaches; the unknown keys of an object are reported after its fields.
// A path is spelled out only for an error message.
class Reader {
 public:
  // Room for the keys of the deepest nesting, root -> bands -> one band
  // (25 today), so reading a document allocates for keys once.
  Reader() { keys_.reserve(32); }

  void field(std::string_view key, double& x) {
    if (const JsonValue* v = take(key)) x = number(*v, key);
  }
  void field(std::string_view key, int& x) {
    if (const JsonValue* v = take(key)) {
      const double d = number(*v, key);
      if (std::floor(d) != d || d < -2147483648.0 || d > 2147483647.0) {
        bad(path(key) + " must be an integer");
      }
      x = static_cast<int>(d);
    }
  }
  void field(std::string_view key, std::uint64_t& x) {
    if (const JsonValue* v = take(key)) {
      const double d = number(*v, key);
      if (std::floor(d) != d || d < 0.0 ||
          d > static_cast<double>(kMaxSeed)) {
        bad(path(key) + " must be a non-negative integer");
      }
      x = static_cast<std::uint64_t>(d);
    }
  }
  void field(std::string_view key, bool& x) {
    if (const JsonValue* v = take(key)) {
      x = expect(*v, JsonValue::Kind::Bool, key, "a boolean").boolean;
    }
  }
  void field(std::string_view key, std::string& x) {
    if (const JsonValue* v = take(key)) {
      x = expect(*v, JsonValue::Kind::String, key, "a string").string;
    }
  }
  void label(std::string_view key, std::string& x) { field(key, x); }
  template <class T>
  void required(std::string_view key, T& x) {
    const std::size_t found = at_->found;
    field(key, x);
    keys_.back().required = true;
    if (at_->found == found) at_->missing = true;
  }
  void inheritable(std::string_view key, double& x) { field(key, x); }

  template <class F>
  void object(std::string_view key, F&& body) {
    object(key, {}, body);
  }
  template <class F>
  void object(std::string_view key, std::string_view noun, F&& body) {
    if (const JsonValue* v = take(key)) scope(*v, key, kNoIndex, noun, body);
  }
  template <class T, class F>
  void array(std::string_view key, std::vector<T>& xs, F&& body) {
    const JsonValue* v = take(key);
    if (v == nullptr) return;
    if (v->kind != JsonValue::Kind::Array) bad(path(key) + " must be an array");
    xs.assign(v->array.size(), T{});
    for (std::size_t i = 0; i < xs.size(); ++i) {
      scope(v->array[i], key, i, {}, [&] { body(xs[i]); });
    }
  }

  // Runs `body` over the document `doc`, an object.
  template <class F>
  void read(const JsonValue& doc, F&& body) {
    scope(doc, {}, kNoIndex, {}, body);
  }

 private:
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  // One object being read: the document's root, the value of `key` in
  // the enclosing object, or element `index` of the array at `key`.
  struct Scope {
    const JsonValue* object = nullptr;
    Scope* outer = nullptr;  // nullptr at the root
    std::string_view key;
    std::size_t index = kNoIndex;
    std::size_t first_key = 0;  // this object's entries in keys_ start here
    std::size_t found = 0;      // object members the schema visited
    bool missing = false;       // a required key is absent
  };
  // A key the schema visited, kept so that the error paths can name an
  // unknown member and list the required ones.
  struct Key {
    std::string_view name;
    bool required = false;
  };

  // Runs `body` over the object `v`, then rejects its unknown keys and a
  // missing required one. The keys of an object read with a `noun` each
  // name one, such as a band.
  template <class F>
  void scope(const JsonValue& v, std::string_view key, std::size_t index,
             std::string_view noun, F&& body) {
    Scope s{&v, at_, key, index, keys_.size()};
    if (v.kind != JsonValue::Kind::Object) bad(where(s) + " must be an object");
    at_ = &s;
    body();
    if (s.found != v.object.size()) reject_unknown(s, noun);
    if (s.missing) {
      std::vector<std::string_view> required;
      for (std::size_t i = s.first_key; i < keys_.size(); ++i) {
        if (keys_[i].required) required.push_back(keys_[i].name);
      }
      bad(where(s) + " requires " + spelled_out(required));
    }
    keys_.resize(s.first_key);
    at_ = s.outer;
  }

  // Names the first member of `s`, in file order, that the schema did not
  // visit.
  void reject_unknown(const Scope& s, std::string_view noun) const {
    for (const auto& member : s.object->object) {
      const std::string& name = member.first;
      const auto known = [&](const Key& k) { return k.name == name; };
      if (std::any_of(keys_.begin() + static_cast<std::ptrdiff_t>(s.first_key),
                      keys_.end(), known)) {
        continue;
      }
      if (noun.empty()) bad("unknown key " + path(name));
      bad("unknown " + std::string(noun) + " \"" + name + "\" in " +
          where(s));
    }
  }

  // "name and calibration", "name, lat, and lon".
  static std::string spelled_out(const std::vector<std::string_view>& keys) {
    std::string list;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i > 0) list += keys.size() > 2 ? ", " : " ";
      if (i > 0 && i + 1 == keys.size()) list += "and ";
      list += keys[i];
    }
    return list;
  }

  // The full path of `s`: "" for the root, "route.waypoints[2]".
  static std::string where(const Scope& s) {
    if (s.outer == nullptr) return {};
    std::string at = joined(where(*s.outer), s.key);
    if (s.index != kNoIndex) at += "[" + std::to_string(s.index) + "]";
    return at;
  }
  static std::string joined(std::string at, std::string_view key) {
    if (!at.empty()) at += '.';
    at += key;
    return at;
  }
  std::string path(std::string_view key) const {
    return joined(where(*at_), key);
  }

  // The member `key` of the current object, or nullptr; once every member
  // is found, the rest of the schema's keys need no search.
  const JsonValue* take(std::string_view key) {
    keys_.push_back({key});
    if (at_->found == at_->object->object.size()) return nullptr;
    const JsonValue* v = at_->object->find(key);
    if (v != nullptr) ++at_->found;
    return v;
  }
  const JsonValue& expect(const JsonValue& v, JsonValue::Kind kind,
                          std::string_view key, const char* what) const {
    if (v.kind != kind) bad(path(key) + " must be " + what);
    return v;
  }
  double number(const JsonValue& v, std::string_view key) const {
    return expect(v, JsonValue::Kind::Number, key, "a number").number;
  }

  Scope* at_ = nullptr;
  std::vector<Key> keys_;
};

// ---------------------------------------------------------------------------
// spec -> JSON

// Shortest representation that round-trips exactly: try %.15g/%.16g, fall
// back to %.17g.
std::string fmt_double(double v) {
  char buf[64];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (std::bit_cast<std::uint64_t>(back) ==
        std::bit_cast<std::uint64_t>(v)) {
      break;
    }
  }
  return buf;
}

// Writes every field in schema order, without whitespace. An inherited
// (NaN) promotion has no JSON spelling and is left out: absence reads back
// as inherit, so the round-trip is exact.
class Writer {
 public:
  void field(std::string_view key, double x) {
    name(key);
    out += fmt_double(x);
  }
  void field(std::string_view key, int x) {
    name(key);
    out += std::to_string(x);
  }
  void field(std::string_view key, std::uint64_t x) {
    name(key);
    out += std::to_string(static_cast<long long>(x));
  }
  void field(std::string_view key, bool x) {
    name(key);
    out += x ? "true" : "false";
  }
  void field(std::string_view key, const std::string& x) {
    name(key);
    out += json_quote(x);
  }
  void label(std::string_view key, const std::string& x) { field(key, x); }
  template <class T>
  void required(std::string_view key, const T& x) {
    field(key, x);
  }
  void inheritable(std::string_view key, double x) {
    if (!std::isnan(x)) field(key, x);
  }

  template <class F>
  void object(std::string_view key, F&& body) {
    name(key);
    group('{', body, '}');
  }
  template <class F>
  void object(std::string_view key, std::string_view /*noun*/, F&& body) {
    object(key, body);
  }
  template <class T, class F>
  void array(std::string_view key, const std::vector<T>& xs, F&& body) {
    name(key);
    group('[', [&] {
      for (const T& x : xs) {
        comma();
        group('{', [&] { body(x); }, '}');
      }
    }, ']');
  }

  template <class F>
  void group(char open, F&& body, char close) {
    out += open;
    first_ = true;
    body();
    out += close;
    first_ = false;
  }

  std::string out;

 private:
  void comma() {
    if (!first_) out += ',';
    first_ = false;
  }
  void name(std::string_view key) {
    comma();
    out += json_quote(key);
    out += ':';
  }

  bool first_ = true;
};

// ---------------------------------------------------------------------------
// spec -> hash

// Domain tag "whl-scen": scenario hashes live in their own namespace so a
// spec hash can never collide with a campaign/app fingerprint input.
constexpr std::uint64_t kTagScenario = 0x77686C2D7363656EULL;

// Hashes every field in schema order but the labels. An array hashes its
// size before its elements, an int widens by zero extension (fingerprints
// sign-extend), a bool is one byte, and an inherited promotion hashes by
// its NaN bits.
class Hasher : public Fnv1a {
 public:
  void field(std::string_view /*key*/, double x) { f64(x); }
  void field(std::string_view /*key*/, int x) {
    u64(static_cast<std::uint32_t>(x));
  }
  void field(std::string_view /*key*/, std::uint64_t x) { u64(x); }
  void field(std::string_view /*key*/, bool x) { byte(x ? 1 : 0); }
  void field(std::string_view /*key*/, const std::string& x) {
    u64(x.size());
    bytes(x);
  }
  void label(std::string_view /*key*/, const std::string& /*x*/) {}
  template <class T>
  void required(std::string_view key, const T& x) {
    field(key, x);
  }
  void inheritable(std::string_view key, double x) { field(key, x); }

  template <class F>
  void object(std::string_view /*key*/, F&& body) {
    body();
  }
  template <class F>
  void object(std::string_view /*key*/, std::string_view /*noun*/,
              F&& body) {
    body();
  }
  template <class T, class F>
  void array(std::string_view /*key*/, const std::vector<T>& xs, F&& body) {
    u64(xs.size());
    for (const T& x : xs) body(x);
  }
};

// ---------------------------------------------------------------------------
// built-in library

OperatorSpec make_operator(std::string name, std::string calibration) {
  OperatorSpec op;
  op.name = std::move(name);
  op.calibration = std::move(calibration);
  return op;
}

std::vector<OperatorSpec> paper_roster() {
  return {make_operator("Verizon", "verizon"),
          make_operator("T-Mobile", "tmobile"),
          make_operator("AT&T", "att")};
}

ScenarioSpec make_urban_loop() {
  ScenarioSpec s = paper_default();
  s.description =
      "Short Los Angeles metro loop: dense urban driving, strong diurnal "
      "load swings, low speeds.";
  s.route.waypoints = {
      {"Los Angeles", 34.05, -118.24, true},
      {"Santa Monica", 34.02, -118.49, false},
      {"Long Beach", 33.77, -118.19, false},
      {"Pasadena", 34.15, -118.14, false},
      {"Hollywood", 34.10, -118.33, false},
  };
  s.drive.hours_per_day = 6.0;
  s.speed = SpeedSpec{12.0, 30.0, 55.0, 65.0};
  s.load_regime = LoadRegimeSpec{0.6, 1.3, 1.1, 1.25};
  return s;
}

ScenarioSpec make_commuter_corridor() {
  ScenarioSpec s = paper_default();
  s.description =
      "LA -> Barstow -> Las Vegas commuter run with rush-hour load peaks.";
  s.route.waypoints = {
      {"Los Angeles", 34.05, -118.24, true},
      {"Barstow", 34.90, -117.02, false},
      {"Las Vegas", 36.17, -115.14, true},
  };
  s.drive.hours_per_day = 5.0;
  s.load_regime = LoadRegimeSpec{0.5, 1.4, 1.0, 1.3};
  return s;
}

ScenarioSpec make_highway_convoy() {
  ScenarioSpec s = paper_default();
  s.description =
      "Denver -> Omaha -> Chicago interstate convoy: sustained high speed, "
      "CAV offload and cloud gaming only.";
  s.route.waypoints = {
      {"Denver", 39.74, -104.99, true},
      {"Omaha", 41.26, -95.93, false},
      {"Chicago", 41.88, -87.63, true},
  };
  s.drive.hours_per_day = 10.0;
  s.speed.rural_mph = 75.0;
  s.speed.max_mph = 80.0;
  s.apps = AppMixSpec{false, true, false, true};
  return s;
}

ScenarioSpec make_eu_band_plan() {
  ScenarioSpec s = paper_default();
  s.description =
      "European carrier frequencies (B3/B7 LTE, n78 mid-band, n258 mmWave) "
      "on a short desert corridor.";
  s.route.waypoints = {
      {"Los Angeles", 34.05, -118.24, true},
      {"Las Vegas", 36.17, -115.14, true},
  };
  s.operators = {make_operator("EU-North", "verizon"),
                 make_operator("EU-Central", "tmobile"),
                 make_operator("EU-South", "att")};
  s.bands.profile(radio::Tech::LTE).carrier = MHz{1800.0};
  s.bands.profile(radio::Tech::LTE_A).carrier = MHz{2600.0};
  s.bands.profile(radio::Tech::NR_MID).carrier = MHz{3600.0};
  s.bands.profile(radio::Tech::NR_MID).cc_bandwidth_dl = MHz{100.0};
  s.bands.profile(radio::Tech::NR_MID).cc_bandwidth_ul = MHz{100.0};
  s.bands.profile(radio::Tech::NR_MMWAVE).carrier = MHz{26000.0};
  return s;
}

ScenarioSpec make_degraded_coverage_storm() {
  ScenarioSpec s = paper_default();
  s.description =
      "Severe-weather corridor: coverage availability cut, cells loaded, "
      "slow cautious driving.";
  s.route.waypoints = {
      {"Los Angeles", 34.05, -118.24, true},
      {"Las Vegas", 36.17, -115.14, true},
      {"Salt Lake City", 40.76, -111.89, false},
  };
  for (OperatorSpec& op : s.operators) {
    op.availability_scale = 0.55;
    op.load_scale = 1.25;
  }
  s.speed = SpeedSpec{10.0, 25.0, 45.0, 55.0};
  s.load_regime = LoadRegimeSpec{1.1, 1.2, 1.3, 1.2};
  return s;
}

// The library in builtin_scenarios() order. Each factory builds one spec
// as a delta from paper_default(); the table names it.
struct Builtin {
  std::string_view name;
  ScenarioSpec (*make)();
};

constexpr Builtin kLibrary[] = {
    {"paper-default", paper_default},
    {"urban-loop", make_urban_loop},
    {"commuter-corridor", make_commuter_corridor},
    {"highway-convoy", make_highway_convoy},
    {"eu-band-plan", make_eu_band_plan},
    {"degraded-coverage-storm", make_degraded_coverage_storm},
};

ScenarioSpec build(const Builtin& b) {
  ScenarioSpec s = b.make();
  s.name = b.name;
  validate(s);
  return s;
}

}  // namespace

double inherit() { return std::numeric_limits<double>::quiet_NaN(); }

PromotionSpec::PromotionSpec()
    : hs5g_given_dl(inherit()),
      hs5g_given_ul(inherit()),
      hs5g_given_interactive(inherit()),
      low5g_given_traffic(inherit()),
      any5g_given_idle(inherit()) {}

ScenarioSpec paper_default() {
  ScenarioSpec s;
  s.name = "paper-default";
  s.description =
      "The study's LA -> Boston cross-country drive: 2022-era US band "
      "plans, three-operator roster, eleven-hour driving days.";
  s.route.waypoints = {
      {"Los Angeles", 34.05, -118.24, true},
      {"Las Vegas", 36.17, -115.14, true},
      {"Salt Lake City", 40.76, -111.89, false},
      {"Denver", 39.74, -104.99, true},
      {"Omaha", 41.26, -95.93, false},
      {"Chicago", 41.88, -87.63, true},
      {"Indianapolis", 39.77, -86.16, false},
      {"Cleveland", 41.50, -81.69, false},
      {"Rochester", 43.16, -77.61, false},
      {"Boston", 42.36, -71.06, true},
  };
  s.operators = paper_roster();
  return s;
}

std::vector<ScenarioSpec> builtin_scenarios() {
  std::vector<ScenarioSpec> all;
  for (const Builtin& b : kLibrary) all.push_back(build(b));
  return all;
}

void validate(const ScenarioSpec& spec) {
  if (spec.name.empty()) bad("name must not be empty");
  for (const char c : spec.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-';
    if (!ok) bad("name must match [a-z0-9-]+: \"" + spec.name + "\"");
  }
  if (spec.seed > kMaxSeed) {
    bad("seed must be at most 2^53 (9007199254740992)");
  }

  const TimingSpec& t = spec.timing;
  const std::pair<const char*, double> timings[] = {
      {"timing.slot_ms", t.slot_ms},
      {"timing.tput_test_ms", t.tput_test_ms},
      {"timing.rtt_test_ms", t.rtt_test_ms},
      {"timing.gap_ms", t.gap_ms},
      {"timing.ping_interval_ms", t.ping_interval_ms},
      {"timing.sample_window_ms", t.sample_window_ms}};
  for (const auto& [label, v] : timings) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      bad(std::string(label) + " must be a positive number");
    }
  }

  if (!(spec.drive.hours_per_day > 0.0) || spec.drive.hours_per_day > 24.0) {
    bad("drive.hours_per_day must be in (0, 24]");
  }
  if (spec.drive.start_hour_local < 0 || spec.drive.start_hour_local > 23) {
    bad("drive.start_hour_local must be in [0, 23]");
  }

  const SpeedSpec& sp = spec.speed;
  if (!(sp.max_mph > 0.0) || !std::isfinite(sp.max_mph)) {
    bad("speed.max_mph must be a positive number");
  }
  const std::pair<const char*, double> targets[] = {
      {"speed.urban_mph", sp.urban_mph},
      {"speed.suburban_mph", sp.suburban_mph},
      {"speed.rural_mph", sp.rural_mph}};
  for (const auto& [label, v] : targets) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      bad(std::string(label) + " must be a positive number");
    }
    if (v > sp.max_mph) {
      bad(std::string(label) + " exceeds speed.max_mph");
    }
  }

  if (!(spec.route.road_factor > 0.0) ||
      !std::isfinite(spec.route.road_factor)) {
    bad("route.road_factor must be a positive number");
  }
  if (spec.route.waypoints.size() < 2) {
    bad("route needs at least two waypoints");
  }
  bool any_edge = false;
  for (std::size_t i = 0; i < spec.route.waypoints.size(); ++i) {
    const WaypointSpec& w = spec.route.waypoints[i];
    const std::string at = "route.waypoints[" + std::to_string(i) + "]";
    if (w.name.empty()) bad(at + ".name must not be empty");
    // Written so that NaN fails too: to_json would print it as "nan".
    if (!(-90.0 <= w.lat && w.lat <= 90.0)) bad(at + ".lat out of [-90, 90]");
    if (!(-180.0 <= w.lon && w.lon <= 180.0)) {
      bad(at + ".lon out of [-180, 180]");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.route.waypoints[j].name == w.name) {
        bad("duplicate waypoint name \"" + w.name + "\"");
      }
    }
    any_edge = any_edge || w.edge_server;
  }
  if (!any_edge) bad("route needs at least one edge_server waypoint");

  if (spec.operators.size() != 3) {
    bad("operators must list exactly 3 entries (one per result slot)");
  }
  for (std::size_t i = 0; i < spec.operators.size(); ++i) {
    const OperatorSpec& op = spec.operators[i];
    const std::string at = "operators[" + std::to_string(i) + "]";
    if (op.name.empty()) bad(at + ".name must not be empty");
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.operators[j].name == op.name) {
        bad("duplicate operator name \"" + op.name + "\"");
      }
    }
    if (op.calibration != "verizon" && op.calibration != "tmobile" &&
        op.calibration != "att") {
      bad(at + ".calibration must be one of verizon/tmobile/att");
    }
    const std::pair<const char*, double> promos[] = {
        {"hs5g_given_dl", op.promotion.hs5g_given_dl},
        {"hs5g_given_ul", op.promotion.hs5g_given_ul},
        {"hs5g_given_interactive", op.promotion.hs5g_given_interactive},
        {"low5g_given_traffic", op.promotion.low5g_given_traffic},
        {"any5g_given_idle", op.promotion.any5g_given_idle}};
    for (const auto& [label, v] : promos) {
      if (std::isnan(v)) continue;  // inherit
      if (v < 0.0 || v > 1.0) {
        bad(at + ".promotion." + label + " must be in [0, 1] or absent");
      }
    }
    if (!(op.availability_scale > 0.0) || op.availability_scale > 10.0) {
      bad(at + ".availability_scale must be in (0, 10]");
    }
    if (!(op.load_scale > 0.0) || op.load_scale > 10.0) {
      bad(at + ".load_scale must be in (0, 10]");
    }
  }

  for (const radio::Tech tech : radio::kAllTechs) {
    const radio::BandProfile& b = spec.bands.profile(tech);
    const std::string at = "bands." + std::string(radio::to_string(tech));
    if (b.tech != tech) bad(at + " profile tech mismatch");
    if (!(b.carrier.value > 0.0)) bad(at + ".carrier_mhz must be positive");
    if (!(b.cc_bandwidth_dl.value > 0.0)) {
      bad(at + ".cc_bandwidth_dl_mhz must be positive");
    }
    if (!(b.cc_bandwidth_ul.value > 0.0)) {
      bad(at + ".cc_bandwidth_ul_mhz must be positive");
    }
    if (b.max_cc_dl < 1 || b.max_cc_ul < 1) {
      bad(at + " carrier counts must be >= 1");
    }
    if (b.mimo_layers_dl < 1 || b.mimo_layers_ul < 1) {
      bad(at + " MIMO layer counts must be >= 1");
    }
    if (!std::isfinite(b.tx_power_dl.value) ||
        !std::isfinite(b.tx_power_ul.value) ||
        !std::isfinite(b.antenna_gain_dl.value)) {
      bad(at + " powers/gains must be finite");
    }
    if (!(b.typical_range.value > 0.0)) {
      bad(at + ".typical_range_m must be positive");
    }
  }

  const std::pair<const char*, double> regimes[] = {
      {"load_regime.night", spec.load_regime.night},
      {"load_regime.morning", spec.load_regime.morning},
      {"load_regime.afternoon", spec.load_regime.afternoon},
      {"load_regime.evening", spec.load_regime.evening}};
  for (const auto& [label, v] : regimes) {
    if (!(v > 0.0) || v > 5.0) {
      bad(std::string(label) + " must be in (0, 5]");
    }
  }

  if (!spec.apps.ar && !spec.apps.cav && !spec.apps.video &&
      !spec.apps.gaming) {
    bad("apps must enable at least one session family");
  }
}

std::uint64_t scenario_hash(const ScenarioSpec& spec) {
  Hasher h;
  h.u64(kTagScenario);
  walk(h, spec);
  return h.digest();
}

ScenarioSpec parse_scenario_json(std::string_view text) {
  const JsonValue doc = parse_json(text);
  if (doc.kind != JsonValue::Kind::Object) {
    bad("scenario document must be an object");
  }
  ScenarioSpec spec = paper_default();
  spec.description.clear();  // deltas describe themselves
  Reader r;
  r.read(doc, [&] { walk(r, spec); });
  validate(spec);
  return spec;
}

std::string to_json(const ScenarioSpec& spec) {
  Writer w;
  w.group('{', [&] { walk(w, spec); }, '}');
  return std::move(w.out);
}

ScenarioSpec load_scenario(const std::string& name_or_path) {
  for (const Builtin& b : kLibrary) {
    if (b.name == name_or_path) return build(b);
  }
  std::ifstream in(name_or_path, std::ios::binary);
  if (!in) {
    bad("\"" + name_or_path +
        "\" is neither a built-in scenario nor a readable file");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario_json(buf.str());
}

}  // namespace wheels::scenario
