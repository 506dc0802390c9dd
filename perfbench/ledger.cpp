#include "ledger.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/json.h"

namespace wheels::perfbench {

Counters capture_counters() {
  Counters out;
  for (const obs::MetricValue& m : obs::Registry::global().snapshot().metrics) {
    if (m.kind == obs::MetricKind::Histogram) {
      out[m.name + ".sum"] = m.sum;
      out[m.name + ".count"] = static_cast<std::int64_t>(m.count);
    } else {
      out[m.name] = m.value;
    }
  }
  return out;
}

Counters parse_metrics_jsonl(std::string_view text) {
  Counters out;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(at, end - at);
    at = end + 1;
    if (line.empty()) continue;
    const scenario::JsonValue v = scenario::parse_json(line);
    const scenario::JsonValue* name = v.find("metric");
    if (name == nullptr) continue;
    const auto field = [&](std::string_view key) {
      const scenario::JsonValue* f = v.find(key);
      return f == nullptr ? 0 : static_cast<std::int64_t>(f->number);
    };
    if (v.find("sum") != nullptr) {
      out[name->string + ".sum"] = field("sum");
      out[name->string + ".count"] = field("count");
    } else {
      out[name->string] = field("value");
    }
  }
  return out;
}

Counters counter_delta(const Counters& a, const Counters& b) {
  Counters out;
  for (const auto& [k, v] : b) out[k] = v - get(a, k);
  return out;
}

std::int64_t get(const Counters& c, std::string_view key) {
  const auto it = c.find(std::string(key));
  return it == c.end() ? 0 : it->second;
}

namespace {

// This process's spans as pid 1, then the children's.
std::vector<ChildSpan> all_spans(const std::vector<ChildSpan>& children) {
  std::vector<ChildSpan> out;
  for (obs::TraceEvent& e : obs::trace_events()) {
    out.push_back({std::move(e.name), std::move(e.cat), 1, e.tid, e.start_ns,
                   e.end_ns});
  }
  out.insert(out.end(), children.begin(), children.end());
  return out;
}

}  // namespace

std::vector<ChildSpan> read_chrome_trace(std::string_view text,
                                         std::int64_t pid,
                                         std::int64_t first_ns) {
  std::vector<ChildSpan> out;
  // A process that never armed its exporters (a printer that records no
  // span never initializes obs) leaves no file.
  if (text.empty()) return out;
  const scenario::JsonValue doc = scenario::parse_json(text);
  const scenario::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) return out;
  for (const scenario::JsonValue& e : events->array) {
    const auto num = [&](std::string_view k) {
      const scenario::JsonValue* f = e.find(k);
      return f == nullptr ? std::int64_t{0}
                          : static_cast<std::int64_t>(f->number);
    };
    const auto str = [&](std::string_view k) {
      const scenario::JsonValue* f = e.find(k);
      return f == nullptr ? std::string() : f->string;
    };
    const std::int64_t start = first_ns + num("ts") * 1000;
    out.push_back({str("name"), str("cat"), pid, num("tid"), start,
                   start + num("dur") * 1000});
  }
  return out;
}

std::map<std::string, SpanTotals> span_totals(
    std::int64_t from_ns, std::int64_t to_ns,
    const std::vector<ChildSpan>& children) {
  std::vector<ChildSpan> events = all_spans(children);
  std::erase_if(events, [&](const ChildSpan& e) {
    return e.start_ns < from_ns || e.start_ns >= to_ns;
  });
  // Per thread, outer spans first: by start, then the longer one.
  std::sort(events.begin(), events.end(),
            [](const ChildSpan& a, const ChildSpan& b) {
              if (a.pid != b.pid) return a.pid < b.pid;
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  struct Open {
    std::size_t index;
    std::int64_t child_ns = 0;
    bool sim_child = false;
  };
  std::map<std::string, SpanTotals> out;
  auto close = [&](const Open& o) {
    const ChildSpan& e = events[o.index];
    SpanTotals& t = out[e.name];
    const std::int64_t self = e.end_ns - e.start_ns - o.child_ns;
    t.count += 1;
    t.total_ns += e.end_ns - e.start_ns;
    t.self_ns += self;
    (o.sim_child ? t.self_with_sim_ns : t.self_without_sim_ns) += self;
  };
  std::vector<Open> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChildSpan& e = events[i];
    if (i > 0 && (e.pid != events[i - 1].pid || e.tid != events[i - 1].tid)) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
    }
    while (!stack.empty() && events[stack.back().index].end_ns <= e.start_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      stack.back().child_ns += e.end_ns - e.start_ns;
      if (e.name.rfind("dataset.simulate.", 0) == 0) {
        stack.back().sim_child = true;
      }
    }
    stack.push_back(Open{i});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return out;
}

std::string chrome_trace(const std::vector<ChildSpan>& children) {
  const std::vector<ChildSpan> events = all_spans(children);
  std::int64_t origin_ns = 0;
  if (!events.empty()) {
    origin_ns = std::min_element(events.begin(), events.end(),
                                 [](const ChildSpan& a, const ChildSpan& b) {
                                   return a.start_ns < b.start_ns;
                                 })->start_ns;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChildSpan& e = events[i];
    // Start and end floored from one origin, so nesting survives.
    const std::int64_t ts_us = (e.start_ns - origin_ns) / 1000;
    const std::int64_t end_us = (e.end_ns - origin_ns) / 1000;
    if (i > 0) out += ",";
    out += JsonObject()
               .str("name", e.name)
               .str("cat", e.cat)
               .str("ph", "X")
               .integer("pid", e.pid)
               .integer("tid", e.tid)
               .integer("ts", ts_us)
               .integer("dur", end_us - ts_us)
               .done();
  }
  return out + "]}\n";
}

SpanTotals sum_prefix(const std::map<std::string, SpanTotals>& totals,
                      std::string_view prefix) {
  SpanTotals s;
  for (const auto& [name, t] : totals) {
    if (name.rfind(prefix, 0) != 0) continue;
    s.count += t.count;
    s.total_ns += t.total_ns;
    s.self_ns += t.self_ns;
    s.self_with_sim_ns += t.self_with_sim_ns;
    s.self_without_sim_ns += t.self_without_sim_ns;
  }
  return s;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(v[i]);
  }
  return out + "]";
}

std::string json_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += scenario::json_quote(v[i]);
  }
  return out + "]";
}

void JsonObject::key(std::string_view k) {
  if (body_.size() > 1) body_ += ",";
  body_ += scenario::json_quote(k);
  body_ += ":";
}

JsonObject& JsonObject::num(std::string_view k, double v) {
  key(k);
  body_ += json_number(v);
  return *this;
}

JsonObject& JsonObject::integer(std::string_view k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view v) {
  key(k);
  body_ += scenario::json_quote(v);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace wheels::perfbench
