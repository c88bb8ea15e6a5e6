// telemetry_validate: schema + consistency checker for the artifact
// directory a TelemetrySession writes (see docs/observability.md):
//
//   metrics.prom      Prometheus text exposition v0.0.4
//   snapshot.json     kdd-telemetry-snapshot-v1 (one JSON object, one line)
//   timeseries.jsonl  kdd-telemetry-timeseries-v1 (header + bucket lines)
//   trace.json        Chrome trace_event JSON of the span ring
//   health.json       kdd-health-v1 (SLO windows + alert table)
//   flight.json       kdd-flight-v1 (flight-recorder ring dump)
//   scrape_*.{prom,json}  optional: bytes served by the live scrape surface
//
// Checks, per artifact:
//  * metrics.prom — every non-comment line is `name[{labels}] value`, each
//    family has exactly one `# TYPE` line and a `# HELP` line, and the
//    span-stage aggregate families are present.
//  * health.json — schema tag, fast + slow windows with attainment numbers,
//    and one alert entry per known rule.
//  * flight.json — schema tag, strictly increasing `seq`, non-decreasing
//    `t_us` (the ring is dumped in chronological order).
//  * snapshot.json — single line, carries the schema tag.
//  * timeseries.jsonl — header carries the schema tag + write_kinds; every
//    bucket line carries t/ops, one ssd_writes_<kind> field per declared
//    kind, and the wear gauges (dez_pages, stale_groups, ...); `t` is
//    non-decreasing and at least one bucket completed requests.
//  * trace.json — parses the complete ("X") events; for every request id
//    whose root span survived in the ring, the nested stage spans must lie
//    inside the root's [start, end] window and the union of their
//    intervals must not exceed the root duration (the reconciliation
//    property: per-stage time explains, and never exceeds, end-to-end
//    time; stage spans nest, so the union — not the plain sum — is the
//    bounded quantity). A small epsilon absorbs the microsecond rounding
//    of the Chrome format.
//
// Exit status: 0 when every check passes, 1 otherwise — CI's obs-smoke job
// runs this against a fig9 --telemetry run.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

int g_failures = 0;

void fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++g_failures;
}

void check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::vector<std::string> split_lines(const std::string& body) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : body) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

/// Extracts `"key":<number>` from a JSON-ish line. Returns false if absent.
bool json_number(const std::string& line, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

// ---------------------------------------------------------------------------
// metrics.prom
// ---------------------------------------------------------------------------

void validate_prometheus_file(const std::string& dir, const std::string& file,
                              bool require_span_families) {
  std::string body;
  if (!read_file(dir + "/" + file, &body)) {
    fail(file + ": cannot read");
    return;
  }
  check(!body.empty() && body.back() == '\n',
        file + ": must end with a newline");

  std::set<std::string> type_families;   // families with a # TYPE line
  std::set<std::string> help_families;   // families with a # HELP line
  std::set<std::string> value_families;  // families with at least one sample
  for (const std::string& line : split_lines(body)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ss(line.substr(7));
      std::string family, kind;
      ss >> family >> kind;
      check(kind == "counter" || kind == "gauge" || kind == "summary",
            file + ": unknown TYPE kind '" + kind + "' for " + family);
      check(type_families.insert(family).second,
            file + ": duplicate TYPE line for " + family);
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      std::istringstream ss(line.substr(7));
      std::string family;
      ss >> family;
      check(help_families.insert(family).second,
            file + ": duplicate HELP line for " + family);
      continue;
    }
    if (line[0] == '#') continue;  // other comments are fine
    // Sample line: name[{labels}] value
    const std::size_t sp = line.rfind(' ');
    check(sp != std::string::npos && sp > 0 && sp + 1 < line.size(),
          file + ": malformed sample line: " + line);
    if (sp == std::string::npos) continue;
    const std::string name = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    check(end != nullptr && *end == '\0',
          file + ": non-numeric value in: " + line);
    const std::size_t brace = name.find('{');
    std::string family = brace == std::string::npos ? name : name.substr(0, brace);
    if (brace != std::string::npos) {
      check(name.back() == '}',
            file + ": unterminated label set in: " + line);
    }
    value_families.insert(family);
  }
  // Every sampled family must be typed. Summary families emit the family
  // TYPE but sample under _sum/_count/_max suffixes and quantile labels.
  for (const std::string& family : value_families) {
    bool typed = type_families.count(family) > 0;
    for (const char* suffix : {"_sum", "_count", "_max"}) {
      const std::size_t n = std::strlen(suffix);
      if (!typed && family.size() > n &&
          family.compare(family.size() - n, n, suffix) == 0) {
        typed = type_families.count(family.substr(0, family.size() - n)) > 0;
      }
    }
    check(typed, file + ": family without TYPE line: " + family);
  }
  // Every typed family carries a HELP line (emitted as a pair).
  for (const std::string& family : type_families) {
    check(help_families.count(family) > 0,
          file + ": family without HELP line: " + family);
  }
  if (require_span_families) {
    // The span aggregates PR 6 introduced must be present.
    for (const char* family : {"kdd_span_stage_ns_total",
                               "kdd_span_stage_count", "kdd_request_ns"}) {
      check(type_families.count(family) > 0,
            file + ": missing family " + family);
    }
    // The health engine's alert families must be present too.
    for (const char* family : {"kdd_alerts_active", "kdd_alerts_fired_total",
                               "kdd_slo_latency_burn"}) {
      check(type_families.count(family) > 0,
            file + ": missing family " + family);
    }
    // Segment staging: the instrumented replay runs with staging on, so
    // the seal/stage counters and the fill / write-amplification gauges
    // must flow through every Prometheus surface.
    for (const char* family :
         {"kdd_segment_seals_total", "kdd_segment_forced_seals_total",
          "kdd_segment_pages_sealed_total", "kdd_segment_pages_staged_total",
          "kdd_segment_pages_coalesced_total",
          "kdd_segment_fallback_page_writes_total",
          "kdd_segment_lost_pages_total", "kdd_segment_recovered_total",
          "kdd_segment_discarded_total", "kdd_segment_discarded_pages_total",
          "kdd_segment_fill_permille", "kdd_segment_write_ops_per_kilopage"}) {
      check(type_families.count(family) > 0,
            file + ": missing family " + family);
    }
    // Delta zone: occupancy/fragmentation gauges plus the boundary counter
    // (adaptive_boundary is flag-gated, but the series are always registered
    // by KddCache).
    for (const char* family :
         {"kdd_dez_live_bytes", "kdd_dez_dead_bytes", "kdd_dez_boundary_pages",
          "kdd_dez_spare_pages", "kdd_dez_boundary_moves_total"}) {
      check(type_families.count(family) > 0,
            file + ": missing family " + family);
    }
  }
  std::printf("%s: %zu typed families, %zu sampled families\n", file.c_str(),
              type_families.size(), value_families.size());
}

void validate_prometheus(const std::string& dir) {
  validate_prometheus_file(dir, "metrics.prom", /*require_span_families=*/true);
}

// ---------------------------------------------------------------------------
// snapshot.json
// ---------------------------------------------------------------------------

void validate_snapshot(const std::string& dir) {
  std::string body;
  if (!read_file(dir + "/snapshot.json", &body)) {
    fail("snapshot.json: cannot read");
    return;
  }
  check(body.find("kdd-telemetry-snapshot-v1") != std::string::npos,
        "snapshot.json: missing schema tag kdd-telemetry-snapshot-v1");
  const std::vector<std::string> lines = split_lines(body);
  std::size_t nonempty = 0;
  for (const std::string& l : lines) {
    if (!l.empty()) ++nonempty;
  }
  check(nonempty == 1, "snapshot.json: must be a single JSON line");
  check(!lines.empty() && lines[0].front() == '{' && lines[0].back() == '}',
        "snapshot.json: not a JSON object");
  check(body.find("\"counters\"") != std::string::npos &&
            body.find("\"gauges\"") != std::string::npos &&
            body.find("\"histograms\"") != std::string::npos,
        "snapshot.json: missing counters/gauges/histograms sections");
  std::printf("snapshot.json: ok (%zu bytes)\n", body.size());
}

// ---------------------------------------------------------------------------
// timeseries.jsonl
// ---------------------------------------------------------------------------

void validate_timeseries(const std::string& dir) {
  std::string body;
  if (!read_file(dir + "/timeseries.jsonl", &body)) {
    fail("timeseries.jsonl: cannot read");
    return;
  }
  const std::vector<std::string> lines = split_lines(body);
  if (lines.empty()) {
    fail("timeseries.jsonl: empty");
    return;
  }
  const std::string& header = lines[0];
  check(header.find("kdd-telemetry-timeseries-v1") != std::string::npos,
        "timeseries.jsonl: header missing schema tag");
  check(header.find("\"t_unit\"") != std::string::npos,
        "timeseries.jsonl: header missing t_unit");

  // Write kinds declared in the header become required bucket fields.
  std::vector<std::string> kinds;
  const std::size_t kpos = header.find("\"write_kinds\":[");
  check(kpos != std::string::npos, "timeseries.jsonl: header missing write_kinds");
  if (kpos != std::string::npos) {
    std::size_t p = kpos + std::strlen("\"write_kinds\":[");
    while (p < header.size() && header[p] != ']') {
      if (header[p] == '"') {
        const std::size_t q = header.find('"', p + 1);
        if (q == std::string::npos) break;
        kinds.push_back(header.substr(p + 1, q - p - 1));
        p = q + 1;
      } else {
        ++p;
      }
    }
  }
  check(!kinds.empty(), "timeseries.jsonl: no write kinds declared");

  const char* required_fields[] = {"ops",         "ssd_reads",   "disk_reads",
                                   "disk_writes", "cleanings",   "dez_pages",
                                   "old_pages",   "stale_groups", "log_used_pages",
                                   "dez_live_bytes", "dez_dead_bytes",
                                   "dez_boundary_pages", "dez_spare_pages",
                                   "mean_latency_us"};
  double prev_t = -1.0;
  std::uint64_t total_ops = 0;
  std::size_t buckets = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    ++buckets;
    double t = 0.0, ops = 0.0;
    check(json_number(line, "t", &t), "timeseries.jsonl: bucket missing t");
    check(json_number(line, "ops", &ops), "timeseries.jsonl: bucket missing ops");
    check(t >= prev_t, "timeseries.jsonl: t not non-decreasing");
    prev_t = t;
    total_ops += static_cast<std::uint64_t>(ops);
    for (const char* field : required_fields) {
      double v = 0.0;
      check(json_number(line, field, &v),
            std::string("timeseries.jsonl: bucket missing field ") + field);
    }
    for (const std::string& kind : kinds) {
      double v = 0.0;
      check(json_number(line, "ssd_writes_" + kind, &v),
            "timeseries.jsonl: bucket missing ssd_writes_" + kind);
    }
  }
  check(buckets > 0, "timeseries.jsonl: no buckets");
  check(total_ops > 0, "timeseries.jsonl: no requests recorded across buckets");
  std::printf("timeseries.jsonl: %zu buckets, %llu ops, %zu write kinds\n",
              buckets, static_cast<unsigned long long>(total_ops), kinds.size());
}

// ---------------------------------------------------------------------------
// trace.json
// ---------------------------------------------------------------------------

struct TraceEvent {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t request = 0;
};

void validate_trace(const std::string& dir) {
  std::string body;
  if (!read_file(dir + "/trace.json", &body)) {
    fail("trace.json: cannot read");
    return;
  }
  check(body.find("\"traceEvents\"") != std::string::npos,
        "trace.json: missing traceEvents array");

  // Parse the complete ("X") events; the writer emits one object per line.
  std::vector<TraceEvent> events;
  for (const std::string& line : split_lines(body)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    TraceEvent ev;
    const std::size_t npos = line.find("\"name\":\"");
    if (npos == std::string::npos) {
      fail("trace.json: X event without name: " + line);
      continue;
    }
    const std::size_t nend = line.find('"', npos + 8);
    ev.name = line.substr(npos + 8, nend - npos - 8);
    double v = 0.0;
    check(json_number(line, "ts", &v), "trace.json: X event missing ts");
    ev.ts_us = v;
    check(json_number(line, "dur", &v), "trace.json: X event missing dur");
    ev.dur_us = v;
    if (json_number(line, "request", &v)) {
      ev.request = static_cast<std::uint64_t>(v);
    }
    events.push_back(ev);
  }
  check(!events.empty(), "trace.json: no complete events");

  // Reconciliation: group by request id. Root stages own the window; any
  // other stage with the same id must nest inside it and the stage
  // durations must sum to at most the root duration.
  const std::set<std::string> root_stages = {"request", "clean", "heal",
                                             "recovery"};
  std::map<std::uint64_t, const TraceEvent*> roots;
  std::map<std::uint64_t, std::vector<const TraceEvent*>> children;
  std::size_t dup_roots = 0;
  for (const TraceEvent& ev : events) {
    if (ev.request == 0) continue;  // ring-evicted orphan context
    if (root_stages.count(ev.name) > 0) {
      if (!roots.emplace(ev.request, &ev).second) ++dup_roots;
    } else {
      children[ev.request].push_back(&ev);
    }
  }
  check(dup_roots == 0, "trace.json: duplicate root span for a request id");
  check(!roots.empty(), "trace.json: no root spans survived in the ring");

  // Epsilon: the Chrome format rounds to 0.001 us per edge.
  std::size_t reconciled = 0;
  for (const auto& [id, root] : roots) {
    const auto it = children.find(id);
    if (it == children.end()) {
      ++reconciled;  // a root with no nested stages is trivially consistent
      continue;
    }
    const double eps =
        0.002 * (static_cast<double>(it->second.size()) + 1.0) + 0.01;
    const double root_start = root->ts_us;
    const double root_end = root->ts_us + root->dur_us;
    bool ok = true;
    std::vector<std::pair<double, double>> intervals;
    intervals.reserve(it->second.size());
    for (const TraceEvent* c : it->second) {
      if (c->ts_us < root_start - eps || c->ts_us + c->dur_us > root_end + eps) {
        fail("trace.json: request " + std::to_string(id) + " child span '" +
             c->name + "' outside its root window");
        ok = false;
      }
      intervals.emplace_back(c->ts_us, c->ts_us + c->dur_us);
    }
    // Stage spans nest (e.g. metadata_log inside dez_commit), so a plain
    // sum double-counts; the union of the child intervals is what must fit
    // inside the root.
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0, cur_start = 0.0, cur_end = -1.0;
    for (const auto& [s, e] : intervals) {
      if (s > cur_end) {
        covered += cur_end > cur_start ? cur_end - cur_start : 0.0;
        cur_start = s;
        cur_end = e;
      } else if (e > cur_end) {
        cur_end = e;
      }
    }
    covered += cur_end > cur_start ? cur_end - cur_start : 0.0;
    if (covered > root->dur_us + eps) {
      fail("trace.json: request " + std::to_string(id) +
           " child span union covers " + std::to_string(covered) +
           " us > root " + std::to_string(root->dur_us) + " us");
      ok = false;
    }
    reconciled += ok ? 1 : 0;
  }
  std::printf("trace.json: %zu events, %zu roots, %zu reconciled\n",
              events.size(), roots.size(), reconciled);
}


// ---------------------------------------------------------------------------
// health.json
// ---------------------------------------------------------------------------

void validate_health_file(const std::string& dir, const std::string& file) {
  std::string body;
  if (!read_file(dir + "/" + file, &body)) {
    fail(file + ": cannot read");
    return;
  }
  check(body.find("\"kdd-health-v1\"") != std::string::npos,
        file + ": missing schema tag kdd-health-v1");
  check(body.find("\"windows\"") != std::string::npos &&
            body.find("\"fast\"") != std::string::npos &&
            body.find("\"slow\"") != std::string::npos,
        file + ": missing fast/slow window sections");
  double v = 0.0;
  check(json_number(body, "attainment", &v), file + ": missing attainment");
  check(json_number(body, "burn_rate", &v), file + ": missing burn_rate");
  check(body.find("\"alerts\":[") != std::string::npos,
        file + ": missing alerts array");
  std::size_t rules = 0;
  for (const char* rule :
       {"latency_burn", "hit_ratio_collapse", "admission_reject_spike",
        "queue_stall", "wear_imbalance", "array_degraded"}) {
    if (body.find(std::string("\"rule\":\"") + rule + "\"") !=
        std::string::npos) {
      ++rules;
    } else {
      fail(file + ": missing alert rule entry " + rule);
    }
  }
  std::printf("%s: ok (%zu rules)\n", file.c_str(), rules);
}

void validate_health(const std::string& dir) {
  validate_health_file(dir, "health.json");
}

// ---------------------------------------------------------------------------
// flight.json
// ---------------------------------------------------------------------------

void validate_flight(const std::string& dir) {
  std::string body;
  if (!read_file(dir + "/flight.json", &body)) {
    fail("flight.json: cannot read");
    return;
  }
  check(body.find("\"kdd-flight-v1\"") != std::string::npos,
        "flight.json: missing schema tag kdd-flight-v1");
  check(body.find("\"t_unit\":\"sim_us\"") != std::string::npos,
        "flight.json: missing t_unit");
  check(body.find("\"reason\":") != std::string::npos,
        "flight.json: missing reason");
  check(body.find("\"events\":[") != std::string::npos,
        "flight.json: missing events array");

  // The dump is chronological: seq strictly increasing, t_us non-decreasing.
  std::uint64_t events = 0;
  long long prev_seq = -1;
  double prev_t = -1.0;
  bool have_dump_mark = false;
  std::size_t pos = 0;
  while ((pos = body.find("{\"seq\":", pos)) != std::string::npos) {
    const std::string obj = body.substr(pos, body.find('}', pos) - pos + 1);
    pos += 7;
    double seq = 0.0, t = 0.0;
    check(json_number(obj, "seq", &seq), "flight.json: event missing seq");
    check(json_number(obj, "t_us", &t), "flight.json: event missing t_us");
    check(obj.find("\"kind\":\"") != std::string::npos,
          "flight.json: event missing kind");
    check(static_cast<long long>(seq) > prev_seq,
          "flight.json: seq not strictly increasing");
    check(t >= prev_t, "flight.json: t_us not non-decreasing");
    prev_seq = static_cast<long long>(seq);
    prev_t = t;
    if (obj.find("\"kind\":\"dump\"") != std::string::npos) {
      have_dump_mark = true;
    }
    ++events;
  }
  check(events > 0, "flight.json: no events");
  check(have_dump_mark, "flight.json: missing dump-mark event");
  std::printf("flight.json: %llu events, chronological\n",
              static_cast<unsigned long long>(events));
}

// ---------------------------------------------------------------------------
// scrape_*.{prom,json} (optional: written when the replay exercised the
// live serving surface)
// ---------------------------------------------------------------------------

void validate_scrapes(const std::string& dir) {
  std::string probe;
  if (read_file(dir + "/scrape_metrics.prom", &probe)) {
    validate_prometheus_file(dir, "scrape_metrics.prom",
                             /*require_span_families=*/true);
  }
  if (read_file(dir + "/scrape_health.json", &probe)) {
    validate_health_file(dir, "scrape_health.json");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: telemetry_validate <artifact-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  validate_prometheus(dir);
  validate_snapshot(dir);
  validate_timeseries(dir);
  validate_trace(dir);
  validate_health(dir);
  validate_flight(dir);
  validate_scrapes(dir);
  if (g_failures > 0) {
    std::fprintf(stderr, "telemetry_validate: %d check(s) FAILED under %s\n",
                 g_failures, dir.c_str());
    return 1;
  }
  std::printf("telemetry_validate: all checks passed under %s\n", dir.c_str());
  return 0;
}
