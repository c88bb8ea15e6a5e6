#include "obs/export.hpp"

#include <cstdio>
#include <set>
#include <string>
#include <string_view>

namespace kdd::obs {

namespace {

/// Family name = metric name up to the first '{' (Prometheus HELP/TYPE
/// comments apply to the family, not to one labelled series).
std::string_view family_of(std::string_view name) {
  const std::size_t brace = name.find('{');
  return brace == std::string_view::npos ? name : name.substr(0, brace);
}

/// One-line HELP text for the families the repo documents; families outside
/// the table fall back to a pointer at the catalogue. Keep in sync with
/// docs/observability.md.
const char* help_for(std::string_view family) {
  struct Entry {
    std::string_view family;
    const char* help;
  };
  static constexpr Entry kTable[] = {
      {"kdd_request_ns", "end-to-end request latency from root spans"},
      {"kdd_span_stage_ns_total", "nanoseconds attributed to each pipeline stage"},
      {"kdd_span_stage_count", "closed spans per pipeline stage"},
      {"kdd_array_state", "ArrayHealth: 0 healthy, 1 degraded, 2 rebuilding"},
      {"kdd_rebuild_progress", "rebuild cursor position in permille of groups"},
      {"kdd_retry_exhausted_total", "with_retry budgets that ran dry"},
      {"kdd_alerts_active", "1 while the burn-rate rule is firing, else 0"},
      {"kdd_alerts_fired_total", "fire edges of each burn-rate rule"},
      {"kdd_slo_latency_burn", "slow-window latency SLO burn rate x1000"},
      {"kdd_hit_ratio_permille", "rolling fast-window cache hit ratio, permille"},
      {"kdd_wear_skew_permille", "max/mean per-region SSD wear ratio, permille"},
      {"kdd_admissions_deferred_total",
       "cache misses the ghost window did not admit (first miss)"},
      {"kdd_reclaim_kept_total", "destaged old pages rewritten in place as clean"},
      {"kdd_reclaim_dropped_total", "destaged old pages dropped with their deltas"},
  };
  for (const Entry& e : kTable) {
    if (e.family == family) return e.help;
  }
  return "kdd metric (catalogue: docs/observability.md)";
}

/// Emits "# HELP" + "# TYPE" once per family across the whole export (the
/// snapshot is sorted, but labelled histograms can share a family without
/// being adjacent, so dedupe with a set rather than last-seen).
void maybe_family_header(std::string& out, std::string_view family,
                         const char* kind, std::set<std::string>* emitted) {
  if (!emitted->insert(std::string(family)).second) return;
  out += "# HELP ";
  out += family;
  out += ' ';
  out += help_for(family);
  out += '\n';
  out += "# TYPE ";
  out += family;
  out += ' ';
  out += kind;
  out += '\n';
}

/// `foo` -> `foo{quantile="0.5"}`; `foo{a="b"}` -> `foo{a="b",quantile="0.5"}`.
std::string with_quantile_label(std::string_view name, const char* q) {
  std::string out;
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) {
    out = std::string(name) + "{quantile=\"" + q + "\"}";
    return out;
  }
  // Insert before the closing brace.
  out = std::string(name.substr(0, name.size() - 1));
  out += ",quantile=\"";
  out += q;
  out += "\"}";
  return out;
}

void append_line_u64(std::string& out, std::string_view name,
                     std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, " %llu\n",
                static_cast<unsigned long long>(v));
  out += name;
  out += buf;
}

void append_line_i64(std::string& out, std::string_view name, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, " %lld\n", static_cast<long long>(v));
  out += name;
  out += buf;
}

void append_line_f64(std::string& out, std::string_view name, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, " %.6g\n", v);
  out += name;
  out += buf;
}

struct HistSummary {
  std::uint64_t count;
  double sum_us;
  std::uint64_t p50;
  std::uint64_t p90;
  std::uint64_t p99;
  std::uint64_t max;
};

HistSummary summarize(const LatencyHistogram& h) {
  HistSummary s{};
  s.count = h.count();
  s.sum_us = h.mean_us() * static_cast<double>(h.count());
  s.p50 = h.percentile_us(0.5);
  s.p90 = h.percentile_us(0.9);
  s.p99 = h.percentile_us(0.99);
  s.max = h.max_us();
  return s;
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string prom_escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_series_name(std::string_view family, std::string_view key,
                             std::string_view value) {
  std::string out(family);
  out += '{';
  out += key;
  out += "=\"";
  out += prom_escape_label_value(value);
  out += "\"}";
  return out;
}

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(snap.counters.size() * 96 + snap.gauges.size() * 80 +
              snap.histograms.size() * 320 + 64);

  std::set<std::string> emitted;
  for (const MetricsSnapshot::CounterValue& c : snap.counters) {
    maybe_family_header(out, family_of(c.name), "counter", &emitted);
    append_line_u64(out, c.name, c.value);
  }
  for (const MetricsSnapshot::GaugeValue& g : snap.gauges) {
    maybe_family_header(out, family_of(g.name), "gauge", &emitted);
    append_line_i64(out, g.name, g.value);
  }
  for (const MetricsSnapshot::HistogramValue& h : snap.histograms) {
    const HistSummary s = summarize(h.hist);
    const std::string_view fam = family_of(h.name);
    maybe_family_header(out, fam, "summary", &emitted);
    append_line_u64(out, with_quantile_label(h.name, "0.5"), s.p50);
    append_line_u64(out, with_quantile_label(h.name, "0.9"), s.p90);
    append_line_u64(out, with_quantile_label(h.name, "0.99"), s.p99);
    append_line_f64(out, std::string(h.name) + "_sum", s.sum_us);
    append_line_u64(out, std::string(h.name) + "_count", s.count);
    maybe_family_header(out, std::string(fam) + "_max", "gauge", &emitted);
    append_line_u64(out, std::string(h.name) + "_max", s.max);
  }
  return out;
}

std::string snapshot_json(const MetricsSnapshot& snap) {
  std::string out = "{\"schema\":\"";
  out += kSnapshotSchema;
  out += "\",\"counters\":{";
  char buf[48];
  bool first = true;
  for (const MetricsSnapshot::CounterValue& c : snap.counters) {
    if (!first) out += ',';
    out += '"';
    append_json_escaped(out, c.name);
    std::snprintf(buf, sizeof buf, "\":%llu",
                  static_cast<unsigned long long>(c.value));
    out += buf;
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const MetricsSnapshot::GaugeValue& g : snap.gauges) {
    if (!first) out += ',';
    out += '"';
    append_json_escaped(out, g.name);
    std::snprintf(buf, sizeof buf, "\":%lld", static_cast<long long>(g.value));
    out += buf;
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const MetricsSnapshot::HistogramValue& h : snap.histograms) {
    const HistSummary s = summarize(h.hist);
    if (!first) out += ',';
    out += '"';
    append_json_escaped(out, h.name);
    out += "\":{";
    std::snprintf(buf, sizeof buf, "\"count\":%llu",
                  static_cast<unsigned long long>(s.count));
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"mean_us\":%.6g",
                  s.count ? s.sum_us / static_cast<double>(s.count) : 0.0);
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"p50_us\":%llu",
                  static_cast<unsigned long long>(s.p50));
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"p99_us\":%llu",
                  static_cast<unsigned long long>(s.p99));
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"max_us\":%llu}",
                  static_cast<unsigned long long>(s.max));
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

bool write_text_file(const std::string& path, const std::string& body) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return n == body.size();
}

}  // namespace kdd::obs
