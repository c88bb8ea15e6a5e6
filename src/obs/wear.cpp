#include "obs/wear.hpp"

#include <cstdio>

#include "common/check.hpp"

namespace kdd::obs {

WearSeries::WearSeries(std::string t_unit) : t_unit_(std::move(t_unit)) {}

void WearSeries::set_kind_names(std::vector<std::string> names) {
  KDD_CHECK(names.size() <= kMaxWriteKinds);
  kind_names_ = std::move(names);
}

namespace {

void append_kv_u64(std::string& out, const char* key, std::uint64_t v,
                   bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s\"%s\":%llu", *first ? "" : ",", key,
                static_cast<unsigned long long>(v));
  out += buf;
  *first = false;
}

void append_kv_f64(std::string& out, const char* key, double v, bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s\"%s\":%.6g", *first ? "" : ",", key, v);
  out += buf;
  *first = false;
}

}  // namespace

std::string WearSeries::jsonl_line(const WearSample& s) const {
  std::string out = "{";
  bool first = true;
  append_kv_f64(out, "t", s.t, &first);
  append_kv_u64(out, "ops", s.ops, &first);
  for (std::size_t k = 0; k < kind_names_.size(); ++k) {
    const std::string key = "ssd_writes_" + kind_names_[k];
    char buf[128];
    std::snprintf(buf, sizeof buf, ",\"%s\":%llu", key.c_str(),
                  static_cast<unsigned long long>(s.ssd_writes_by_kind[k]));
    out += buf;
  }
  append_kv_u64(out, "ssd_reads", s.ssd_reads, &first);
  append_kv_u64(out, "disk_reads", s.disk_reads, &first);
  append_kv_u64(out, "disk_writes", s.disk_writes, &first);
  append_kv_u64(out, "cleanings", s.cleanings, &first);
  append_kv_u64(out, "groups_cleaned", s.groups_cleaned, &first);
  append_kv_u64(out, "log_gc_passes", s.log_gc_passes, &first);
  append_kv_u64(out, "media_errors", s.media_errors, &first);
  append_kv_u64(out, "transient_errors", s.transient_errors, &first);
  append_kv_u64(out, "corruptions", s.corruptions, &first);
  append_kv_u64(out, "media_fallbacks", s.media_fallbacks, &first);
  append_kv_u64(out, "groups_healed", s.groups_healed, &first);
  append_kv_u64(out, "read_repairs", s.read_repairs, &first);
  append_kv_u64(out, "dez_pages", s.dez_pages, &first);
  append_kv_u64(out, "old_pages", s.old_pages, &first);
  append_kv_u64(out, "stale_groups", s.stale_groups, &first);
  append_kv_u64(out, "staged_deltas", s.staged_deltas, &first);
  append_kv_u64(out, "log_used_pages", s.log_used_pages, &first);
  append_kv_u64(out, "dez_live_bytes", s.dez_live_bytes, &first);
  append_kv_u64(out, "dez_dead_bytes", s.dez_dead_bytes, &first);
  append_kv_f64(out, "write_amplification", s.write_amplification, &first);
  append_kv_f64(out, "endurance_consumed", s.endurance_consumed, &first);
  append_kv_f64(out, "mean_latency_us", s.mean_latency_us, &first);
  append_kv_u64(out, "max_latency_us", s.max_latency_us, &first);
  out += "}";
  return out;
}

std::string WearSeries::to_jsonl() const {
  std::string out = "{\"schema\":\"";
  out += kSchema;
  out += "\",\"t_unit\":\"" + t_unit_ + "\",\"buckets\":";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%zu", samples_.size());
  out += buf;
  out += ",\"write_kinds\":[";
  for (std::size_t k = 0; k < kind_names_.size(); ++k) {
    if (k) out += ",";
    out += "\"" + kind_names_[k] + "\"";
  }
  out += "]}\n";
  for (const WearSample& s : samples_) {
    out += jsonl_line(s);
    out += "\n";
  }
  return out;
}

bool WearSeries::write_jsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = to_jsonl();
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return n == body.size();
}

}  // namespace kdd::obs
