#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

#include "obs/json.hpp"

namespace netcl::obs {

// --- Histogram ---------------------------------------------------------------

int Histogram::bucket_for(double sample) {
  if (!(sample >= 1.0)) return 0;  // negatives, NaN, and [0,1) land in bucket 0
  if (sample >= std::ldexp(1.0, kBuckets - 1)) return kBuckets - 1;
  const int bucket = std::bit_width(static_cast<std::uint64_t>(sample)) - 1;
  return std::min(bucket, kBuckets - 1);
}

double Histogram::bucket_floor(int bucket) {
  return bucket <= 0 ? 0.0 : std::ldexp(1.0, bucket);
}

void Histogram::record(double sample) {
  if (std::isnan(sample)) return;
  if (sample < 0.0) sample = 0.0;
  buckets_[bucket_for(sample)].add(1);
  if (count_.load() == 0) {
    min_.store(sample);
    max_.store(sample);
  } else {
    min_.store(std::min(min_.load(), sample));
    max_.store(std::max(max_.load(), sample));
  }
  count_.add(1);
  sum_.add(sample);
}

void Histogram::merge(const Histogram& other) {
  const std::uint64_t count = other.count_.load();
  if (count == 0) return;
  for (int i = 0; i < kBuckets; ++i) buckets_[i].add(other.buckets_[i].load());
  if (count_.load() == 0) {
    min_.store(other.min_.load());
    max_.store(other.max_.load());
  } else {
    min_.store(std::min(min_.load(), other.min_.load()));
    max_.store(std::max(max_.load(), other.max_.load()));
  }
  count_.add(count);
  sum_.add(other.sum_.load());
}

void Histogram::reset() { *this = Histogram(); }

double Histogram::percentile(double p) const { return quantile(p / 100.0); }

double Histogram::quantile(double q) const {
  if (count() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count());
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t in_bucket = bucket_count(i);
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= rank) {
      const double lo = bucket_floor(i);
      const double hi = i + 1 >= kBuckets ? max() : bucket_floor(i + 1);
      const double fraction =
          std::clamp((rank - before) / static_cast<double>(in_bucket), 0.0, 1.0);
      return std::clamp(lo + fraction * (hi - lo), min(), max());
    }
  }
  return max();
}

void Histogram::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("count");
  w.value(count());
  w.key("sum");
  w.value(sum());
  w.key("min");
  w.value(min());
  w.key("max");
  w.value(max());
  w.key("mean");
  w.value(mean());
  w.key("p50");
  w.value(percentile(50));
  w.key("p90");
  w.value(percentile(90));
  w.key("p99");
  w.value(percentile(99));
  w.key("buckets");
  w.begin_object();
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t in_bucket = bucket_count(i);
    if (in_bucket == 0) continue;
    char label[32];
    std::snprintf(label, sizeof(label), "%.0f", bucket_floor(i));
    w.key(label);
    w.value(in_bucket);
  }
  w.end_object();
  w.end_object();
}

// --- registry bookkeeping ----------------------------------------------------

namespace {

struct GlobalState {
  std::mutex mutex;
  std::vector<MetricsRegistry*> live;
  /// Final values of destroyed registries, merged by registry name.
  std::map<std::string, RegistrySnapshot> retained;
};

GlobalState& state() {
  static GlobalState s;
  return s;
}

void merge_into(RegistrySnapshot& into, const MetricsRegistry& from) {
  for (const auto& [name, counter] : from.counters()) into.counters[name] += counter->value();
  for (const auto& [name, gauge] : from.gauges()) into.gauges[name] = gauge->value();
  for (const auto& [name, histogram] : from.histograms()) {
    into.histograms[name].merge(*histogram);
  }
}

/// retained + everything still live, merged by name. Caller holds s.mutex.
std::map<std::string, RegistrySnapshot> merged_snapshot(GlobalState& s) {
  std::map<std::string, RegistrySnapshot> merged = s.retained;
  for (const MetricsRegistry* live : s.live) merge_into(merged[live->name()], *live);
  return merged;
}

void write_registry_json(JsonWriter& w, const RegistrySnapshot& r) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : r.counters) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : r.gauges) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, histogram] : r.histograms) {
    w.key(name);
    histogram.write_json(w);
  }
  w.end_object();
  w.end_object();
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const auto uc = static_cast<unsigned char>(c);
    if (uc < 0x21 || uc > 0x7e) return false;  // space, control, non-ASCII
    switch (c) {
      case '{':
      case '}':
      case '"':
      case '\\':
        return false;
      default:
        break;
    }
  }
  return true;
}

std::string sanitize_metric_name(std::string_view name) {
  if (name.empty()) return "_";
  std::string out(name);
  for (char& c : out) {
    const auto uc = static_cast<unsigned char>(c);
    if (uc < 0x21 || uc > 0x7e || c == '{' || c == '}' || c == '"' || c == '\\') c = '_';
  }
  return out;
}

MetricsRegistry::MetricsRegistry(std::string name) : name_(std::move(name)) {
  GlobalState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.live.push_back(this);
}

MetricsRegistry::~MetricsRegistry() {
  GlobalState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  merge_into(s.retained[name_], *this);
  std::erase(s.live, this);
}

namespace {

/// Find-or-create under the lock every snapshot takes, inserting only a
/// filled slot, so a concurrent scrape never walks a map mid-insert or
/// sees an empty entry. Cold: callers keep the returned reference.
template <typename Metric>
Metric& find_or_create(std::map<std::string, std::unique_ptr<Metric>>& metrics,
                       const std::string& metric) {
  std::string name = valid_metric_name(metric) ? metric : sanitize_metric_name(metric);
  const std::lock_guard<std::mutex> lock(state().mutex);
  auto it = metrics.find(name);
  if (it == metrics.end()) it = metrics.emplace(std::move(name), std::make_unique<Metric>()).first;
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& metric) {
  return find_or_create(counters_, metric);
}

Gauge& MetricsRegistry::gauge(const std::string& metric) { return find_or_create(gauges_, metric); }

Histogram& MetricsRegistry::histogram(const std::string& metric) {
  return find_or_create(histograms_, metric);
}

void MetricsRegistry::reset() {
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

MetricsRegistry& registry() {
  // Constructed after state() so it is destroyed (and retained) before the
  // global bookkeeping goes away.
  (void)state();
  static MetricsRegistry global("global");
  return global;
}

std::map<std::string, RegistrySnapshot> snapshot_all() {
  GlobalState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return merged_snapshot(s);
}

std::string dump_string(const std::map<std::string, std::string>& meta) {
  std::map<std::string, RegistrySnapshot> merged;
  {
    GlobalState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    merged = merged_snapshot(s);
  }

  JsonWriter w;
  w.begin_object();
  w.key("netcl_obs_version");
  w.value(1);
  if (!meta.empty()) {
    w.key("meta");
    w.begin_object();
    for (const auto& [key, value] : meta) {
      w.key(key);
      w.value(value);
    }
    w.end_object();
  }
  w.key("registries");
  w.begin_object();
  for (const auto& [name, r] : merged) {
    w.key(name);
    write_registry_json(w, r);
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

bool dump(const std::string& path, const std::map<std::string, std::string>& meta) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << dump_string(meta) << "\n";
  return file.good();
}

void reset_all() {
  GlobalState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.retained.clear();
  for (MetricsRegistry* live : s.live) live->reset();
}

}  // namespace netcl::obs
