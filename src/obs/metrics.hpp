// netcl::obs metrics: named counters, gauges, and latency histograms.
//
// Design goals (ISSUE 1):
//  * lock-cheap — incrementing a Counter or recording into a Histogram is a
//    plain integer operation on a handle obtained once; the only locking
//    is around the process-wide registry list and each registry's name
//    maps, touched at registry construction/destruction, metric creation
//    and dump() time. Each value is one thread's to write and any
//    thread's to read (Relaxed), so a scrape never reads a torn value;
//  * survives teardown — a MetricsRegistry folds its final values into a
//    process-wide retained store when destroyed, so benches can run a
//    whole simulation (fabric + hosts scoped inside the run) and still
//    obs::dump() everything afterwards into a BENCH_*.json;
//  * ns-scale latency — Histogram uses power-of-two buckets spanning
//    sub-nanosecond to ~2^63 ns, fitting both the fabric's simulated-time
//    latencies and wall-clock pack/unpack costs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace netcl::obs {

class JsonWriter;

/// A metric value that its owning thread updates and any thread may read:
/// relaxed atomic loads and stores, which compile to plain moves. An
/// update is load-then-store, not a locked read-modify-write, so it costs
/// what a plain increment does; two threads updating one value may lose
/// an update.
template <typename T>
class Relaxed {
 public:
  Relaxed(T value = T{}) : value_(value) {}  // NOLINT(google-explicit-constructor)
  Relaxed(const Relaxed& other) : value_(other.load()) {}
  Relaxed& operator=(const Relaxed& other) {
    store(other.load());
    return *this;
  }
  [[nodiscard]] T load() const { return value_.load(std::memory_order_relaxed); }
  void store(T value) { value_.store(value, std::memory_order_relaxed); }
  void add(T delta) { store(load() + delta); }

 private:
  std::atomic<T> value_;
};

/// Monotonic event count. Implicitly converts to its value so existing
/// `stats.sent`-style reads keep working.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.add(n); }
  Counter& operator++() {
    value_.add(1);
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return value_.load(); }
  operator std::uint64_t() const { return value_.load(); }  // NOLINT(google-explicit-constructor)
  void reset() { value_.store(0); }

 private:
  Relaxed<std::uint64_t> value_;
};

/// Last-written value (e.g. stages used, occupancy percentages).
class Gauge {
 public:
  void set(double v) { value_.store(v); }
  [[nodiscard]] double value() const { return value_.load(); }
  void reset() { value_.store(0.0); }

 private:
  Relaxed<double> value_;
};

/// Power-of-two-bucketed histogram for non-negative samples (latencies in
/// ns). Bucket i counts samples in [2^i, 2^(i+1)); bucket 0 additionally
/// absorbs everything below 1. Exact count/sum/min/max are kept alongside
/// the buckets, so means are exact and only percentiles are interpolated.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket index for a sample (clamped to [0, kBuckets-1]).
  [[nodiscard]] static int bucket_for(double sample);
  /// Inclusive lower bound of bucket i (2^i; bucket 0 starts at 0).
  [[nodiscard]] static double bucket_floor(int bucket);

  void record(double sample);
  void merge(const Histogram& other);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_.load(); }
  [[nodiscard]] double sum() const { return sum_.load(); }
  [[nodiscard]] double min() const { return count() == 0 ? 0.0 : min_.load(); }
  [[nodiscard]] double max() const { return count() == 0 ? 0.0 : max_.load(); }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  [[nodiscard]] std::uint64_t bucket_count(int bucket) const { return buckets_[bucket].load(); }

  /// Quantile estimate (q in [0,1]): linear interpolation inside the
  /// power-of-two bucket holding the target rank, clamped to the observed
  /// [min, max]. The estimate is exact for ranks landing on bucket
  /// boundaries and otherwise off by at most one bucket width (≤ 2× in
  /// value) — unit-tested against exact distributions in
  /// tests/obs/test_obs.cpp. Consumers (ncl-top, the SLO engine) use this
  /// instead of reading bucket upper bounds.
  [[nodiscard]] double quantile(double q) const;

  /// percentile(p) == quantile(p / 100) for p in [0,100].
  [[nodiscard]] double percentile(double p) const;

  /// {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,
  ///  "p99":..,"buckets":{"<floor>":count,...}} (nonzero buckets only).
  void write_json(JsonWriter& w) const;

 private:
  Relaxed<std::uint64_t> buckets_[kBuckets] = {};
  Relaxed<std::uint64_t> count_;
  Relaxed<double> sum_;
  Relaxed<double> min_;
  Relaxed<double> max_;
};

/// Metric-name hygiene (ISSUE 4): names must stay embeddable in every
/// export format (JSON keys, Prometheus exposition, trace args), so
/// spaces, braces, quotes, backslashes, and control characters are
/// rejected at registration — the offending characters are replaced with
/// '_' and the metric lives under the sanitized name.
[[nodiscard]] bool valid_metric_name(std::string_view name);
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// A named bag of metrics. Registries register themselves in a process-wide
/// list on construction; on destruction their contents are folded into a
/// retained store under the registry name (counters/histograms merge
/// additively — two registries retiring the same counter name sum, never
/// clobber — and gauges keep the last value), so dump() sees completed
/// runs.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::string name);
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Finds or creates, under the lock that snapshots take, so another
  /// thread may scrape meanwhile. Returned references stay valid for the
  /// registry's lifetime (storage is node-based).
  Counter& counter(const std::string& metric);
  Gauge& gauge(const std::string& metric);
  Histogram& histogram(const std::string& metric);

  [[nodiscard]] const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

  void reset();

 private:
  std::string name_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide default registry (name "global").
MetricsRegistry& registry();

/// Merged (live + retained) values of one registry — the view dump() and
/// the Prometheus exposition (obs/prometheus.hpp) serialize.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
};

/// Snapshot of every registry by name, same-named registries (live or
/// retained) merged additively.
[[nodiscard]] std::map<std::string, RegistrySnapshot> snapshot_all();

/// JSON snapshot of every live registry plus the retained store:
/// {"netcl_obs_version":1,"registries":{name:{"counters":{...},
///  "gauges":{...},"histograms":{...}},...}}. Same-named registries
/// (live or retained) are merged additively. A non-empty `meta` map is
/// emitted as a "meta" object before "registries" — benches stamp git
/// SHA / timestamp / transport kind there (ISSUE 4).
[[nodiscard]] std::string dump_string(const std::map<std::string, std::string>& meta = {});

/// Writes dump_string(meta) to `path`. Returns false on I/O failure. This
/// is what benches call to emit BENCH_*.json.
bool dump(const std::string& path, const std::map<std::string, std::string>& meta = {});

/// Clears the retained store and resets every live registry — used by
/// tests and benches that need a clean slate between runs.
void reset_all();

}  // namespace netcl::obs
