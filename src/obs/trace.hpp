// netcl::obs tracing: RAII spans serialized to the Chrome trace-event
// format (load the output in chrome://tracing or https://ui.perfetto.dev).
//
// The tracer is disabled by default and compiled for near-zero overhead in
// that state: TraceSpan's constructor reads one bool; no clock is touched,
// no string is copied, and nothing allocates until a span actually records.
// ncc --trace-out <file> and tests enable it explicitly.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netcl::obs {

/// One completed ("ph":"X") trace event, or with `instant` set a
/// thread-scoped instant ("ph":"i", no duration), in microseconds since the
/// tracer's epoch (the unit Chrome's trace format expects). pid/tid group
/// events into trace-viewer process/thread lanes — cross-process telemetry
/// spans (ISSUE 4) use one pid per host and per device so a merged trace
/// shows every participant side by side.
struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;
  double dur_us = 0.0;
  bool instant = false;
  int pid = 1;
  int tid = 1;
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Microseconds since this tracer was constructed (or last cleared).
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void record_complete(TraceEvent event) { events_.push_back(std::move(event)); }

  /// Names a pid lane ("host 1", "device 3"): emitted as process_name
  /// metadata events so chrome://tracing labels the lanes.
  void set_process_name(int pid, std::string name) { process_names_[pid] = std::move(name); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  void clear();

  /// {"displayTimeUnit":"ns","traceEvents":[...]} — the Chrome/Perfetto
  /// trace-event JSON object form.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Writes to_chrome_json() to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<TraceEvent> events_;
  std::map<int, std::string> process_names_;
};

/// The process-wide tracer the compiler and runtime instrument against.
Tracer& tracer();

/// RAII scope: records one complete event from construction to
/// destruction. On a disabled tracer every member is a no-op.
class TraceSpan {
 public:
  TraceSpan(Tracer& tracer, std::string_view category, std::string_view name)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      event_.category = category;
      event_.name = name;
      event_.ts_us = tracer_->now_us();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (tracer_ != nullptr) {
      event_.dur_us = tracer_->now_us() - event_.ts_us;
      tracer_->record_complete(std::move(event_));
    }
  }

  /// Attaches a key/value argument shown in the trace viewer.
  void arg(std::string_view key, std::string value) {
    if (tracer_ != nullptr) event_.args.emplace_back(std::string(key), std::move(value));
  }
  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  TraceEvent event_;
};

}  // namespace netcl::obs
