#include "obs/trace.hpp"

#include <fstream>

#include "obs/json.hpp"

namespace netcl::obs {

void Tracer::clear() {
  events_.clear();
  process_names_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

std::string Tracer::to_chrome_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ns");
  w.key("traceEvents");
  w.begin_array();
  for (const auto& [pid, name] : process_names_) {
    w.begin_object();
    w.key("name");
    w.value("process_name");
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(pid);
    w.key("tid");
    w.value(1);
    w.key("args");
    w.begin_object();
    w.key("name");
    w.value(name);
    w.end_object();
    w.end_object();
  }
  for (const TraceEvent& event : events_) {
    w.begin_object();
    w.key("name");
    w.value(event.name);
    w.key("cat");
    w.value(event.category);
    w.key("ph");
    w.value(event.instant ? "i" : "X");
    if (event.instant) {
      w.key("s");
      w.value("t");
    }
    w.key("ts");
    w.value(event.ts_us);
    if (!event.instant) {
      w.key("dur");
      w.value(event.dur_us);
    }
    w.key("pid");
    w.value(event.pid);
    w.key("tid");
    w.value(event.tid);
    if (!event.args.empty()) {
      w.key("args");
      w.begin_object();
      for (const auto& [key, value] : event.args) {
        w.key(key);
        w.value(value);
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << to_chrome_json() << "\n";
  return file.good();
}

Tracer& tracer() {
  static Tracer global;
  return global;
}

}  // namespace netcl::obs
