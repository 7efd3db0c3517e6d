#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "net/wire.hpp"

namespace perfbench {

namespace {
std::atomic<int> g_phase{static_cast<int>(Phase::kCompile)};
}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kCompile: return "compile";
    case Phase::kLoad: return "load";
    case Phase::kSeed: return "seed";
    case Phase::kWarmup: return "warm-up";
    case Phase::kTimed: return "timed";
    case Phase::kTraced: return "traced";
  }
  return "unknown";
}

void set_phase(Phase phase) { g_phase.store(static_cast<int>(phase), std::memory_order_relaxed); }
Phase current_phase() { return static_cast<Phase>(g_phase.load(std::memory_order_relaxed)); }

void fail(Phase phase, const std::string& what) { throw BenchError(phase, what); }

void check(Phase phase, const runtime::Error& err, const std::string& what) {
  if (err) fail(phase, what + ": " + err.to_string());
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// --- Daemon ------------------------------------------------------------------

Daemon::Daemon(const net::SwdOptions& options)
    : server_(std::make_unique<sim::SwitchDevice>(1), options) {
  if (!server_.valid()) fail(Phase::kLoad, "netcl-swd did not start: " + server_.error());
  thread_ = std::thread([this] { serve(); });
}

Daemon::~Daemon() { stop_and_join(); }

void Daemon::stop_and_join() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void Daemon::serve() {
  try {
    std::uint64_t seen = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      server_.poll_once(1);
      const std::uint64_t wanted = requested_.load(std::memory_order_acquire);
      if (wanted == seen) continue;
      seen = wanted;
      snap_.wall_ns = now_ns();
      snap_.cpu_ns = thread_cpu_ns();
      snap_.allocs = thread_allocs();
      snap_.rx_packets = server_.packets_received.value();
      snap_.tx_packets = server_.packets_sent.value();
      snap_.rx_syscalls = server_.recv_syscalls.value();
      snap_.tx_syscalls = server_.send_syscalls.value();
      snap_.shed = server_.packets_shed_policer.value() + server_.packets_shed_queue.value();
      snap_.executed = server_.device().stats.kernels_executed;
      answered_.store(wanted, std::memory_order_release);
    }
  } catch (const std::exception& e) {
    failure_ = e.what();
    failed_.store(true, std::memory_order_release);
  }
}

DaemonSnapshot Daemon::snapshot(Phase phase) {
  const std::uint64_t wanted = requested_.load(std::memory_order_relaxed) + 1;
  requested_.store(wanted, std::memory_order_release);
  const std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
  while (answered_.load(std::memory_order_acquire) < wanted) {
    if (failed_.load(std::memory_order_acquire)) fail(phase, "daemon thread: " + failure_);
    if (now_ns() > deadline) fail(phase, "daemon did not answer a snapshot within 5 s");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return snap_;
}

// --- LoadStats ---------------------------------------------------------------

double quantile(std::vector<std::uint32_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

void LoadStats::on_complete(int issue_phase) {
  ++completed_[issue_phase];
  ++completed_total_;
  if (!recording_) return;
  ++interval_ops_;
  ++window_ops_;
}

void LoadStats::begin_window(std::uint64_t now, std::uint64_t interval_ns) {
  recording_ = true;
  interval_ns_ = interval_ns;
  window_start_ = now;
  window_end_ = now;
  window_ops_ = 0;
  interval_start_ = now;
  interval_end_ = now + interval_ns;
  interval_ops_ = 0;
  samples_.clear();
  // Room for a busy interval up front, so peak RSS does not jump with
  // where the run's sample count falls against vector doubling.
  samples_.reserve(kSamplesReserved);
  intervals_.clear();
}

void LoadStats::close_interval(std::uint64_t now) {
  Interval interval;
  interval.seconds = static_cast<double>(now - interval_start_) * 1e-9;
  interval.ops = interval_ops_;
  interval.samples = samples_.size();
  interval.p50_ns = quantile(samples_, 0.50);
  interval.p99_ns = quantile(samples_, 0.99);
  intervals_.push_back(interval);
  samples_.clear();
  interval_ops_ = 0;
  interval_start_ = now;
  interval_end_ = now + interval_ns_;
}

void LoadStats::end_window(std::uint64_t now) {
  // A trailing sliver shorter than half an interval is too short to stand
  // beside the others; its operations still count in the window totals.
  if (now - interval_start_ >= interval_ns_ / 2) close_interval(now);
  window_end_ = now;
  recording_ = false;
}

LoadStats::Summary LoadStats::summary() const {
  Summary s;
  s.ops = window_ops_;
  s.seconds = static_cast<double>(window_end_ - window_start_) * 1e-9;
  if (intervals_.empty()) return s;
  // The value at quantile q of one field over the intervals (linear
  // interpolation between order statistics).
  auto over_intervals = [this](double q, auto field) {
    std::vector<double> values;
    for (const Interval& interval : intervals_) values.push_back(field(interval));
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
  };
  s.ops_per_s = over_intervals(
      kWorseDecile, [](const Interval& i) { return static_cast<double>(i.ops) / i.seconds; });
  s.rtt_p50_us =
      over_intervals(1.0 - kWorseDecile, [](const Interval& i) { return i.p50_ns; }) * 1e-3;
  // The tail is already a tail within each interval; its worse decile would
  // follow the few seconds a host stall hits, so the p99 reported is the
  // median interval's.
  s.rtt_p99_us = over_intervals(0.5, [](const Interval& i) { return i.p99_ns; }) * 1e-3;
  for (const Interval& interval : intervals_) s.samples += interval.samples;
  return s;
}

std::string LoadStats::interval_rates() const {
  std::string out;
  for (const Interval& interval : intervals_) {
    const double rate = static_cast<double>(interval.ops) / interval.seconds;
    out += std::to_string(static_cast<long long>(rate));
    out += ' ';
  }
  return out;
}

// --- Spans -------------------------------------------------------------------

std::int64_t Spans::open(Kind kind, std::uint64_t start, std::int64_t parent) {
  if (!enabled_) return -1;
  if (kept_.size() >= kMaxKept) return kNotKept;
  kept_.push_back({kind, start, start, parent});
  return static_cast<std::int64_t>(kept_.size() - 1);
}

void Spans::close(std::int64_t id, Kind kind, std::uint64_t start, std::uint64_t end) {
  if (id == -1) return;
  total_ns_[kind] += end - start;
  if (id >= 0) kept_[static_cast<std::size_t>(id)].end = end;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  static const char* const kNames[kKinds] = {"HostRuntime::send", "UdpTransport::poll_once",
                                             "receive callback"};
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t base = kept_.empty() ? 0 : kept_.front().start;
  out << "[\n";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}%s\n",
                  kNames[s.kind],
                  static_cast<double>(s.start - base) * 1e-3,
                  static_cast<double>(s.end - s.start) * 1e-3, i,
                  static_cast<long long>(s.parent), i + 1 < kept_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// --- replay ------------------------------------------------------------------

ReplayCosts replay(sim::SwitchDevice& device,
                   const std::vector<std::vector<std::uint8_t>>& wire) {
  constexpr int kPasses = 5;
  // The daemon handles a receive burst of up to 32 datagrams at a time;
  // replaying in bursts of the same size keeps each packet's arguments as
  // warm in cache as they are there.
  constexpr std::size_t kBurst = 32;
  enum Stage { kParse, kDecode, kExecute, kEncode, kSerialize, kStages };
  const std::size_t n = wire.size();
  std::vector<sim::Packet> packets(kBurst);
  std::vector<sim::ArgValues> args(kBurst);
  std::vector<std::vector<std::uint8_t>> out(kBurst);
  std::vector<double> per_pass[kStages];
  ReplayCosts costs;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::uint64_t stage_ns[kStages] = {};
    std::uint64_t allocs = 0;
    std::uint64_t stage_ops = 0;
    for (std::size_t first = 0; first < n; first += kBurst) {
      const std::size_t burst = std::min(kBurst, n - first);
      std::uint64_t t = now_ns();
      auto lap = [&](Stage stage) {
        const std::uint64_t now = now_ns();
        stage_ns[stage] += now - t;
        t = now;
      };
      for (std::size_t i = 0; i < burst; ++i) {
        check(Phase::kTraced, net::deserialize_packet_e(wire[first + i], packets[i]),
              "replay parse");
      }
      lap(kParse);
      for (std::size_t i = 0; i < burst; ++i) {
        const KernelSpec* spec = device.spec_for(packets[i].netcl.comp);
        if (spec == nullptr) fail(Phase::kTraced, "replay: no kernel for a sampled packet");
        args[i] = sim::decode_args(*spec, packets[i].payload);
      }
      lap(kDecode);
      const std::uint64_t allocs_before = thread_allocs();
      for (std::size_t i = 0; i < burst; ++i) {
        stage_ops += device.execute(packets[i].netcl.comp, args[i], packets[i].netcl).stage_ops;
      }
      allocs += thread_allocs() - allocs_before;
      lap(kExecute);
      for (std::size_t i = 0; i < burst; ++i) {
        packets[i].payload = sim::encode_args(*device.spec_for(packets[i].netcl.comp), args[i]);
        packets[i].netcl.len = static_cast<std::uint16_t>(packets[i].payload.size());
      }
      lap(kEncode);
      for (std::size_t i = 0; i < burst; ++i) net::serialize_packet(packets[i], out[i]);
      lap(kSerialize);
    }
    for (int stage = 0; stage < kStages; ++stage) {
      per_pass[stage].push_back(static_cast<double>(stage_ns[stage]) / static_cast<double>(n));
    }
    if (pass == 1) {
      costs.allocs_per_pkt = static_cast<double>(allocs) / static_cast<double>(n);
      costs.stage_ops_per_pkt = static_cast<double>(stage_ops) / static_cast<double>(n);
    }
  }
  auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  costs.parse_ns = median(per_pass[kParse]);
  costs.decode_ns = median(per_pass[kDecode]);
  costs.execute_ns = median(per_pass[kExecute]);
  costs.encode_ns = median(per_pass[kEncode]);
  costs.serialize_ns = median(per_pass[kSerialize]);
  return costs;
}

// --- setup helpers -----------------------------------------------------------

std::map<std::string, std::uint64_t> app_defines(const apps::AppSource& app) {
  return {app.defines.begin(), app.defines.end()};
}

driver::CompileResult compile_app(const apps::AppSource& app, SetupInfo& info) {
  set_phase(Phase::kCompile);
  driver::CompileOptions options;
  options.device_id = 1;
  options.defines = app.defines;
  const std::uint64_t start = now_ns();
  driver::CompileResult result = driver::compile_netcl(app.source, options);
  info.compile_ms = static_cast<double>(now_ns() - start) * 1e-6;
  if (!result.ok) fail(Phase::kCompile, app.name + ": " + result.errors);
  info.frontend_ms = result.frontend_seconds * 1e3;
  info.backend_ms = result.backend_seconds * 1e3;
  return result;
}

void load_kernel(runtime::DeviceConnection& control, const apps::AppSource& app,
                 SetupInfo& info) {
  set_phase(Phase::kLoad);
  const std::uint64_t start = now_ns();
  check(Phase::kLoad, control.load_kernel_e(1, app.name, app.source, app_defines(app)),
        "load_kernel_e " + app.name);
  info.load_kernel_ms = static_cast<double>(now_ns() - start) * 1e-6;
}

namespace {
net::UdpTransport::Options host_transport_options(std::uint16_t id, std::uint16_t daemon_port) {
  net::UdpTransport::Options options;
  options.peer_port = daemon_port;
  options.metrics_name = "perfbench.host" + std::to_string(id);
  return options;
}
}  // namespace

Host::Host(std::uint16_t id, std::uint16_t daemon_port, const KernelSpec& spec)
    : transport(host_transport_options(id, daemon_port)), runtime(transport, id) {
  if (!transport.valid()) fail(Phase::kLoad, "host socket: " + transport.error());
  runtime.register_spec(1, spec);
}

}  // namespace perfbench
