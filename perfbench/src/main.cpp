// netcl_e2e: the repository's end-to-end benchmark.
//
//   netcl_e2e --workload calc_min|agg_allreduce|cache_zipf_rw --seed N
//             --seconds S --trace 0|1 [--trace-out spans.json]
//
// One process runs an in-process netcl-swd (net::SwdServer on its own
// thread), loads the workload's kernel at runtime over the control plane,
// and drives it from one busy-polling load thread through
// runtime::HostRuntime over net::UdpTransport on loopback. Every workload
// is closed-loop. Every answer is checked; a wrong one fails the run.
//
// --trace 0 times the closed loop and prints the end-to-end metrics.
// --trace 1 runs an untraced half, a traced half (spans around the
// benchmark's calls into each layer plus INT stamping), and a replay of
// the workload's own packets through the daemon's per-packet functions,
// and prints the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>

#include "common.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRuns = 5;          // setup_s is the median of these
constexpr double kDeadlineSeconds = 150.0;
constexpr std::uint64_t kIntervalNs = 1'000'000'000ULL;
constexpr std::uint64_t kDrainNs = 2'000'000'000ULL;
constexpr std::uint64_t kSettleNs = 1'000'000'000ULL;
constexpr std::uint64_t kWarmupDeadlineNs = 10'000'000'000ULL;

struct Args {
  std::string workload;
  RunOptions run;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "netcl_e2e: %s\nusage: netcl_e2e --workload calc_min|agg_allreduce|"
               "cache_zipf_rw --seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.run.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.run.seconds < 1.0 || args.run.seconds > 60.0) {
        usage("--seconds takes a number from 1 to 60");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.run.traced = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.run.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_trace) usage("--workload and --trace are required");
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "calc_min") return make_calc_workload();
  if (name == "agg_allreduce") return make_agg_workload();
  if (name == "cache_zipf_rw") return make_cache_workload();
  usage(("unknown workload " + name).c_str());
}

/// Ends the process if the run outlives its wall-clock budget (a hang in
/// any layer must not outlive the caller's timeout).
class Watchdog {
 public:
  Watchdog(std::string workload, double seconds) : workload_(std::move(workload)) {
    thread_ = std::thread([this, seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
      if (!done_cv_.wait_until(lock, deadline, [this] { return done_; })) {
        std::fprintf(stderr, "netcl_e2e: %s: deadline of %.0f s exceeded in phase %s\n",
                     workload_.c_str(), seconds, phase_name(current_phase()));
        std::fflush(stderr);
        std::_Exit(3);
      }
    });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::string workload_;
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Runs the closed loop until `stop` says so, with the phase's deadline.
void pump_until(Workload& w, Phase phase, std::uint64_t deadline,
                const std::function<bool()>& stop) {
  while (!stop()) {
    w.pump();
    w.stats().tick(now_ns());
    if (now_ns() > deadline) fail(phase, "closed loop did not finish in time");
  }
}

/// Warm-up: enough verified operations that sockets, pools and the
/// kernel's state are in their steady shape before anything is timed.
void warm_up(Workload& w, std::uint64_t ops) {
  set_phase(Phase::kWarmup);
  w.set_issue_phase(0);
  w.set_issuing(true);
  const std::uint64_t deadline = now_ns() + kWarmupDeadlineNs;
  pump_until(w, Phase::kWarmup, deadline, [&] { return w.stats().completed_total() >= ops; });
}

struct Window {
  LoadStats::Summary summary;
  DaemonSnapshot start;
  DaemonSnapshot end;
  Workload::HostCounters hosts_start;
  Workload::HostCounters hosts_end;
};

/// One measured window of the closed loop, bracketed by daemon snapshots.
Window timed_window(Workload& w, Phase phase, int issue_phase, double seconds) {
  set_phase(phase);
  Window window;
  w.set_issue_phase(issue_phase);
  window.hosts_start = w.host_counters();
  window.start = w.daemon().snapshot(phase);
  const std::uint64_t begin = now_ns();
  const auto length = static_cast<std::uint64_t>(seconds * 1e9);
  w.stats().begin_window(begin, std::min(kIntervalNs, length));
  pump_until(w, phase, begin + length + kIntervalNs,
             [&] { return now_ns() >= begin + length; });
  w.stats().end_window(now_ns());
  window.end = w.daemon().snapshot(phase);
  if (window.end.shed != window.start.shed) {
    // No workload has more than 64 packets in flight: far below the
    // ingress queue's 1024 and the cache tenant's policer rate.
    fail(phase, "the daemon shed " + std::to_string(window.end.shed - window.start.shed) +
                    " packets (policer or ingress queue)");
  }
  window.hosts_end = w.host_counters();
  window.summary = w.stats().summary();
  std::fprintf(stderr, "netcl_e2e: %s window, ops/s per interval: %s\n", phase_name(phase),
               w.stats().interval_rates().c_str());
  return window;
}

/// Runs the closed loop untimed for kSettleNs after any side thread has
/// started, so the first measured interval does not start cold.
void settle(Workload& w) {
  w.set_issue_phase(0);
  const std::uint64_t end = now_ns() + kSettleNs;
  pump_until(w, Phase::kWarmup, end + kSettleNs, [end] { return now_ns() >= end; });
}

/// Stops issuing and waits (bounded) for in-flight requests; whatever is
/// still missing afterwards counts as failed.
void drain(Workload& w) {
  w.set_issuing(false);
  const std::uint64_t deadline = now_ns() + kDrainNs;
  while (w.outstanding() > 0 && now_ns() < deadline) w.pump();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Every answer was checked on the way (a wrong one ends the run before
/// this point), so the result line always reports correct = true.
void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Sets up kSetupRuns times (timing each) and keeps the last setup.
std::unique_ptr<Workload> set_up(const std::string& name, std::uint64_t seed,
                                 std::uint64_t warmup_ops, double& setup_s) {
  std::vector<double> times;
  std::unique_ptr<Workload> w;
  for (int run = 0; run < kSetupRuns; ++run) {
    w = make_workload(name);  // destroying the previous one stops its daemon
    const std::uint64_t start = now_ns();
    w->setup(seed);
    warm_up(*w, warmup_ops);
    times.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  setup_s = median_of(times);
  std::string list;
  for (const double t : times) list += std::to_string(t) + " ";
  std::fprintf(stderr, "netcl_e2e: set-up times (s): %s\n", list.c_str());
  return w;
}

Outcome run_untraced(Workload& w, const RunOptions& options, double setup_s) {
  w.start_side_threads();
  settle(w);
  const Window window = timed_window(w, Phase::kTimed, 1, options.seconds);
  drain(w);
  w.stop_side_threads();
  Outcome outcome;
  outcome.attempted = w.stats().issued(1);
  outcome.failed = outcome.attempted - std::min(outcome.attempted, w.stats().completed(1));
  outcome.metrics = {
      {"ops_per_s", window.summary.ops_per_s, "ops/s"},
      {"rtt_p50_us", window.summary.rtt_p50_us, "us"},
      {"rtt_p99_us", window.summary.rtt_p99_us, "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  std::fprintf(stderr, "netcl_e2e: %llu RTT samples over %.2f s; fail_frac %.6f\n",
               static_cast<unsigned long long>(window.summary.samples), window.summary.seconds,
               per(static_cast<double>(outcome.failed), static_cast<double>(outcome.attempted)));
  return outcome;
}

/// Sums over one kind of window (untraced or traced) of the traced run.
struct Tally {
  double ops = 0, cpu_ns = 0, wall_ns = 0, rx = 0, tx = 0, executed = 0;
  double rx_syscalls = 0, tx_syscalls = 0, allocs = 0, host_sent = 0, host_tx_syscalls = 0;
  std::vector<double> rates;  // ops/s of each window

  void add(const Window& w) {
    ops += static_cast<double>(w.summary.ops);
    cpu_ns += static_cast<double>(w.end.cpu_ns - w.start.cpu_ns);
    wall_ns += static_cast<double>(w.end.wall_ns - w.start.wall_ns);
    rx += static_cast<double>(w.end.rx_packets - w.start.rx_packets);
    tx += static_cast<double>(w.end.tx_packets - w.start.tx_packets);
    executed += static_cast<double>(w.end.executed - w.start.executed);
    rx_syscalls += static_cast<double>(w.end.rx_syscalls - w.start.rx_syscalls);
    tx_syscalls += static_cast<double>(w.end.tx_syscalls - w.start.tx_syscalls);
    allocs += static_cast<double>(w.end.allocs - w.start.allocs);
    host_sent += static_cast<double>(w.hosts_end.sent - w.hosts_start.sent);
    host_tx_syscalls += static_cast<double>(w.hosts_end.tx_syscalls - w.hosts_start.tx_syscalls);
    rates.push_back(w.summary.ops_per_s);
  }
};

Outcome run_traced(Workload& w, const RunOptions& options, std::uint64_t seed) {
  // One-second windows alternate untraced / traced, so both kinds see the
  // same machine conditions and traced ÷ untraced is a paired ratio. The
  // daemon's CPU, syscall and allocation ratios come from the untraced
  // windows; spans and INT stamps from the traced ones.
  const int windows = std::max(2, static_cast<int>(options.seconds));
  obs::Tracer tracer;
  obs::MetricsRegistry int_metrics("perfbench.int");
  obs::SpanCollector collector(tracer, int_metrics);
  w.start_side_threads();
  settle(w);
  w.reset_host_histograms();
  Tally plain;
  Tally traced;
  DaemonSnapshot first;
  DaemonSnapshot last;
  for (int i = 0; i < windows; ++i) {
    const bool on = i % 2 == 1;
    w.enable_telemetry(on ? &collector : nullptr);
    w.spans().set_enabled(on);
    const Window window = timed_window(w, Phase::kTraced, on ? 2 : 1, 1.0);
    if (i == 0) first = window.start;
    last = window.end;
    (on ? traced : plain).add(window);
  }
  w.spans().set_enabled(false);
  w.enable_telemetry(nullptr);
  drain(w);
  w.stop_side_threads();
  const Workload::HostCounters hosts = w.host_counters();
  if (!options.trace_out.empty() && !w.spans().write_chrome_trace(options.trace_out)) {
    fail(Phase::kTraced, "cannot write " + options.trace_out);
  }

  // Replay the workload's own packets through the per-packet functions.
  const auto sample = w.replay_sample(seed);
  const auto device = w.replay_device(seed);
  const ReplayCosts cost = replay(*device, sample);

  const double ops = plain.ops;
  const double cpu_us_per_op = per(plain.cpu_ns * 1e-3, ops);
  const double replay_us_per_op =
      (per(plain.rx, ops) * cost.parse_ns + per(plain.tx, ops) * cost.serialize_ns +
       per(plain.executed, ops) * (cost.decode_ns + cost.execute_ns + cost.encode_ns)) *
      1e-3;
  const double shed = static_cast<double>(last.shed - first.shed);
  const double received = static_cast<double>(last.rx_packets - first.rx_packets);
  const Spans& spans = w.spans();
  const auto span_us = [&spans](Spans::Kind kind) {
    return static_cast<double>(spans.total_ns(kind)) * 1e-3;
  };

  Outcome outcome;
  outcome.attempted = w.stats().issued(1) + w.stats().issued(2);
  const std::uint64_t completed = w.stats().completed(1) + w.stats().completed(2);
  outcome.failed = outcome.attempted - std::min(outcome.attempted, completed);

  std::vector<Metric>& m = outcome.metrics;
  m = {
      {"swd.cpu_us_per_op", cpu_us_per_op, "us"},
      {"swd.busy_frac", per(plain.cpu_ns, plain.wall_ns), "ratio"},
      {"swd.other_us_per_op", cpu_us_per_op - replay_us_per_op, "us"},
      {"swd.rx_syscalls_per_pkt", per(plain.rx_syscalls, plain.rx), "ratio"},
      {"swd.tx_syscalls_per_pkt", per(plain.tx_syscalls, plain.tx), "ratio"},
      {"swd.shed_frac", per(shed, received), "ratio"},
      {"swd.allocs_per_op", per(plain.allocs, ops), "count"},
      {"swd.hop_us_p50", int_metrics.histogram("int_hop_latency_ns").quantile(0.50) * 1e-3,
       "us"},
      {"swd.hop_us_p99", int_metrics.histogram("int_hop_latency_ns").quantile(0.99) * 1e-3,
       "us"},
      {"swd.queue_depth_p99", int_metrics.histogram("int_queue_depth").quantile(0.99),
       "count"},
      {"wire.parse_ns", cost.parse_ns, "ns"},
      {"wire.serialize_ns", cost.serialize_ns, "ns"},
      {"args.decode_ns", cost.decode_ns, "ns"},
      {"args.encode_ns", cost.encode_ns, "ns"},
      {"step.execute_ns", cost.execute_ns, "ns"},
      {"step.allocs_per_pkt", cost.allocs_per_pkt, "count"},
      {"step.stage_ops_per_pkt", cost.stage_ops_per_pkt, "count"},
      {"host.send_us", per(span_us(Spans::kSend), traced.host_sent), "us"},
      {"host.poll_self_us_per_op",
       per(span_us(Spans::kPoll) - span_us(Spans::kReceive), traced.ops), "us"},
      {"host.recv_cb_us_per_op", per(span_us(Spans::kReceive), traced.ops), "us"},
      {"host.pack_ns_p50", hosts.pack_ns_p50, "ns"},
      {"host.unpack_ns_p50", hosts.unpack_ns_p50, "ns"},
      {"host.tx_syscalls_per_pkt", per(plain.host_tx_syscalls, plain.host_sent), "ratio"},
      {"host.stale_round_trips", static_cast<double>(hosts.stale_round_trips), "count"},
      {"trace.ops_ratio", per(median_of(traced.rates), median_of(plain.rates)), "ratio"},
  };
  // Workload-specific layers; zero where the workload does not use them.
  std::vector<Metric> specific = {
      {"agg.retx_per_op", 0.0, "ratio"},       {"agg.useful_frac", 0.0, "ratio"},
      {"cache.hit_frac", 0.0, "ratio"},        {"cache.hit_rtt_p50_us", 0.0, "us"},
      {"cache.miss_rtt_p50_us", 0.0, "us"},    {"control.op_us_p50", 0.0, "us"},
      {"control.op_us_p99", 0.0, "us"},
  };
  std::vector<Metric> mine;
  w.layer_metrics(mine);
  for (const Metric& metric : mine) {
    const auto it = std::find_if(specific.begin(), specific.end(),
                                 [&](const Metric& s) { return s.name == metric.name; });
    if (it == specific.end()) fail(Phase::kTraced, "unlisted metric " + metric.name);
    it->value = metric.value;
  }
  m.insert(m.end(), specific.begin(), specific.end());
  const SetupInfo& info = w.setup_info();
  m.push_back({"control.load_kernel_ms", info.load_kernel_ms, "ms"});
  m.push_back({"compile.ms", info.compile_ms, "ms"});
  m.push_back({"compile.frontend_ms", info.frontend_ms, "ms"});
  m.push_back({"compile.backend_ms", info.backend_ms, "ms"});
  if (hosts.stale_round_trips != 0) {
    fail(Phase::kTraced, "host.stale_round_trips is " +
                             std::to_string(hosts.stale_round_trips) + ", RTTs are biased");
  }
  return outcome;
}

std::uint64_t warmup_ops(const std::string& name) {
  return name == "agg_allreduce" ? 1000 : 4000;
}

int run(const Args& args) {
  Watchdog watchdog(args.workload, kDeadlineSeconds);
  std::unique_ptr<Workload> w;
  try {
    double setup_s = 0.0;
    w = set_up(args.workload, args.run.seed, warmup_ops(args.workload), setup_s);
    const Outcome outcome = args.run.traced ? run_traced(*w, args.run, args.run.seed)
                                            : run_untraced(*w, args.run, setup_s);
    w.reset();
    print_result(outcome.attempted, outcome.failed, outcome.metrics);
    return 0;
  } catch (const BenchError& e) {
    w.reset();
    std::fprintf(stderr, "netcl_e2e: %s: %s phase failed: %s\n", args.workload.c_str(),
                 phase_name(e.phase), e.what());
  } catch (const std::exception& e) {
    w.reset();
    std::fprintf(stderr, "netcl_e2e: %s: %s phase failed: %s\n", args.workload.c_str(),
                 phase_name(current_phase()), e.what());
  }
  return 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
