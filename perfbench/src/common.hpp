// Shared machinery of the end-to-end benchmark: failure phases, clocks,
// the in-process daemon thread, the closed-loop load harness, and the
// result printer. Every layer is measured from outside: by timing calls
// into its public functions, reading its public counters, and reading the
// daemon thread's CPU clock. Nothing here reaches into src/.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/swd_server.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "net/udp_transport.hpp"
#include "runtime/host.hpp"

namespace perfbench {

using namespace netcl;

// --- failure reporting -------------------------------------------------------

/// Where a run is; a failure names it so a broken run says what broke.
enum class Phase { kCompile, kLoad, kSeed, kWarmup, kTimed, kTraced };
[[nodiscard]] const char* phase_name(Phase phase);

/// The phase the process is in, for the deadline watchdog's message.
void set_phase(Phase phase);
[[nodiscard]] Phase current_phase();

/// Thrown on any failure; main() prints it with the workload name and
/// exits non-zero after the daemon has been stopped and joined.
struct BenchError : std::runtime_error {
  BenchError(Phase p, const std::string& what) : std::runtime_error(what), phase(p) {}
  Phase phase;
};
[[noreturn]] void fail(Phase phase, const std::string& what);
/// Fails with the error's text unless it is ok.
void check(Phase phase, const runtime::Error& err, const std::string& what);

// --- clocks and counters -----------------------------------------------------

/// Steady-clock nanoseconds (the benchmark's one time base).
[[nodiscard]] std::uint64_t now_ns();
/// CPU time consumed so far by the calling thread.
[[nodiscard]] std::uint64_t thread_cpu_ns();
/// Heap allocations made so far by the calling thread (alloc_count.cpp).
[[nodiscard]] std::uint64_t thread_allocs();

// --- the daemon --------------------------------------------------------------

/// Everything read off the daemon at one instant, on its own thread.
struct DaemonSnapshot {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_syscalls = 0;
  std::uint64_t tx_syscalls = 0;
  std::uint64_t shed = 0;  // policer + ingress queue
  std::uint64_t executed = 0;  // packets that ran a kernel
};

/// An in-process netcl-swd: the real SwdServer serving loopback sockets
/// from its own thread. The thread runs poll_once() and, between turns,
/// answers snapshot requests, so counters are only ever read on the thread
/// that writes them.
class Daemon {
 public:
  explicit Daemon(const net::SwdOptions& options);
  ~Daemon();  // stops and joins
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t udp_port() const { return server_.udp_port(); }
  [[nodiscard]] std::uint16_t control_port() const { return server_.control_port(); }
  /// Bounded handshake with the serving thread, which fills the snapshot
  /// between two poll_once() turns.
  [[nodiscard]] DaemonSnapshot snapshot(Phase phase);
  void stop_and_join();

 private:
  void serve();

  net::SwdServer server_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requested_{0};
  std::atomic<std::uint64_t> answered_{0};
  DaemonSnapshot snap_;  // written by the serving thread before answered_
  std::atomic<bool> failed_{false};
  std::string failure_;  // written before failed_
  std::thread thread_;  // last: started after everything it uses
};

// --- closed-loop accounting --------------------------------------------------

/// Per-run tallies plus the RTT samples of verified responses, cut into
/// fixed intervals. Throughput and median RTT are reported as the worse
/// decile over the intervals: what the run met in nine of every ten
/// seconds. The machines this runs on share cores and caches with other
/// tenants, which slows whole stretches of seconds; the worse decile tracks
/// that contended level, where the median flips between contended and quiet
/// stretches from run to run. The p99 RTT is the median interval's.
class LoadStats {
 public:
  /// Phase ids: 0 warm-up, 1 timed (untraced), 2 traced.
  static constexpr int kPhases = 3;

  void on_issue(int phase) { ++issued_[phase]; }
  /// One verified answer: counts its op and records its RTT.
  void on_complete(int issue_phase, std::uint64_t rtt_ns) {
    on_complete(issue_phase);
    on_rtt(rtt_ns);
  }
  /// An op done, for ops whose answers record their RTTs one by one (an AGG
  /// slot: each worker's aggregate is one answer).
  void on_complete(int issue_phase);
  void on_rtt(std::uint64_t rtt_ns) {
    if (recording_) {
      samples_.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(rtt_ns, UINT32_MAX)));
    }
  }
  [[nodiscard]] std::uint64_t completed_total() const { return completed_total_; }
  [[nodiscard]] std::uint64_t issued(int phase) const { return issued_[phase]; }
  [[nodiscard]] std::uint64_t completed(int phase) const { return completed_[phase]; }

  /// Starts a measured window; samples recorded from now on fall in it.
  void begin_window(std::uint64_t now, std::uint64_t interval_ns);
  /// Closes the current interval when its time is up.
  void tick(std::uint64_t now) {
    if (recording_ && now >= interval_end_) close_interval(now);
  }
  /// Closes the last (possibly short) interval and stops recording.
  void end_window(std::uint64_t now);

  struct Summary {
    double ops_per_s = 0.0;
    double rtt_p50_us = 0.0;
    double rtt_p99_us = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t ops = 0;
    double seconds = 0.0;
  };
  /// Quantile of the interval values reported: 0.1 for throughput (lower
  /// is worse), 0.9 for the median RTT.
  static constexpr double kWorseDecile = 0.1;
  /// The window's figures over its intervals.
  [[nodiscard]] Summary summary() const;
  /// Each interval's ops/s, for the human-readable report.
  [[nodiscard]] std::string interval_rates() const;

 private:
  void close_interval(std::uint64_t now);

  std::uint64_t issued_[kPhases] = {};
  std::uint64_t completed_[kPhases] = {};
  std::uint64_t completed_total_ = 0;
  bool recording_ = false;
  std::uint64_t interval_ns_ = 0;
  std::uint64_t interval_start_ = 0;
  std::uint64_t interval_end_ = 0;
  std::uint64_t interval_ops_ = 0;
  std::uint64_t window_start_ = 0;
  std::uint64_t window_ops_ = 0;
  std::uint64_t window_end_ = 0;
  static constexpr std::size_t kSamplesReserved = 1 << 18;
  std::vector<std::uint32_t> samples_;  // current interval
  struct Interval {
    double seconds = 0.0;
    std::uint64_t ops = 0;
    double p50_ns = 0.0;
    double p99_ns = 0.0;
    std::uint64_t samples = 0;
  };
  std::vector<Interval> intervals_;
};

/// Quantile of a sample set (sorts a copy's relevant part in place).
[[nodiscard]] double quantile(std::vector<std::uint32_t>& samples, double q);

// --- spans (traced phase only) -----------------------------------------------

/// Spans the benchmark records around its own calls into each layer. Kept
/// in memory; totals feed the per-layer metrics, and --trace-out writes
/// the first kMaxKept spans as a Chrome trace.
class Spans {
 public:
  enum Kind { kSend, kPoll, kReceive, kKinds };
  static constexpr std::size_t kMaxKept = 20000;

  void set_enabled(bool on) { enabled_ = on; }
  /// Opens a span at `start` and returns its id (the parent of spans
  /// opened before it closes); -1 while disabled.
  std::int64_t open(Kind kind, std::uint64_t start, std::int64_t parent = -1);
  /// Closes a span opened by open(); no-op for id -1.
  void close(std::int64_t id, Kind kind, std::uint64_t start, std::uint64_t end);
  void record(Kind kind, std::uint64_t start, std::uint64_t end, std::int64_t parent = -1) {
    close(open(kind, start, parent), kind, start, end);
  }
  [[nodiscard]] std::uint64_t total_ns(Kind kind) const { return total_ns_[kind]; }
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  /// Id of a span counted in the totals but past kMaxKept.
  static constexpr std::int64_t kNotKept = -2;
  struct Span {
    Kind kind;
    std::uint64_t start;
    std::uint64_t end;
    std::int64_t parent;
  };
  bool enabled_ = false;
  std::vector<Span> kept_;
  std::uint64_t total_ns_[kKinds] = {};
};

// --- replay through the per-packet functions ---------------------------------

/// Per-packet costs of the daemon's per-packet functions, measured by
/// replaying a workload's own request packets on a second device seeded
/// exactly like the daemon's.
struct ReplayCosts {
  double parse_ns = 0.0;
  double decode_ns = 0.0;
  double execute_ns = 0.0;
  double encode_ns = 0.0;
  double serialize_ns = 0.0;
  double allocs_per_pkt = 0.0;
  double stage_ops_per_pkt = 0.0;
};

/// Replays `wire` (serialized request datagrams) through
/// deserialize_packet_e -> decode_args -> execute -> encode_args ->
/// serialize_packet on `device`. Allocations are counted on the second
/// pass, so one-time growth is excluded and the count repeats exactly.
[[nodiscard]] ReplayCosts replay(sim::SwitchDevice& device,
                                 const std::vector<std::vector<std::uint8_t>>& wire);

// --- compile + daemon + hosts ------------------------------------------------

/// What setup measured on the way (reported by the traced run).
struct SetupInfo {
  double compile_ms = 0.0;
  double frontend_ms = 0.0;
  double backend_ms = 0.0;
  double load_kernel_ms = 0.0;
};

/// defines of an app, as the control plane takes them.
[[nodiscard]] std::map<std::string, std::uint64_t> app_defines(const apps::AppSource& app);

/// Compiles `app` for device 1 in the benchmark (for host specs and the
/// replay device), timing it into `info`.
[[nodiscard]] driver::CompileResult compile_app(const apps::AppSource& app, SetupInfo& info);

/// Loads `app` as tenant 1 through the control plane, timing it.
void load_kernel(runtime::DeviceConnection& control, const apps::AppSource& app,
                 SetupInfo& info);

/// A HostRuntime over its own loopback UdpTransport aimed at the daemon.
struct Host {
  Host(std::uint16_t id, std::uint16_t daemon_port, const KernelSpec& spec);
  net::UdpTransport transport;
  runtime::HostRuntime runtime;
};

// --- the workload interface --------------------------------------------------

/// The command line of one invocation.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One end-to-end workload: a closed loop through the daemon.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Compile, daemon start, load_kernel_e, state seeding, hosts. The
  /// destructor stops and joins everything setup() started.
  virtual void setup(std::uint64_t seed) = 0;
  /// One turn of the load thread: poll every host (poll_once(0), never
  /// sleeping) and issue what the closed loop allows.
  virtual void pump() = 0;
  /// While false, no new request is issued (in-flight ones still finish).
  virtual void set_issuing(bool on) = 0;
  /// Requests issued but not yet answered correctly.
  [[nodiscard]] virtual std::uint64_t outstanding() const = 0;
  /// Turns INT stamping on for the load hosts (traced phase).
  virtual void enable_telemetry(obs::SpanCollector* collector) = 0;
  /// Host-side counters over the load hosts (not the cache server).
  struct HostCounters {
    std::uint64_t sent = 0;
    std::uint64_t tx_syscalls = 0;
    std::uint64_t stale_round_trips = 0;
    double pack_ns_p50 = 0.0;
    double unpack_ns_p50 = 0.0;
  };
  [[nodiscard]] virtual HostCounters host_counters() = 0;
  /// Resets the load hosts' pack/unpack histograms.
  virtual void reset_host_histograms() = 0;
  /// Starts/stops any extra thread the workload runs beside the load loop.
  virtual void start_side_threads() {}
  virtual void stop_side_threads() {}
  /// The per-layer metrics only this workload exercises (agg.*, cache.*,
  /// control.op_*); main() reports the others' as 0.
  virtual void layer_metrics(std::vector<Metric>& out) = 0;
  /// Serialized request datagrams for the replay: the first requests of
  /// the workload's seeded stream, packed by runtime::pack.
  [[nodiscard]] virtual std::vector<std::vector<std::uint8_t>> replay_sample(
      std::uint64_t seed) = 0;
  /// A device compiled and seeded exactly like the daemon's.
  [[nodiscard]] virtual std::unique_ptr<sim::SwitchDevice> replay_device(
      std::uint64_t seed) = 0;

  [[nodiscard]] Daemon& daemon() { return *daemon_; }
  [[nodiscard]] LoadStats& stats() { return stats_; }
  [[nodiscard]] Spans& spans() { return spans_; }
  [[nodiscard]] const SetupInfo& setup_info() const { return setup_info_; }
  /// The phase id new requests are tagged with (LoadStats phases).
  void set_issue_phase(int phase) { issue_phase_ = phase; }

 protected:
  std::unique_ptr<Daemon> daemon_;
  LoadStats stats_;
  Spans spans_;
  SetupInfo setup_info_;
  int issue_phase_ = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_calc_workload();
[[nodiscard]] std::unique_ptr<Workload> make_agg_workload();
[[nodiscard]] std::unique_ptr<Workload> make_cache_workload();

/// Outstanding requests the CALC and CACHE clients keep in flight.
inline constexpr int kWindow = 32;
/// A CALC or CACHE request unanswered this long is given up: its window
/// slot is reused and it counts as failed (a late answer is then ignored).
inline constexpr std::uint64_t kRequestTimeoutNs = 1'000'000'000ULL;

/// Seeded 64-bit mixing (the benchmark's one hash for generated inputs).
[[nodiscard]] inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
