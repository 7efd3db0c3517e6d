// Chaos soak (ISSUE 8): mixed valid + garbage + flood traffic against a
// live multi-tenant daemon, with fault injection, asserting the overload
// model holds end to end:
//
//   * fairness — with tenant policing on, a 10x flood from one tenant
//     leaves a co-resident >= 80% of its baseline delivery ratio;
//   * control-plane isolation — ping p99 stays under 10 ms while the
//     data plane is being flooded and garbage connections churn;
//   * perimeter accounting — malformed datagrams and policer/queue sheds
//     are counted, never crashes;
//   * bounded memory — RSS growth over the whole soak stays bounded
//     (an unbounded ingress queue or per-source map would blow this);
//   * crash recovery — inject_crash/inject_restart mid-soak, and the
//     daemon comes back serving both planes.
//
// Phases: baseline (victim alone) -> chaos (flood + garbage + slowloris
// + hostile control frames) -> fault (crash, restart, recover). Fairness
// compares chaos to baseline at the same offered victim rate.
//
// Usage: bench_soak [--smoke] [--seconds S]
//   --smoke    short run for CI (~4 s total)
//   --seconds  chaos-phase duration (default 6, smoke 2)
//
// Exit code 0 with every assertion met, 1 otherwise (the assertions are
// in-binary so CI needs no JSON parsing to fail; the numbers still land
// in BENCH_soak.json for trend tracking).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/control.hpp"
#include "net/swd_server.hpp"
#include "net/wire.hpp"
#include "sim/switch.hpp"
#include "support/hashes.hpp"

namespace netcl {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

long max_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// One raw UDP "host": connected socket, nonblocking receive drain.
class UdpHost {
 public:
  explicit UdpHost(std::uint16_t server_port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server_port);
    ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    timeval timeout{0, 2000};  // 2 ms: drain, don't stall the pacer
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~UdpHost() {
    if (fd_ >= 0) ::close(fd_);
  }
  UdpHost(const UdpHost&) = delete;
  UdpHost& operator=(const UdpHost&) = delete;

  void send(const std::vector<std::uint8_t>& datagram) {
    (void)::send(fd_, datagram.data(), datagram.size(), 0);
  }
  /// Receives and counts every pending well-formed response.
  std::size_t drain() {
    std::uint8_t buffer[4096];
    std::size_t received = 0;
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n <= 0) break;
      sim::Packet packet;
      if (net::deserialize_packet({buffer, static_cast<std::size_t>(n)}, packet)) ++received;
    }
    return received;
  }

 private:
  int fd_ = -1;
};

std::vector<std::uint8_t> calc_datagram(const KernelSpec& spec, std::uint16_t src_host,
                                        std::uint8_t comp, std::uint64_t a, std::uint64_t b) {
  sim::Packet packet;
  packet.has_netcl = true;
  packet.netcl.src = src_host;
  packet.netcl.to = 1;
  packet.netcl.comp = comp;
  sim::ArgValues args = sim::make_args(spec);
  args[0][0] = apps::kCalcAdd;
  args[1][0] = a;
  args[2][0] = b;
  packet.payload = sim::encode_args(spec, args);
  packet.netcl.len = static_cast<std::uint16_t>(packet.payload.size());
  return net::serialize_packet(packet);
}

std::vector<std::uint8_t> garbage_datagram(SplitMix64& rng) {
  std::vector<std::uint8_t> bytes(1 + rng.next_below(96));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  // Half the garbage starts with valid magic so it dies deeper in the
  // parser (bad version, length overruns, trailer inconsistencies).
  if (rng.next_below(2) == 0 && bytes.size() >= 4) {
    bytes[0] = 'N';
    bytes[1] = 'C';
    bytes[2] = 'L';
  }
  return bytes;
}

/// Opens a control connection, writes hostile bytes, reads whatever comes
/// back, closes. Exercises the typed-reject + close path under churn.
void hostile_control_poke(std::uint16_t port, SplitMix64& rng) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::vector<std::uint8_t> junk = garbage_datagram(rng);
    (void)::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
    timeval timeout{0, 50000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::uint8_t buffer[256];
    (void)::recv(fd, buffer, sizeof(buffer), 0);
  }
  ::close(fd);
}

struct PhaseResult {
  std::size_t sent = 0;
  std::size_t delivered = 0;

  [[nodiscard]] double ratio() const {
    return sent == 0 ? 0.0 : static_cast<double>(delivered) / static_cast<double>(sent);
  }
};

struct SoakConfig {
  double baseline_s = 2.0;
  double chaos_s = 6.0;
  std::size_t victim_pps = 2000;
  std::size_t flood_factor = 10;
  std::size_t garbage_pps = 200;
};

/// Paces the victim at cfg.victim_pps; when `flood` is set, the flooder
/// offers flood_factor x that and the garbage host sprays malformed
/// datagrams alongside. Returns the victim's send/delivery counts.
PhaseResult run_phase(const SoakConfig& cfg, double duration_s, net::SwdServer& server,
                      const KernelSpec& spec1, const KernelSpec& spec2, UdpHost& victim,
                      UdpHost& flooder, UdpHost& garbage, bool flood, SplitMix64& rng) {
  PhaseResult result;
  const auto start = Clock::now();
  const double tick_s = 0.005;  // 5 ms pacing quantum
  const auto victim_per_tick =
      static_cast<std::size_t>(static_cast<double>(cfg.victim_pps) * tick_s);
  std::uint64_t sequence = 0;
  std::size_t tick = 0;
  while (seconds_since(start) < duration_s) {
    for (std::size_t i = 0; i < victim_per_tick; ++i) {
      victim.send(calc_datagram(spec1, 1, 1, sequence++, 1));
      ++result.sent;
    }
    if (flood) {
      for (std::size_t i = 0; i < victim_per_tick * cfg.flood_factor; ++i) {
        flooder.send(calc_datagram(spec2, 2, 2, sequence++, 2));
      }
      const auto garbage_per_tick =
          static_cast<std::size_t>(static_cast<double>(cfg.garbage_pps) * tick_s);
      for (std::size_t i = 0; i < std::max<std::size_t>(garbage_per_tick, 1); ++i) {
        garbage.send(garbage_datagram(rng));
      }
      if (tick % 40 == 0) hostile_control_poke(server.control_port(), rng);
    }
    result.delivered += victim.drain();
    (void)flooder.drain();
    (void)garbage.drain();
    std::this_thread::sleep_for(std::chrono::duration<double>(tick_s));
    ++tick;
  }
  // Let in-flight responses land before closing the books.
  const auto settle = Clock::now();
  while (seconds_since(settle) < 0.3) {
    result.delivered += victim.drain();
    (void)flooder.drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return result;
}

}  // namespace
}  // namespace netcl

int main(int argc, char** argv) {
  using namespace netcl;

  SoakConfig cfg;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      cfg.baseline_s = 1.0;
      cfg.chaos_s = 2.0;
      cfg.victim_pps = 1000;
    } else if (arg == "--seconds" && i + 1 < argc) {
      cfg.chaos_s = std::stod(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: bench_soak [--smoke] [--seconds S]\n");
      return 2;
    }
  }

  // Two calc tenants behind per-tenant policing: the victim's full rate
  // fits its bucket twice over; the flooder's 10x offered load does not.
  KernelSpec spec1, spec2;
  auto device = std::make_unique<sim::SwitchDevice>(1);
  {
    apps::AppSource app = apps::calc_source();
    driver::CompileOptions options;
    options.defines = app.defines;
    options.defines["COMP"] = 1;
    driver::CompileResult compiled = driver::compile_netcl(app.source, options);
    if (!compiled.ok) {
      std::fprintf(stderr, "FATAL: compile: %s\n", compiled.errors.c_str());
      return 1;
    }
    spec1 = compiled.specs.at(1);
    if (device->load_program(1, driver::make_artifact(std::move(compiled), "victim"))) return 1;
    options.defines["COMP"] = 2;
    compiled = driver::compile_netcl(app.source, options);
    if (!compiled.ok) return 1;
    spec2 = compiled.specs.at(2);
    if (device->load_program(2, driver::make_artifact(std::move(compiled), "flooder"))) return 1;
  }

  net::SwdOptions options;
  options.tenant_rate_pps = 2.0 * static_cast<double>(cfg.victim_pps);
  options.tenant_burst = static_cast<double>(cfg.victim_pps) / 4.0;
  options.read_deadline_seconds = 1.0;
  net::SwdServer server(std::move(device), options);
  if (!server.valid()) {
    std::fprintf(stderr, "FATAL: %s\n", server.error().c_str());
    return 1;
  }
  std::thread serving([&] { server.run(); });

  const long rss_before_kb = max_rss_kb();
  SplitMix64 rng(0x50AB5EED);
  UdpHost victim(server.udp_port());
  UdpHost flooder(server.udp_port());
  UdpHost garbage(server.udp_port());

  std::printf("bench_soak: %s run — baseline %.1fs, chaos %.1fs, victim %zu pps, "
              "flood %zux, policer %.0f pps/tenant\n",
              smoke ? "smoke" : "full", cfg.baseline_s, cfg.chaos_s, cfg.victim_pps,
              cfg.flood_factor, options.tenant_rate_pps);

  // --- baseline: victim alone ----------------------------------------------
  const PhaseResult baseline = run_phase(cfg, cfg.baseline_s, server, spec1, spec2, victim,
                                         flooder, garbage, /*flood=*/false, rng);

  // --- chaos: 10x flood + garbage + hostile control + slowloris -------------
  // One persistent slowloris connection held open across the whole phase.
  const int slow_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.control_port());
    if (::connect(slow_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const std::uint8_t partial[3] = {'N', 'C', 1};
      (void)::send(slow_fd, partial, sizeof(partial), MSG_NOSIGNAL);
    }
  }

  // Control-plane latency probe, concurrent with the flood.
  std::atomic<bool> probing{true};
  std::vector<double> ping_ms;
  std::thread prober([&] {
    net::ControlClient client("127.0.0.1", server.control_port());
    while (probing.load(std::memory_order_relaxed)) {
      std::uint16_t device_id = 0;
      std::uint32_t generation = 0;
      std::uint64_t device_clock_ns = 0;
      const auto start = Clock::now();
      if (client.ping(device_id, generation, device_clock_ns).ok()) {
        ping_ms.push_back(seconds_since(start) * 1e3);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  const PhaseResult chaos = run_phase(cfg, cfg.chaos_s, server, spec1, spec2, victim, flooder,
                                      garbage, /*flood=*/true, rng);
  probing.store(false);
  prober.join();
  ::close(slow_fd);

  // --- fault: crash mid-service, restart, recover ---------------------------
  server.inject_crash();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  victim.send(calc_datagram(spec1, 1, 1, 0, 0));  // vanishes into the crash
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.inject_restart();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::size_t recovered = 0;
  for (int attempt = 0; attempt < 50 && recovered == 0; ++attempt) {
    victim.send(calc_datagram(spec1, 1, 1, 7, 8));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    recovered += victim.drain();
  }
  net::ControlClient post_fault("127.0.0.1", server.control_port());
  std::uint16_t post_fault_device = 0;
  std::uint32_t post_fault_generation = 0;
  std::uint64_t post_fault_clock_ns = 0;
  const bool control_recovered =
      post_fault.ping(post_fault_device, post_fault_generation, post_fault_clock_ns).ok();

  server.stop();
  serving.join();
  const long rss_after_kb = max_rss_kb();

  // --- verdicts -------------------------------------------------------------
  std::sort(ping_ms.begin(), ping_ms.end());
  const double ping_p99 =
      ping_ms.empty() ? 1e9 : ping_ms[ping_ms.size() * 99 / 100 == ping_ms.size()
                                          ? ping_ms.size() - 1
                                          : ping_ms.size() * 99 / 100];
  const double fairness =
      baseline.ratio() <= 0.0 ? 0.0 : chaos.ratio() / baseline.ratio();
  const double rss_delta_mb =
      static_cast<double>(rss_after_kb - rss_before_kb) / 1024.0;

  obs::MetricsRegistry registry("bench_soak");
  registry.gauge("baseline.sent").set(static_cast<double>(baseline.sent));
  registry.gauge("baseline.delivered").set(static_cast<double>(baseline.delivered));
  registry.gauge("chaos.sent").set(static_cast<double>(chaos.sent));
  registry.gauge("chaos.delivered").set(static_cast<double>(chaos.delivered));
  registry.gauge("fairness_ratio").set(fairness);
  registry.gauge("ping.p99_ms").set(ping_p99);
  registry.gauge("ping.samples").set(static_cast<double>(ping_ms.size()));
  registry.gauge("rss_delta_mb").set(rss_delta_mb);
  registry.gauge("packets.malformed").set(static_cast<double>(server.packets_malformed.value()));
  registry.gauge("packets.shed_policer")
      .set(static_cast<double>(server.packets_shed_policer.value()));
  registry.gauge("packets.shed_queue")
      .set(static_cast<double>(server.packets_shed_queue.value()));
  registry.gauge("control.malformed").set(static_cast<double>(server.control_malformed.value()));
  registry.gauge("connections.reaped_slow")
      .set(static_cast<double>(server.connections_reaped_slow.value()));
  registry.gauge("fault.recovered").set(recovered > 0 ? 1.0 : 0.0);

  std::printf("baseline: %zu/%zu delivered (%.3f)\n", baseline.delivered, baseline.sent,
              baseline.ratio());
  std::printf("chaos:    %zu/%zu delivered (%.3f)  fairness %.3f\n", chaos.delivered,
              chaos.sent, chaos.ratio(), fairness);
  std::printf("control:  ping p99 %.2f ms over %zu samples\n", ping_p99, ping_ms.size());
  std::printf("perimeter: %llu malformed, %llu policer-shed, %llu queue-shed, "
              "%llu control-malformed, %llu slow-reaped\n",
              static_cast<unsigned long long>(server.packets_malformed.value()),
              static_cast<unsigned long long>(server.packets_shed_policer.value()),
              static_cast<unsigned long long>(server.packets_shed_queue.value()),
              static_cast<unsigned long long>(server.control_malformed.value()),
              static_cast<unsigned long long>(server.connections_reaped_slow.value()));
  std::printf("memory:   maxrss delta %.1f MB; fault recovery: data %s, control %s\n",
              rss_delta_mb, recovered > 0 ? "ok" : "FAILED",
              control_recovered ? "ok" : "FAILED");

  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "SOAK FAIL: %s\n", what);
      ++failures;
    }
  };
  check(baseline.ratio() > 0.9, "baseline delivery ratio > 0.9");
  check(fairness >= 0.8, "victim retains >= 80% of baseline under 10x flood");
  check(ping_p99 < 10.0, "control ping p99 < 10 ms under flood");
  check(!ping_ms.empty(), "latency probe collected samples");
  check(server.packets_malformed.value() > 0, "garbage was counted as malformed");
  check(server.packets_shed_policer.value() > 0, "flood was policed");
  check(server.control_malformed.value() > 0, "hostile control frames were rejected");
  check(server.connections_reaped_slow.value() > 0, "slowloris connection was reaped");
  check(rss_delta_mb < 256.0, "maxrss growth bounded (< 256 MB)");
  check(recovered > 0, "data plane recovered after crash+restart");
  check(control_recovered, "control plane recovered after crash+restart");

  if (!bench::write_bench_json("soak", "udp")) return 1;
  if (failures != 0) {
    std::fprintf(stderr, "bench_soak: %d assertion(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_soak: all assertions held\n");
  return 0;
}
