// netcl-swd: the software device daemon (§V-B brought to real sockets).
//
// SwdServer is the daemon's engine, usable in-process (tests run it on a
// background thread) or behind the netcl-swd binary. It loads a compiled
// pipeline — the same sim::SwitchDevice, stepped by the same
// SwitchDevice::process the fabric calls, so a packet computes identically
// in simulation and over the wire — and serves two sockets:
//
//   * a UDP data plane: NetCL wire packets in, the device step (kernel
//     execution and the Table II action), and the rewritten packet
//     forwarded to the destination host. Host locations are learned from the src field of
//     arriving packets (there is no routing fabric behind a single daemon);
//   * a TCP control plane: length-prefixed request/response frames
//     (net/control.hpp) for managed read/write, lookup-entry management,
//     stats read-back, and multicast-group configuration.
//
// Single-threaded poll(2) loop; stop() is safe to call from another thread.
#pragma once

#include <netinet/in.h>
#include <poll.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "net/control.hpp"
#include "net/datagram_socket.hpp"
#include "net/policer.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "sim/switch.hpp"

namespace netcl::net {

struct SwdOptions {
  std::uint16_t udp_port = 0;      // data plane (0 = kernel-assigned)
  std::uint16_t control_port = 0;  // control plane TCP (0 = kernel-assigned)
  /// Stop serving after this much wall-clock time (0 = run until stop()).
  double max_seconds = 0.0;
  /// Device generation reported in PONG responses. 0 = derive from the
  /// wall clock at startup, so every real restart yields a new value and
  /// hosts can detect that offloaded state was lost.
  std::uint32_t generation = 0;
  /// Control connections with no traffic for this long are reaped (a
  /// client that died without FIN would otherwise hold its fd forever).
  /// 0 disables reaping.
  double idle_timeout_seconds = 300.0;
  /// Plain-TCP Prometheus scrape endpoint (ISSUE 4): any HTTP GET is
  /// answered with the text exposition (format 0.0.4) of the daemon's
  /// metrics and device stats. -1 = disabled, 0 = kernel-assigned.
  int metrics_port = -1;
  bool verbose = false;
  /// Compile callback for kLoadKernel (ISSUE 7). The net layer cannot link
  /// the driver, so netcl-swd (or a test) injects driver::artifact_compiler;
  /// without one, runtime kernel loads are refused.
  sim::ProgramCompiler compiler;
  /// Cap on co-resident tenants (0 = unlimited); forwarded to the device.
  std::size_t max_tenants = 0;

  // --- overload control (ISSUE 8) -------------------------------------------
  /// Per-tenant token-bucket rate on the data plane, packets/second
  /// (0 = unpoliced). A tenant exceeding it sheds its *own* packets before
  /// they reach the ingress queue; co-residents are unaffected. Traffic
  /// with no resident tenant (unknown computation ids, host-addressed
  /// passthrough) shares one bucket at the same rate.
  double tenant_rate_pps = 0.0;
  /// Bucket depth in packets (0 = one second's worth, i.e. tenant_rate_pps).
  double tenant_burst = 0.0;
  /// Bounded drop-oldest ingress queue between the socket and the switch
  /// engine. Under sustained overload the oldest queued packet is shed
  /// (counted against its tenant) instead of the queue growing without
  /// bound. 0 = default (1024).
  std::size_t ingress_queue_capacity = 0;
  /// Max queued packets executed per poll cycle, so a flood can never
  /// starve control-plane servicing within a cycle. 0 = default (512).
  std::size_t max_cycle_execute = 0;
  /// A control connection holding an incomplete frame longer than this is
  /// reaped (slowloris defence) — independent of idle_timeout_seconds,
  /// which only covers connections with no pending frame. So is a control
  /// or scrape connection whose pending reply makes no progress for this
  /// long. 0 disables.
  double read_deadline_seconds = 10.0;

  // --- continuous profiling + per-tenant SLOs (ISSUE 9) ---------------------
  /// Sampling rate for the always-available CPU profiler (netcl-swd
  /// --profile[=hz]). 0 = profiler off; dumps via kProfileDump / SIGUSR1.
  int profile_hz = 0;
  /// Per-tenant service-level objectives (netcl-swd --slo). A tenant with
  /// an objective gets ingress→egress latency stamping, sliding-window
  /// good/bad accounting (sheds count as bad), burn-rate series, and the
  /// fast-burn → flight-recorder postmortem trigger.
  std::map<sim::TenantId, obs::SloObjective> slo_objectives;
};

class SwdServer {
  // Declared before the public counter references below so it is
  // constructed first.
  obs::MetricsRegistry metrics_;

 public:
  /// Datagrams received per poll cycle (eight full bursts without GRO). A
  /// sustained flood must not pin the loop inside the drain — past this
  /// budget the excess stays in (and overflows) the kernel socket buffer,
  /// or is held by the socket for the next cycle, and the cycle moves on to
  /// the control plane.
  static constexpr std::size_t kMaxDrainDatagrams = 8 * DatagramSocket::kMaxBatch;

  /// Takes ownership of the device and binds both sockets; check valid().
  SwdServer(std::unique_ptr<sim::SwitchDevice> device, const SwdOptions& options);
  ~SwdServer();
  SwdServer(const SwdServer&) = delete;
  SwdServer& operator=(const SwdServer&) = delete;

  [[nodiscard]] bool valid() const;
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint16_t udp_port() const { return socket_.local_port(); }
  [[nodiscard]] std::uint16_t control_port() const { return control_port_; }
  /// 0 when the scrape endpoint is disabled.
  [[nodiscard]] std::uint16_t metrics_port() const { return metrics_port_; }
  [[nodiscard]] sim::SwitchDevice& device() { return *device_; }
  /// The daemon's telemetry clock: ns since process start (steady clock).
  /// TelemetryHop stamps and the PONG clock field share this clockbase.
  [[nodiscard]] std::uint64_t device_clock_ns() const;

  /// Serves until stop() or the max_seconds budget runs out.
  void run();
  /// One event-loop turn (≤ timeout_ms of blocking).
  void poll_once(int timeout_ms);
  /// Thread-safe shutdown request; run() returns within one poll timeout.
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  // --- fault injection (ISSUE 3; thread-safe, applied on the serving
  // thread within one poll timeout) ------------------------------------------
  /// Simulates a daemon crash: datagrams vanish, control connections are
  /// closed and new ones refused, until inject_restart().
  void inject_crash() { crashed_.store(true, std::memory_order_relaxed); }
  /// Simulates the crashed daemon coming back as a fresh process: device
  /// registers zeroed, lookup entries re-seeded, generation bumped.
  void inject_restart() { restart_pending_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  /// Dispatches one already-deframed control request and returns the
  /// response payload. Public so tests and the fuzz harness can drive the
  /// parser with arbitrary bytes without a socket in between; the serving
  /// path calls it from service_connection().
  [[nodiscard]] std::vector<std::uint8_t> handle_control(std::span<const std::uint8_t> frame);

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  obs::Counter& packets_received = metrics_.counter("packets_received");
  obs::Counter& packets_sent = metrics_.counter("packets_sent");
  obs::Counter& packets_dropped_action = metrics_.counter("packets_dropped_action");
  /// Datagram arrived but was not a well-formed NetCL wire packet;
  /// per-source attribution renders as malformed.by_source gauges.
  obs::Counter& packets_malformed = metrics_.counter("packets.malformed");
  /// Packets shed by the per-tenant token-bucket policer (the flooding
  /// tenant's own traffic; see tenant.shed_policer for attribution).
  obs::Counter& packets_shed_policer = metrics_.counter("packets.shed_policer");
  /// Oldest queued packets dropped when the bounded ingress queue overflowed.
  obs::Counter& packets_shed_queue = metrics_.counter("packets.shed_queue");
  /// Control connections closed for a malformed frame header (bad magic /
  /// version / oversize length).
  obs::Counter& control_malformed = metrics_.counter("control.malformed");
  /// Control or scrape connections reaped for stalling past
  /// read_deadline_seconds: mid-frame (slowloris defence), or on a reply
  /// the peer does not read.
  obs::Counter& connections_reaped_slow = metrics_.counter("connections.reaped_slow");
  /// Outbound packet addressed to a host this daemon never heard from.
  obs::Counter& dropped_unknown_host = metrics_.counter("dropped.unknown_host");
  /// Outbound packet addressed to another device (single-device daemon).
  obs::Counter& dropped_no_route = metrics_.counter("dropped.no_route");
  obs::Counter& control_requests = metrics_.counter("control_requests");
  obs::Counter& control_errors = metrics_.counter("control_errors");
  /// Retried request (same client id + request id) answered from the
  /// idempotency cache instead of re-executing the op.
  obs::Counter& control_replays = metrics_.counter("control_replays");
  /// Control connections closed for idling past idle_timeout_seconds.
  obs::Counter& connections_reaped = metrics_.counter("connections_reaped");
  /// Datagrams discarded while crash injection is active.
  obs::Counter& packets_dropped_crashed = metrics_.counter("packets_dropped_crashed");
  /// HTTP responses served from the --metrics-port scrape endpoint.
  obs::Counter& metrics_scrapes = metrics_.counter("metrics_scrapes");
  /// Telemetry hops stamped onto packets that requested INT.
  obs::Counter& telemetry_stamps = metrics_.counter("telemetry_stamps");
  /// NetCL packets addressed to this device whose computation id has no
  /// resident kernel (misrouted tenant traffic; they pass through, §IV).
  obs::Counter& packets_unknown_computation =
      metrics_.counter("packets.unknown_computation");
  /// Runtime kernel lifecycle ops (ISSUE 7).
  obs::Counter& kernels_loaded = metrics_.counter("kernels_loaded");
  obs::Counter& kernels_unloaded = metrics_.counter("kernels_unloaded");
  obs::Counter& kernels_rejected = metrics_.counter("kernels_rejected");
  /// Data-plane syscalls. Batched, these grow ~1/32 as fast as the packet
  /// counters. The socket also counts bytes_sent, gso_batches and
  /// send_errors into this registry.
  obs::Counter& send_syscalls = metrics_.counter("send_syscalls");
  obs::Counter& recv_syscalls = metrics_.counter("recv_syscalls");

 private:
  /// Bucket/attribution key for traffic no resident tenant claims
  /// (unknown computation ids, host-addressed passthrough, transits).
  static constexpr sim::TenantId kUnattributedTenant = 0xFFFFFFFFu;

  struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> inbox;  // bytes read, not yet framed
    double last_activity_s = 0.0;     // monotonic seconds (idle reaping)
    /// When the oldest incomplete frame in the inbox started arriving
    /// (< 0 = no partial frame pending). A connection stalled mid-frame
    /// past read_deadline_seconds is reaped (slowloris defence).
    double frame_started_s = -1.0;
    /// Reply bytes the socket has not taken yet; outbox_sent of them are
    /// gone. A connection with a pending outbox is polled for POLLOUT only
    /// and reaped when it makes no progress for read_deadline_seconds.
    std::vector<std::uint8_t> outbox;
    std::size_t outbox_sent = 0;
    double outbox_progress_s = -1.0;  // last send progress (< 0 = none pending)
  };

  /// A parsed-and-admitted data-plane packet waiting for an execution slot
  /// (one slot of the bounded drop-oldest ingress queue).
  struct IngressPacket {
    sim::Packet packet;
    sockaddr_in from{};
    std::uint32_t queue_depth = 0;
    std::uint64_t ingress_ns = 0;  // 0 unless telemetry was requested
    /// Admission timestamp for SLO latency accounting (0 unless the
    /// attributed tenant has an objective).
    std::uint64_t admit_ns = 0;
    /// Resident tenant the packet was attributed to at admission
    /// (kUnattributedTenant for unknown computations / passthrough).
    sim::TenantId tenant = 0;
  };

  /// Parses + polices one datagram into the ingress ring's free tail slot
  /// and queues it (drop-oldest on overflow). Malformed input and policer
  /// sheds are counted and flight-recorded here and leave the slot free;
  /// nothing unvalidated crosses this line.
  void admit_datagram(std::span<const std::uint8_t> bytes, const sockaddr_in& from,
                      std::uint32_t queue_depth);
  /// Runs the device step (SwitchDevice::process) over one admitted
  /// packet, then stamps, SLO-accounts and forwards or fans it out.
  void handle_packet(IngressPacket& in);
  /// Executes up to max_cycle_execute_ queued packets.
  void process_ingress();
  /// The tenant whose token bucket a packet with this computation id
  /// consumes from, and whether it may pass right now.
  bool police(sim::TenantId tenant, double now_s);
  void count_shed(sim::TenantId tenant, bool policer);
  /// The slot the next admitted datagram parses into, created on first
  /// use.
  IngressPacket& ingress_tail();
  void clear_ingress() { ingress_head_ = ingress_size_ = 0; }
  void emit(const sim::Packet& packet);
  /// Serializes into the socket's egress queue; flush_egress() puts the
  /// whole cycle's output on the wire afterwards.
  void send_to_host(std::uint16_t host, const sim::Packet& packet);
  /// Receives up to kMaxDrainDatagrams datagrams and admits each into the
  /// ingress queue.
  void drain_data_socket(bool crashed);
  /// Transmits the cycle's egress in emission order.
  void flush_egress();
  void accept_connection();
  /// Sends the pending reply, then reads what is available and dispatches
  /// complete frames; closes the connection on EOF/protocol error.
  void service_connection(Connection& connection);
  /// Executes one decoded control op, appending its results to `ok`; the
  /// returned error is the op's one failure form.
  runtime::Error execute_control(ControlOp op, ByteReader& reader, ByteWriter& ok);
  /// Sends what the socket takes of the outbox without blocking; false when
  /// the connection broke.
  bool flush_outbox(Connection& connection);
  void close_connection(Connection& connection);
  void accept_metrics_connection();
  /// Minimal HTTP/1.0 server: once the request's header block is in,
  /// answers with the Prometheus exposition and closes once it has left.
  void service_metrics_connection(Connection& connection);
  /// Prometheus text exposition of this daemon's registry and device
  /// stats (the body both --metrics-port and kMetricsText serve).
  [[nodiscard]] std::string metrics_exposition();
  /// Monotonic seconds since the server was constructed.
  [[nodiscard]] double uptime_s() const;
  /// Applies pending fault-injection state; true while crashed.
  bool apply_fault_state();
  /// Find-or-create the per-tenant registry ("swd<id>/tenant/<name>" —
  /// prometheus_string() splits the suffix into a `tenant` label) and
  /// mirror the tenant's execution stats into it as gauges.
  void mirror_tenant_metrics();
  /// Mirror the heaviest malformed-traffic sources into
  /// "<base>/source/<ip:port>" registries (`source` label on the wire).
  void mirror_malformed_sources();

  std::unique_ptr<sim::SwitchDevice> device_;
  sim::ProgramCompiler compiler_;
  /// Per-tenant metric registries, created on first sight of a tenant and
  /// kept for the daemon's lifetime (a registry's retained store outlives
  /// unload, so last-known values still render).
  std::map<sim::TenantId, std::unique_ptr<obs::MetricsRegistry>> tenant_metrics_;
  std::string error_;
  /// The UDP data plane.
  DatagramSocket socket_;
  int listen_fd_ = -1;
  int metrics_listen_fd_ = -1;
  std::uint16_t control_port_ = 0;
  std::uint16_t metrics_port_ = 0;
  bool metrics_enabled_ = false;
  bool verbose_ = false;
  double max_seconds_ = 0.0;
  double idle_timeout_seconds_ = 0.0;
  std::vector<Connection> connections_;
  std::vector<Connection> metrics_connections_;
  /// poll_once's descriptor set, rebuilt every cycle into reused storage.
  std::vector<pollfd> poll_fds_;
  // --- overload control state (ISSUE 8) -------------------------------------
  /// The ingress queue as a ring of reusable slots: entry i is
  /// ingress_slots_[(ingress_head_ + i) % (ingress_capacity_ + 1)]. One slot
  /// beyond the capacity keeps the tail free, so a datagram parses straight
  /// into it (reusing the slot's payload capacity) before the oldest entry
  /// is shed. The ring restarts at slot 0 whenever it empties, so only
  /// slots up to the peak queue depth are ever created or touched.
  std::vector<IngressPacket> ingress_slots_;
  std::size_t ingress_head_ = 0;
  std::size_t ingress_size_ = 0;
  std::size_t ingress_capacity_ = 1024;
  std::size_t max_cycle_execute_ = 512;
  double tenant_rate_pps_ = 0.0;
  double tenant_burst_ = 0.0;
  double read_deadline_seconds_ = 0.0;
  /// One token bucket per resident tenant (created lazily), plus one
  /// shared bucket for unattributed traffic.
  std::map<sim::TenantId, TokenBucket> tenant_buckets_;
  TokenBucket unattributed_bucket_;
  /// Per-tenant shed attribution, mirrored into the tenant registries.
  std::map<sim::TenantId, std::uint64_t> tenant_shed_policer_;
  std::map<sim::TenantId, std::uint64_t> tenant_shed_queue_;
  // --- per-tenant SLOs (ISSUE 9) --------------------------------------------
  /// Burn-rate engine; exports into "<base>/tenant/<id>[/window/<w>]"
  /// registries so SLO series share the tenant label with the mirrors
  /// above.
  obs::SloEngine slo_{metrics_.name()};
  /// True iff any tenant has an objective — the "skip all SLO work on the
  /// hot path" test.
  bool slo_enabled_ = false;
  double last_slo_tick_s_ = -1.0;
  /// Top-K malformed-datagram attribution by source endpoint; bounded so
  /// spoofed sources cannot grow it without limit.
  BoundedCounts malformed_sources_;
  /// Per-source metric registries for the heaviest offenders.
  std::map<std::string, std::unique_ptr<obs::MetricsRegistry>> source_metrics_;

  /// host id -> last UDP endpoint it sent from.
  std::map<std::uint16_t, sockaddr_in> host_endpoints_;
  std::map<std::uint16_t, std::vector<std::uint16_t>> multicast_groups_;
  /// Idempotency cache: client id -> (last request id, cached response).
  std::map<std::uint64_t, std::pair<std::uint64_t, std::vector<std::uint8_t>>>
      replay_cache_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> restart_pending_{false};
};

}  // namespace netcl::net
