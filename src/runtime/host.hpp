// NetCL host runtime.
//
// HostRuntime is the paper's host-side message backend (§V-B): it packs
// messages with the kernel specifications the compiler recorded and hands
// them to a net::Transport; received NetCL packets are unpacked and handed
// to a user callback. The transport decides what the network is — a
// SimTransport injects at a fabric port, a UdpTransport speaks real
// sockets to a device daemon — and the host code is identical either way.
//
// Every host owns a metrics registry ("host<id>") with per-computation
// send/receive counters, pack/unpack wall-clock histograms, and a
// round-trip latency histogram on the transport's clock (FIFO
// request/response matching per computation). Packets that would
// previously vanish — sends without a registered spec, arrivals with no
// receiver installed or an unknown computation — are counted and logged
// once per cause with DiagnosticEngine-style severity.
//
// DeviceConnection is the control-plane handle behind ncl::managed_read /
// ncl::managed_write and the _managed_ _lookup_ entry operations (§V-B) —
// the reliable slow path that bypasses kernels entirely. It speaks either
// to an in-fabric sim::SwitchDevice or, over the length-prefixed TCP
// protocol, to a netcl-swd daemon; callers cannot tell the difference.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "net/control.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "runtime/error.hpp"
#include "runtime/failure.hpp"
#include "runtime/message.hpp"
#include "sim/fabric.hpp"
#include "sim/switch.hpp"

namespace netcl::runtime {

/// What send() does while the failure detector says the device is DOWN
/// (ISSUE 3). Without an attached detector the policy never engages.
enum class FallbackPolicy : std::uint8_t {
  /// Surface a typed kDeviceDown error immediately; the message is not sent.
  kFailFast,
  /// Run the packet through the attached shadow device — the same compiled
  /// kernels, stepped by the same SwitchDevice::process as the fabric and
  /// netcl-swd — and loop the (byte-identical) response into the receive
  /// path. Only the latency differs. A shadow stands in for single-host
  /// request/response workloads (CALC-style): it has no other multicast
  /// members to serve and no other device to send to, so it delivers this
  /// host's copy of the outcome. Cross-host aggregation is what
  /// kQueueUntilRecovered and retransmission are for.
  kHostExecute,
  /// Buffer the packed packet (bounded) and transmit it when the detector
  /// reports the device UP again.
  kQueueUntilRecovered,
};

[[nodiscard]] const char* to_string(FallbackPolicy policy);

class HostRuntime {
  // Declared before the public counter references below so it is
  // constructed first.
  obs::MetricsRegistry metrics_;

 public:
  /// Outstanding send stamps kept per computation for round-trip matching.
  /// When responses are lost the FIFO would grow without bound; at this
  /// depth the oldest stamp is expired and counted in
  /// dropped.stale_round_trip.
  static constexpr std::size_t kMaxPendingRoundTrips = 1024;
  /// kQueueUntilRecovered buffers at most this many packets; beyond it the
  /// oldest is dropped (and counted) — an outage is not infinite memory.
  static constexpr std::size_t kMaxQueuedSends = 4096;

  /// Binds to a transport (not owned; must outlive this runtime).
  HostRuntime(net::Transport& transport, std::uint16_t host_id);
  /// Takes ownership of a transport — the natural pairing with
  /// net::make_transport(uri) (ISSUE 5). The transport must be non-null.
  HostRuntime(std::unique_ptr<net::Transport> transport, std::uint16_t host_id);
  /// Convenience: attaches to the simulated fabric through an owned
  /// SimTransport (the pre-ISSUE-2 constructor, behavior-preserving).
  HostRuntime(sim::Fabric& fabric, std::uint16_t host_id);

  [[nodiscard]] std::uint16_t host_id() const { return host_id_; }
  [[nodiscard]] net::Transport& transport() { return *transport_; }

  /// Registers the message layout of a computation (done by the compiler's
  /// host-side rewrites in the paper; by the driver here).
  void register_spec(int computation, KernelSpec spec);
  [[nodiscard]] const KernelSpec* spec_for(int computation) const;

  /// Packs and sends. The message's src is forced to this host.
  void send(Message message, const sim::ArgValues& args);

  /// One message of a batched send.
  struct Outbound {
    Message message;
    sim::ArgValues args;
  };
  /// Packs a window of messages and hands them to the transport in one
  /// send_batch call (ISSUE 5) — one syscall per 32 packets on the UDP
  /// fast path instead of one per message. Per-message accounting
  /// (round-trip stamps, counters, fallback policy while the device is
  /// DOWN) is identical to calling send() per element, and so is the wire
  /// ordering: element 0 goes out first.
  void send_batch(std::span<Outbound> batch);

  /// Invoked for every NetCL packet arriving at this host.
  using Receiver = std::function<void(const Message&, sim::ArgValues&)>;
  void on_receive(Receiver receiver);

  // --- in-band telemetry (ISSUE 4) ------------------------------------------
  /// While a collector is attached (not owned; must outlive this runtime,
  /// nullptr detaches), every send sets the packet's telemetry flag —
  /// devices on the path append INT hop stamps — and every matched
  /// response is folded into the collector as one end-to-end span (host
  /// pack → device hops → host unpack). Off by default: without a
  /// collector the wire bytes are exactly the pre-telemetry layout.
  void enable_telemetry(obs::SpanCollector* collector) { collector_ = collector; }
  [[nodiscard]] obs::SpanCollector* telemetry_collector() { return collector_; }

  // --- per-computation SLOs (ISSUE 9) ---------------------------------------
  /// Declares a latency/availability objective for one computation id (the
  /// computation id is the host-side tenant key). Matched round trips feed
  /// the engine as served events — good iff under the latency threshold —
  /// and stamps expired at the pending cap count as bad events (their
  /// responses were presumably lost). The engine exports into registries
  /// "host<id>/tenant/<comp>" and ".../window/<name>", which Prometheus
  /// exposition renders as netcl_slo_* series. Zero receive-path overhead
  /// until the first objective is set.
  void set_slo_objective(int computation, const obs::SloObjective& objective);
  [[nodiscard]] obs::SloEngine& slo() { return slo_; }

  // --- failure handling (ISSUE 3) -------------------------------------------
  /// Wires a detector (not owned; must outlive this runtime). While it
  /// reports DOWN, send() applies the fallback policy; on recovery queued
  /// packets flush, and on a generation change the resync callback fires
  /// first (re-offload state, then traffic).
  void attach_failure_detector(FailureDetector& detector);
  void set_fallback_policy(FallbackPolicy policy) { fallback_policy_ = policy; }
  [[nodiscard]] FallbackPolicy fallback_policy() const { return fallback_policy_; }
  /// Required for kHostExecute: the shadow device that stands in for the
  /// real one (typically a second driver::make_device() from the same
  /// compile recipe).
  void set_shadow_device(std::unique_ptr<sim::SwitchDevice> device);
  /// Invoked whenever send() fails a message (kFailFast, missing shadow
  /// device, or queue overflow). Also retrievable via last_error().
  void on_error(std::function<void(const Error&)> fn) { on_error_ = std::move(fn); }
  [[nodiscard]] const Error& last_error() const { return error_; }
  /// Invoked when the device comes back with a different generation (its
  /// offloaded state is gone) — re-offload managed state here, e.g. via
  /// DeviceConnection::resync().
  void on_resync(std::function<void()> fn) { on_resync_ = std::move(fn); }

  // --- statistics (registry-backed; obs::dump() includes them) --------------
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  obs::Counter& sent = metrics_.counter("sent");
  obs::Counter& received = metrics_.counter("received");
  /// send() without a registered spec for the computation.
  obs::Counter& dropped_unregistered_send = metrics_.counter("dropped.unregistered_send");
  /// NetCL packet arrived but on_receive() was never installed.
  obs::Counter& dropped_no_receiver = metrics_.counter("dropped.no_receiver");
  /// NetCL packet arrived for a computation with no registered spec.
  obs::Counter& dropped_unknown_computation =
      metrics_.counter("dropped.unknown_computation");
  /// Round-trip stamps expired at the kMaxPendingRoundTrips cap (their
  /// responses were presumably lost).
  obs::Counter& dropped_stale_round_trip = metrics_.counter("dropped.stale_round_trip");
  obs::Histogram& pack_ns = metrics_.histogram("pack_ns");      // wall clock
  obs::Histogram& unpack_ns = metrics_.histogram("unpack_ns");  // wall clock
  obs::Histogram& round_trip_ns = metrics_.histogram("round_trip_ns");  // transport clock
  // Fallback-path accounting (ISSUE 3).
  obs::Counter& fallback_fail_fast = metrics_.counter("fallback.fail_fast");
  obs::Counter& fallback_host_executed = metrics_.counter("fallback.host_executed");
  obs::Counter& fallback_queued = metrics_.counter("fallback.queued");
  obs::Counter& fallback_flushed = metrics_.counter("fallback.flushed");
  obs::Counter& fallback_dropped_overflow = metrics_.counter("fallback.dropped_overflow");

 private:
  /// Installs the transport receiver (shared by all constructors).
  void attach();
  /// The shared pack half of send()/send_batch(): spec lookup, pack,
  /// telemetry flag, DOWN-state fallback, round-trip stamp, counters.
  /// True when `out` holds a packet the caller must transmit.
  bool prepare_send(Message& message, const sim::ArgValues& args, sim::Packet& out);
  /// The receive path: unpack, account, hand to the user's receiver. Both
  /// transport arrivals and host-executed responses come through here, so
  /// fallback results are indistinguishable from device results.
  void deliver_packet(const sim::Packet& packet);
  /// Routes one packed packet while the device is DOWN. True when handled
  /// (caller must not transmit).
  bool handle_down_send(sim::Packet& packet, int computation);
  void flush_queue();
  void fail_send(ErrorKind kind, std::string message);
  /// Warns on stderr with DiagnosticEngine severity labels, once per
  /// distinct cause (so lossy workloads do not flood the log).
  void warn_once(const std::string& cause);

  std::unique_ptr<net::Transport> owned_transport_;  // owning ctors
  net::Transport* transport_;
  /// Packed packets for the send_batch in flight, reused across calls so
  /// the host layer allocates nothing at steady state. Safe as a member:
  /// transports never invoke receive callbacks from inside send_batch
  /// (fabric delivery is event-queued; UDP delivery happens in poll).
  std::vector<sim::Packet> tx_batch_;
  std::uint16_t host_id_;
  /// A registered computation: its message layout and its per-computation
  /// counters ("comp<id>.sent" / ".received"), resolved once at
  /// register_spec so the per-packet path increments a handle instead of
  /// building and looking up a name.
  struct Computation {
    KernelSpec spec;
    obs::Counter* sent = nullptr;
    obs::Counter* received = nullptr;
  };
  [[nodiscard]] Computation* find_computation(int id);
  std::map<int, Computation> computations_;
  Receiver receiver_;
  obs::SpanCollector* collector_ = nullptr;  // not owned
  /// One outstanding send awaiting its response: the transport-clock send
  /// time (round-trip matching) plus the wall-clock pack duration
  /// (telemetry spans).
  struct PendingSend {
    double send_ns = 0.0;
    double pack_ns = 0.0;
  };
  /// Send stamps awaiting a response, per computation (FIFO).
  std::map<int, std::deque<PendingSend>> pending_round_trips_;
  // Per-computation SLO engine (ISSUE 9). slo_enabled_ keeps the receive
  // path free of engine calls until an objective exists.
  obs::SloEngine slo_{metrics_.name()};
  bool slo_enabled_ = false;
  double last_slo_tick_s_ = -1.0;
  std::set<std::string> warned_;
  // Failure handling (ISSUE 3).
  FailureDetector* detector_ = nullptr;  // not owned
  FallbackPolicy fallback_policy_ = FallbackPolicy::kFailFast;
  std::unique_ptr<sim::SwitchDevice> shadow_device_;
  std::deque<sim::Packet> send_queue_;  // kQueueUntilRecovered buffer
  /// Armed on a DOWN transition; the first fallback send of the outage
  /// triggers a flight-recorder postmortem (ISSUE 6), then disarms.
  bool fallback_dump_armed_ = false;
  Error error_;
  std::function<void(const Error&)> on_error_;
  std::function<void()> on_resync_;
};

/// Everything a heartbeat probe learns in one round trip: the device's
/// current generation (bumps on every restart — offloaded state was lost)
/// and its telemetry clock (the clockbase its INT hop stamps use; fabric
/// time for sim devices, daemon uptime for netcl-swd). Bracket the ping
/// with transport timestamps and feed all three to obs::align_clocks() to
/// place device spans on the host clock.
struct PingInfo {
  std::uint32_t generation = 0;
  std::uint64_t device_clock_ns = 0;
};

/// Control-plane connection to one device (in-fabric or netcl-swd).
///
/// Every state-establishing operation (managed writes, lookup inserts /
/// removes, multicast groups) is journaled, so after a device restart
/// resync() can replay the journal and restore the device to the state the
/// host had offloaded — the control-plane half of failover recovery.
///
/// Error reporting (ISSUE 5): every operation has two forms. The `*_e()`
/// form returns a typed runtime::Error — kTimeout / kDisconnected for
/// transport failures, kDeviceDown while the device is crashed, kRejected
/// when the device answered and refused the op. The bool form is a
/// one-line wrapper (`err.ok()`) kept for call sites that only branch.
class DeviceConnection {
 public:
  /// In-fabric device.
  DeviceConnection(sim::Fabric& fabric, std::uint16_t device_id);
  /// Real device: connects to a netcl-swd control endpoint (IPv4 literal)
  /// and pings it for the device id. `options` bounds every control
  /// operation (connect/request deadlines, retry budget).
  DeviceConnection(const std::string& host, std::uint16_t control_port,
                   const net::ControlClientOptions& options = {});
  ~DeviceConnection();

  [[nodiscard]] bool valid() const;
  [[nodiscard]] std::uint16_t device_id() const { return device_id_; }

  /// The heartbeat probe: one round trip fills the PingInfo (generation +
  /// telemetry clock). Sim devices are unreachable while the fabric has
  /// them crashed. This is what a FailureDetector's ProbeFn should call.
  [[nodiscard]] Error ping_e(PingInfo& info);
  bool ping(PingInfo& info) { return ping_e(info).ok(); }
  /// Last transport-level failure from the remote control client (empty
  /// for sim devices, which cannot time out).
  [[nodiscard]] Error last_error() const;

  /// ncl::managed_write / ncl::managed_read. Indices address the memory as
  /// declared in the NetCL source (partitioning renames are transparent).
  [[nodiscard]] Error managed_write_e(const std::string& name, std::uint64_t value,
                                      const std::vector<std::uint64_t>& indices = {});
  [[nodiscard]] Error managed_read_e(const std::string& name, std::uint64_t& out,
                                     const std::vector<std::uint64_t>& indices = {});
  bool managed_write(const std::string& name, std::uint64_t value,
                     const std::vector<std::uint64_t>& indices = {}) {
    return managed_write_e(name, value, indices).ok();
  }
  bool managed_read(const std::string& name, std::uint64_t& out,
                    const std::vector<std::uint64_t>& indices = {}) {
    return managed_read_e(name, out, indices).ok();
  }

  /// _managed_ _lookup_ entry management (insert replaces same-key entries).
  [[nodiscard]] Error insert_e(const std::string& table, std::uint64_t key,
                               std::uint64_t value);
  [[nodiscard]] Error insert_range_e(const std::string& table, std::uint64_t lo,
                                     std::uint64_t hi, std::uint64_t value);
  [[nodiscard]] Error remove_e(const std::string& table, std::uint64_t key);
  bool insert(const std::string& table, std::uint64_t key, std::uint64_t value) {
    return insert_e(table, key, value).ok();
  }
  bool insert_range(const std::string& table, std::uint64_t lo, std::uint64_t hi,
                    std::uint64_t value) {
    return insert_range_e(table, lo, hi, value).ok();
  }
  bool remove(const std::string& table, std::uint64_t key) {
    return remove_e(table, key).ok();
  }

  /// Configures a multicast group on the device (fabric groups for sim
  /// devices; learned-endpoint groups on a netcl-swd daemon).
  [[nodiscard]] Error set_multicast_group_e(std::uint16_t group,
                                            const std::vector<std::uint16_t>& hosts);
  bool set_multicast_group(std::uint16_t group, const std::vector<std::uint16_t>& hosts) {
    return set_multicast_group_e(group, hosts).ok();
  }

  /// Telemetry read-back over the control plane: the device's packet /
  /// drop / per-stage counters and per-register-array access totals. The
  /// pointer stays valid until the next stats() call.
  [[nodiscard]] const sim::DeviceStats* stats();
  [[nodiscard]] std::map<std::string, sim::RegisterAccess> register_access() const;

  /// Replays the journal of managed writes, lookup entries, and multicast
  /// groups against the device — called after a restart (new generation)
  /// restored it to compiled-in defaults. True when every replay landed.
  /// Only control-plane state is restorable this way; register state the
  /// kernels accumulated internally is genuinely lost.
  [[nodiscard]] Error resync_e();
  bool resync() { return resync_e().ok(); }
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }

  // --- multi-tenant kernel lifecycle (ISSUE 7) ------------------------------
  /// Sim-mode compile hook. Remote connections compile on the daemon; an
  /// in-fabric connection needs a compiler injected (driver::artifact_compiler)
  /// before load_kernel_e / hot_swap_kernel_e can accept source.
  void set_compiler(sim::ProgramCompiler compiler) { compiler_ = std::move(compiler); }

  /// Compiles `source` and loads it as tenant `tenant` through admission
  /// control. kRejected carries the admission resource report (or the
  /// compile diagnostic). On success `stages`/`summary` (if non-null)
  /// receive the program's stage count and the device's headroom line.
  [[nodiscard]] Error load_kernel_e(std::uint32_t tenant, const std::string& name,
                                    const std::string& source,
                                    const std::map<std::string, std::uint64_t>& defines = {},
                                    std::uint16_t* stages = nullptr,
                                    std::string* summary = nullptr);
  [[nodiscard]] Error unload_kernel_e(std::uint32_t tenant);
  [[nodiscard]] Error list_kernels_e(std::vector<net::KernelInfo>& out);
  /// Hitless swap (drain -> swap -> replay): replaces the resident tenant's
  /// program, then resyncs the journal so managed state the host offloaded
  /// survives the new program's fresh register file. Co-resident tenants
  /// keep serving packets throughout.
  [[nodiscard]] Error hot_swap_kernel_e(std::uint32_t tenant, const std::string& name,
                                        const std::string& source,
                                        const std::map<std::string, std::uint64_t>& defines = {},
                                        std::uint16_t* stages = nullptr,
                                        std::string* summary = nullptr);
  bool load_kernel(std::uint32_t tenant, const std::string& name, const std::string& source) {
    return load_kernel_e(tenant, name, source).ok();
  }
  bool unload_kernel(std::uint32_t tenant) { return unload_kernel_e(tenant).ok(); }

 private:
  /// Shared body of load_kernel_e / hot_swap_kernel_e (the `replace` bit).
  [[nodiscard]] Error load_or_swap(std::uint32_t tenant, const std::string& name,
                                   const std::string& source,
                                   const std::map<std::string, std::uint64_t>& defines,
                                   bool replace, std::uint16_t* stages,
                                   std::string* summary);
  /// The typed error for a failed op: the remote client's transport error
  /// when one is pending, kDeviceDown for a crashed sim device,
  /// kDisconnected with no device at all, else kRejected.
  [[nodiscard]] Error op_error(const std::string& what) const;
  sim::Fabric* fabric_ = nullptr;          // sim mode
  sim::SwitchDevice* device_ = nullptr;    // sim mode
  std::unique_ptr<net::ControlClient> remote_;  // netcl-swd mode
  sim::ProgramCompiler compiler_;          // sim-mode kernel loads
  std::uint16_t device_id_ = 0;
  sim::DeviceStats remote_stats_;
  // Resync journal: last value per managed cell / key range / group.
  std::map<std::pair<std::string, std::vector<std::uint64_t>>, std::uint64_t>
      journal_writes_;
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>, std::uint64_t>
      journal_inserts_;
  std::map<std::uint16_t, std::vector<std::uint16_t>> journal_groups_;
  std::uint64_t resyncs_ = 0;
};

}  // namespace netcl::runtime
