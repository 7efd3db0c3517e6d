// Always-on flight recorder (ISSUE 6): allocation-free event journal with
// anomaly-triggered postmortem dumps.
//
// Every hot-path layer (UdpTransport batches, SwdServer poll cycles, the
// control plane's retry/backoff machinery, RetransmitWindow timers, the
// FailureDetector/HostRuntime state machines) stamps compact fixed-size
// binary events into per-thread SPSC ring buffers. Recording is one clock
// read, a 32-byte store, and a release bump of the ring head — no
// allocation, no locks, no formatting — so the recorder can stay on in
// production (bench/bench_obs_overhead.cpp gates the cost at ≤5% pps on
// the batched loopback path). When a ring wraps before anyone reads it the
// oldest events are overwritten and counted in dropped_events(); the hot
// path never blocks.
//
// Dumps are *triggered*, not periodic: a DOWN transition, an exhausted
// retry budget, fallback entry, SIGUSR2, the kFlightDump control op, or
// the `d` key in ncl-top all snapshot the last N seconds from every ring
// into a merged, timestamp-sorted JSONL + Chrome-trace pair. A dump can
// splice in streams from other processes (the netcl-swd daemon ships its
// rings over kFlightDump); per-stream clock offsets from
// obs::align_clocks() land every stream on the local flight clock, so the
// postmortem shows host sends, daemon polls, heartbeat misses, and the
// DOWN transition in one causally ordered timeline.
//
// The per-thread ring-ownership shape here is deliberately the one the
// sharded runtime (ROADMAP #1) will inherit: one writer per ring, readers
// only at snapshot time.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace netcl::obs {

/// What happened. Values are wire-visible (the kFlightDump control op
/// ships them as u16), so only append — never renumber.
enum class FlightKind : std::uint16_t {
  kNone = 0,
  // UdpTransport data plane.
  kBatchSend = 1,     // a=packets requested, b=packets sent
  kBatchRecv = 2,     // a=packets delivered this drain
  kGsoSend = 3,       // a=segments in the GSO super-datagram, b=payload bytes
  kSendmmsg = 4,      // a=datagrams accepted by one batched send, b=batch size
  kSendPartial = 5,   // a=accepted so far, b=remaining (EAGAIN/partial completion)
  kSendError = 6,     // a=errno
  // netcl-swd daemon.
  kPollCycle = 7,     // a=fds ready, b=datagrams drained this cycle
  // Control plane (net::ControlClient).
  kControlRequest = 8,    // a=ControlOp, b=request payload bytes
  kControlRetry = 9,      // a=ControlOp, b=attempt number
  kControlBackoff = 10,   // a=backoff ms, b=attempt number
  kControlReconnect = 11, // a=1 on success, 0 on failure
  // runtime::RetransmitWindow.
  kRetransmit = 12,        // a=slot, b=attempt number
  kRetriesExhausted = 13,  // a=slot, b=attempts spent
  // runtime::FailureDetector / HostRuntime.
  kHeartbeatOk = 14,      // a=device generation
  kHeartbeatMiss = 15,    // a=consecutive misses, b=miss threshold
  kDeviceDown = 16,       // a=consecutive misses, b=last known generation
  kDeviceUp = 17,         // a=device generation, b=outage duration ns
  kGenerationChange = 18, // a=old generation, b=new generation
  kFallback = 19,         // a=FallbackPolicy, b=queued packets
  kQueueFlush = 20,       // a=packets flushed, b=packets dropped
  kResync = 21,           // a=packets replayed, b=new generation
  // The recorder itself.
  kDump = 22,  // a=trigger ordinal (see FlightRecorder::trigger_dump)
  // Multi-tenant kernel lifecycle (ISSUE 7).
  kKernelLoad = 23,           // a=tenant id, b=stages used
  kKernelUnload = 24,         // a=tenant id
  kKernelSwap = 25,           // a=tenant id, b=stages used (new program)
  kUnknownComputation = 26,   // a=computation id, b=device id
  // Hostile-wire hardening and overload control (ISSUE 8).
  kMalformedDatagram = 27,    // a=source IPv4 (host order), b=source port
  kPolicerShed = 28,          // a=tenant id, b=packets shed from it so far
  kQueueShed = 29,            // a=tenant id of the dropped-oldest packet, b=queue capacity
  kControlMalformed = 30,     // a=buffered bytes when the stream went bad
  kSlowReadReap = 31,         // a=buffered bytes of the stalled frame, b=stall seconds
  // Continuous profiling + per-tenant SLOs (ISSUE 9).
  kSloFastBurn = 32,   // a=tenant id, b=short-window burn rate × 100
  kSloRecovered = 33,  // a=tenant id, b=previous state (SloState)
  kProfileDump = 34,   // a=samples captured so far, b=distinct stacks
  // net::DatagramSocket receive.
  kRecvTruncated = 35,  // a=message bytes received, b=msg_flags (MSG_TRUNC/MSG_CTRUNC)
  kRecvDropped = 36,    // a=datagrams the kernel newly dropped, b=its running drop count
};

/// Stable snake_case name for JSONL/trace output ("device_down", ...).
[[nodiscard]] const char* to_string(FlightKind kind);

/// One journal entry. 32 bytes, fixed layout; `ring` identifies the
/// writing thread (registration order), `seq` disambiguates events that
/// share a timestamp within a ring.
struct FlightEvent {
  std::uint64_t ts_ns = 0;  // flight_now_ns() at record time
  std::uint16_t kind = 0;   // FlightKind
  std::uint16_t ring = 0;
  std::uint32_t seq = 0;    // low 32 bits of the ring sequence number
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(sizeof(FlightEvent) == 32, "events must stay compact and fixed-size");

/// The flight clock: raw steady_clock nanoseconds. Every process on one
/// machine shares this clock base, and netcl-swd's device_clock_ns() is
/// this clock minus the server epoch — which is what lets kFlightDump
/// responses be re-aligned with obs::align_clocks().
[[nodiscard]] std::uint64_t flight_now_ns();

/// Events from another process (or another recorder), to be merged into a
/// postmortem. `offset_ns` maps the stream's clock onto the local flight
/// clock: local_ts ≈ stream_ts + offset_ns.
struct FlightStream {
  std::string process;
  double offset_ns = 0.0;
  std::vector<FlightEvent> events;
};

/// Process-wide recorder. Threads register a ring lazily on their first
/// record(); rings are never freed (bounded by thread count), so a ring
/// pointer cached in a thread_local stays valid for the process lifetime.
class FlightRecorder {
 public:
  /// Events per ring (power of two). 4096 × 32 B = 128 KiB per thread —
  /// several seconds of history at data-plane event rates.
  static constexpr std::uint64_t kRingCapacity = 1u << 12;
  /// Default postmortem window: the last 30 s of events.
  static constexpr std::uint64_t kDefaultWindowNs = 30ull * 1000 * 1000 * 1000;
  /// Minimum spacing between triggered dumps; a storm of DOWN transitions
  /// produces one postmortem, not hundreds.
  static constexpr std::uint64_t kDumpIntervalNs = 2ull * 1000 * 1000 * 1000;

  /// The singleton. Never destroyed (intentionally leaked) so records from
  /// static-destruction-time code are safe.
  static FlightRecorder& instance();

  /// Hot path. With the recorder disabled this is one relaxed load.
  void record(FlightKind kind, std::uint64_t a = 0, std::uint64_t b = 0);

  /// The recorder is on by default (always-on is the point); the
  /// NETCL_FLIGHT=0 environment variable pre-disables it at process start
  /// and set_enabled() flips it at runtime (bench uses this).
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Label stamped into postmortems as the local stream's process name
  /// ("host", "netcl-swd", ...). Defaults to "host".
  void set_process_label(std::string label);
  [[nodiscard]] std::string process_label() const;

  /// Merged, timestamp-sorted copy of every ring's events from the last
  /// `window_ns` nanoseconds. Lock-free with respect to writers: a slot
  /// overwritten mid-copy is detected by re-reading the ring head and the
  /// torn events are discarded (counted as dropped).
  [[nodiscard]] std::vector<FlightEvent> snapshot(
      std::uint64_t window_ns = kDefaultWindowNs) const;

  /// Cumulative events lost to ring wrap (overwritten before any snapshot
  /// read them) across all rings.
  [[nodiscard]] std::uint64_t dropped_events() const;
  /// Rings registered so far (== distinct recording threads).
  [[nodiscard]] std::size_t ring_count() const;

  /// Writes `<path_base>.jsonl` (one event object per line) and
  /// `<path_base>.trace.json` (chrome://tracing instant events, one pid
  /// lane per process stream, one tid per ring). Extra streams are merged
  /// after applying their clock offsets. Returns false on I/O failure.
  bool write_postmortem(const std::string& path_base,
                        const std::vector<FlightStream>& extra_streams = {},
                        std::uint64_t window_ns = kDefaultWindowNs) const;

  /// Anomaly hook: rate-limited write_postmortem into the directory named
  /// by NETCL_FLIGHT_DIR (default "."), file stem
  /// `flightdump_<label>_<n>`. Returns the path base written, or "" when
  /// suppressed (rate limit / recorder disabled / I/O failure). Safe to
  /// call from any thread; `reason` lands in the kDump event and the
  /// postmortem filename is logged by the caller, not here.
  std::string trigger_dump(std::string_view reason,
                           const std::vector<FlightStream>& extra_streams = {});

  /// Postmortems written / suppressed by trigger_dump (rate limiting).
  [[nodiscard]] std::uint64_t dumps_written() const {
    return dumps_written_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dumps_suppressed() const {
    return dumps_suppressed_.load(std::memory_order_relaxed);
  }

  // -- SIGUSR2 ------------------------------------------------------------
  // The handler only sets an atomic flag (async-signal-safe); some poll
  // loop (netcl-swd's, or any caller's) consumes the flag and performs the
  // dump outside signal context.

  /// Installs the SIGUSR2 handler (idempotent).
  static void install_signal_handler();
  /// What the handler does; exposed for tests (raise-free).
  static void request_signal_dump();
  /// True exactly once per requested signal dump.
  [[nodiscard]] static bool consume_signal_dump();

 private:
  struct Ring;

  FlightRecorder();
  ~FlightRecorder() = delete;

  Ring& ring_for_this_thread();

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> last_dump_ns_{0};
  std::atomic<std::uint64_t> dumps_written_{0};
  std::atomic<std::uint64_t> dumps_suppressed_{0};
  std::atomic<std::uint64_t> dump_seq_{0};

  // Registration/snapshot bookkeeping (cold path only).
  struct Impl;
  Impl* impl_;  // leaked with the singleton
};

/// Convenience: FlightRecorder::instance().record(...). This is the call
/// instrumentation sites use.
inline void flight(FlightKind kind, std::uint64_t a = 0, std::uint64_t b = 0) {
  FlightRecorder::instance().record(kind, a, b);
}

}  // namespace netcl::obs
