// The netcl-swd control-plane protocol: the reliable slow path behind
// ncl::managed_read / ncl::managed_write and _managed_ _lookup_ entry
// management (§V-B) when the device is a real process instead of an
// in-fabric object.
//
// Framing: TCP — an 8-byte preamble ('N' 'C' version reserved + u32 LE
// payload length; see kControlFrameMagic below), then the payload.
// A request payload is u64 client id + u64 request id + u8 opcode +
// operands; a response is u8 kControlOk + results, or, for every op and
// every failure, [kControlError, u8 runtime::ErrorKind, str message]: a
// truncated operand is kMalformed, a refused op kRejected with a message
// naming the op and its object. All integers little-endian (the
// ByteWriter/ByteReader codec in net/wire.hpp). One request, one response,
// in order, per connection.
//
// Failure model (ISSUE 3): every client operation is bounded — non-blocking
// connect with a deadline, poll-based request/response I/O with a deadline,
// and capped-exponential-backoff retries over automatic TCP reconnects.
// Request ids make retries idempotent: the daemon caches the last response
// per client and replays it when a retried request arrives after the
// original was already applied.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "net/buffer_pool.hpp"
#include "net/wire.hpp"
#include "obs/flightrec.hpp"
#include "runtime/error.hpp"
#include "sim/switch.hpp"
#include "support/hashes.hpp"

namespace netcl::net {

enum class ControlOp : std::uint8_t {
  // PONG appends u64 device-clock ns (ISSUE 4, clock alignment for INT
  // stamps); pre-existing readers stop after the generation and never see
  // it — ByteReader tolerates trailing bytes.
  kPing = 1,            // -> u16 device_id, u32 generation, u64 device_clock_ns
  kManagedWrite = 2,    // str name, u64_vec indices, u64 value
  kManagedRead = 3,     // str name, u64_vec indices -> u64 value
  kInsert = 4,          // str table, u64 key_lo, u64 key_hi, u64 value
  kRemove = 5,          // str table, u64 key
  kStats = 6,           // -> DeviceStats (encode_stats layout)
  kRegisterAccess = 7,  // -> u16 count, { str name, u64 reads, u64 writes }*
  kSetMulticastGroup = 8,  // u16 group, u16 count, u16 host_id*
  kMetricsText = 9,        // -> raw Prometheus exposition (same body as --metrics-port)
  // Flight-recorder fetch (ISSUE 6): the daemon's last `u32 window_s`
  // seconds of events, timestamps converted to the device clock (the
  // clockbase PONG exposes, so align_clocks() can merge them with host
  // events). -> u64 device_clock_now_ns, u32 count,
  //            { u64 ts_device_ns, u16 kind, u16 ring, u64 a, u64 b }*
  kFlightDump = 10,
  // Multi-tenant kernel lifecycle (ISSUE 7). The daemon compiles the
  // shipped source with its injected sim::ProgramCompiler and loads it
  // through admission control (sim::install_kernel). Source travels as u32
  // length + raw bytes because str()'s u16 prefix would cap kernels at
  // 64 KiB. A compile diagnostic or an admission report is the failure
  // body's message.
  // u32 tenant, u8 flags (bit0 = replace/hitless-swap), str name,
  // u16 n_defines { str name, u64 value }*, u32 src_len, raw source
  //   -> u16 stages_used, str admission summary
  kLoadKernel = 11,
  kUnloadKernel = 12,  // u32 tenant ->
  // -> u16 count, { u32 tenant, str name, u16 stages_used,
  //                 u16 n_comps u32 comp*, str usage,
  //                 u64 packets_processed, u64 kernels_executed,
  //                 u64 drops_action }*
  kListKernels = 13,
  // Continuous profiling (ISSUE 9): snapshot the daemon's cumulative
  // folded-stack CPU profile. u8 flags (bit0 = write a
  // profile_<label>_<n>.folded file next to the flight dumps, bit1 =
  // return the folded text in the response).
  // -> u64 samples, u64 distinct_stacks, u32 hz (0 = profiler off),
  //    str path (empty unless bit0), u32 text_len + raw folded text
  //    (text_len 0 unless bit1)
  kProfileDump = 14,
};

/// kProfileDump request flags.
inline constexpr std::uint8_t kProfileWriteFile = 1u << 0;
inline constexpr std::uint8_t kProfileReturnText = 1u << 1;

inline constexpr std::uint8_t kControlOk = 0;
inline constexpr std::uint8_t kControlError = 1;
/// Frames larger than this are a protocol violation: the daemon answers a
/// typed kMalformed error and closes, *before* buffering any payload (a
/// stats response is well under 1 KiB, kernel sources under 64 KiB).
inline constexpr std::uint32_t kMaxControlFrame = 1u << 20;

/// Control frames start with a magic + version preamble (ISSUE 8), so a
/// stray HTTP request, a NetCL *data* packet, or a future incompatible
/// protocol revision aimed at the control port fails closed instead of
/// being interpreted as a length prefix:
///   'N' 'C' u8 version u8 reserved(0) | u32 LE payload length | payload
inline constexpr std::uint8_t kControlFrameMagic[2] = {'N', 'C'};
inline constexpr std::uint8_t kControlFrameVersion = 1;
inline constexpr std::size_t kControlFrameHeaderBytes = 8;

/// Incremental frame-header classification for byte-stream parsers.
enum class FrameParse : std::uint8_t {
  kNeedMore,   // fewer than kControlFrameHeaderBytes buffered
  kFrame,      // header valid; `length` payload bytes follow it
  kMalformed,  // bad magic / version / reserved byte / oversize length
};

/// Inspects the start of `data` for one frame header. Never reads past the
/// header and never allocates; on kMalformed, `error` says why. Shared by
/// the daemon's inbox scanner and read_frame so client and server can
/// never disagree about framing.
FrameParse parse_frame_header(std::span<const std::uint8_t> data, std::uint32_t& length,
                              runtime::Error& error);

/// Absolute deadline on the wall clock for bounded socket operations.
using ControlDeadline = std::chrono::steady_clock::time_point;

// --- frame + struct codec helpers (shared by client and daemon) -------------

/// Blocking full-buffer read/write; false on EOF or error.
bool read_exact(int fd, std::uint8_t* out, std::size_t n);
bool write_all(int fd, const std::uint8_t* data, std::size_t n);
/// Appends one frame (preamble + payload) to `out`.
void append_frame(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> payload);
/// One length-prefixed frame.
bool write_frame(int fd, const std::vector<std::uint8_t>& payload);
bool read_frame(int fd, std::vector<std::uint8_t>& payload);

/// Deadline-bounded variants for non-blocking fds: poll(2) until the fd is
/// ready or the deadline passes; false on EOF, error, or deadline.
bool read_exact(int fd, std::uint8_t* out, std::size_t n, ControlDeadline deadline);
bool write_all(int fd, const std::uint8_t* data, std::size_t n, ControlDeadline deadline);
bool write_frame(int fd, const std::vector<std::uint8_t>& payload, ControlDeadline deadline);
bool read_frame(int fd, std::vector<std::uint8_t>& payload, ControlDeadline deadline);

void encode_stats(ByteWriter& w, const sim::DeviceStats& stats);
bool decode_stats(ByteReader& r, sim::DeviceStats& out);

/// Deadlines and retry budget for one ControlClient. Backoff between retry
/// attempts is exponential from backoff_base_ms, capped at backoff_max_ms,
/// with ±50% multiplicative jitter so a fleet of clients does not retry in
/// lockstep against a recovering daemon.
struct ControlClientOptions {
  double connect_timeout_ms = 1000.0;
  double request_timeout_ms = 2000.0;
  /// Additional attempts after the first; each reconnects if needed.
  int max_retries = 2;
  double backoff_base_ms = 10.0;
  double backoff_max_ms = 250.0;
};

/// TCP control-plane client with bounded blocking. DeviceConnection wraps
/// one of these when pointed at a netcl-swd daemon, so host programs use
/// the exact same managed-memory API against sim and real devices.
///
/// Every op returns a runtime::Error (empty = success): kTimeout or
/// kDisconnected when the transport failed, the daemon's own ErrorKind and
/// message when it answered and refused (kRejected, kMalformed), and
/// kMalformed when a reply does not decode.
class ControlClient {
 public:
  /// Attempts the first connect immediately (IPv4 literal host), bounded
  /// by connect_timeout_ms; a failed connect leaves the client usable —
  /// the next request reconnects automatically.
  ControlClient(const std::string& host, std::uint16_t port,
                const ControlClientOptions& options = {});
  ~ControlClient();
  ControlClient(const ControlClient&) = delete;
  ControlClient& operator=(const ControlClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  /// (Re)establishes the connection within connect_timeout_ms.
  runtime::Error connect_now();

  /// The heartbeat: PONG carries the device id, the device generation
  /// (bumps on every daemon restart: stale offloaded state) and the
  /// device's telemetry clock (ns on the clockbase the daemon stamps
  /// TelemetryHops with). Bracket the call with local transport timestamps
  /// and feed all three to obs::align_clocks().
  [[nodiscard]] runtime::Error ping(std::uint16_t& device_id, std::uint32_t& generation,
                                    std::uint64_t& device_clock_ns);
  [[nodiscard]] runtime::Error managed_write(const std::string& name,
                                             const std::vector<std::uint64_t>& indices,
                                             std::uint64_t value);
  [[nodiscard]] runtime::Error managed_read(const std::string& name,
                                            const std::vector<std::uint64_t>& indices,
                                            std::uint64_t& out);
  [[nodiscard]] runtime::Error insert(const std::string& table, std::uint64_t key_lo,
                                      std::uint64_t key_hi, std::uint64_t value);
  [[nodiscard]] runtime::Error remove(const std::string& table, std::uint64_t key);
  [[nodiscard]] runtime::Error stats(sim::DeviceStats& out);
  [[nodiscard]] runtime::Error register_access(
      std::map<std::string, sim::RegisterAccess>& out);
  [[nodiscard]] runtime::Error set_multicast_group(std::uint16_t group,
                                                   const std::vector<std::uint16_t>& hosts);
  /// Fetches the daemon's Prometheus text exposition over the control
  /// plane — same body --metrics-port serves, for clients that already
  /// hold a control connection (ncl-top's fallback path).
  [[nodiscard]] runtime::Error metrics_text(std::string& out);

  /// The daemon's flight-recorder events from the last `window_seconds`
  /// (0 = the recorder's default window), ready to merge into a local
  /// postmortem as an obs::FlightStream.
  struct FlightDumpResult {
    /// host_flight_clock ≈ device_clock + offset_ns, estimated by
    /// obs::align_clocks over this very round trip — feed it straight to
    /// FlightStream::offset_ns (and SpanCollector::set_clock_offset).
    double offset_ns = 0.0;
    std::uint64_t device_clock_now_ns = 0;
    /// Timestamps on the daemon's device clock, oldest first.
    std::vector<obs::FlightEvent> events;
  };
  [[nodiscard]] runtime::Error flight_dump(std::uint32_t window_seconds, FlightDumpResult& out);

  /// The daemon's cumulative CPU profile (ISSUE 9).
  struct ProfileDumpResult {
    std::uint64_t samples = 0;
    std::uint64_t distinct_stacks = 0;
    /// Sampling rate, 0 when the daemon runs without --profile.
    std::uint32_t hz = 0;
    /// Daemon-side path of the written .folded file (kProfileWriteFile).
    std::string path;
    /// Folded-stack text (kProfileReturnText) — one "stack count" line
    /// per distinct stack.
    std::string folded;
  };
  /// `flags` is a bitmask of kProfileWriteFile / kProfileReturnText.
  [[nodiscard]] runtime::Error profile_dump(std::uint8_t flags, ProfileDumpResult& out);

  // --- multi-tenant kernel lifecycle (ISSUE 7) ------------------------------
  /// Compiles `source` on the daemon and loads it as `tenant`. With
  /// `replace` set, swaps a resident tenant's program hitlessly instead.
  /// A rejection carries the admission resource report or the compile
  /// diagnostic. On success `stages_used`/`summary` (if non-null) receive
  /// the new program's stage count and the device's admission headroom line.
  [[nodiscard]] runtime::Error load_kernel(std::uint32_t tenant, const std::string& name,
                                           const std::string& source,
                                           const std::map<std::string, std::uint64_t>& defines,
                                           bool replace, std::uint16_t* stages_used = nullptr,
                                           std::string* summary = nullptr);
  [[nodiscard]] runtime::Error unload_kernel(std::uint32_t tenant);
  [[nodiscard]] runtime::Error list_kernels(std::vector<sim::TenantInfo>& out);

 private:
  /// Sends one request frame and reads the response, retrying with backoff
  /// and reconnect up to max_retries. On kControlOk `response` receives the
  /// body past the status byte; on kControlError the daemon's typed body
  /// is returned (kMalformed when it does not decode), and a refusal is
  /// not retried.
  runtime::Error roundtrip(const ByteWriter& request, std::vector<std::uint8_t>& response);
  void disconnect();
  /// Capped exponential backoff with jitter before retry `attempt` (1-based).
  void backoff(int attempt);

  std::string host_;
  std::uint16_t port_ = 0;
  ControlClientOptions options_;
  int fd_ = -1;
  std::uint64_t client_id_ = 0;
  std::uint64_t next_request_id_ = 1;
  SplitMix64 jitter_;
  /// Response-frame buffers recycled across requests (ISSUE 5): read_frame
  /// resizes into previously grown capacity, so a steady control-plane
  /// workload stops allocating per round trip.
  BufferPool pool_;
};

}  // namespace netcl::net
