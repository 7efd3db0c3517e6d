#include "net/control.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>

#include "obs/span.hpp"

namespace netcl::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Remaining budget in whole milliseconds (>= 0); -1 never happens — an
/// expired deadline yields 0 so poll returns immediately.
int remaining_ms(ControlDeadline deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return static_cast<int>(std::max<std::int64_t>(left.count(), 0));
}

bool deadline_passed(ControlDeadline deadline) {
  return std::chrono::steady_clock::now() >= deadline;
}

/// The request for `op`, its operands still to be appended.
ByteWriter request_for(ControlOp op) {
  ByteWriter request;
  request.u8(static_cast<std::uint8_t>(op));
  return request;
}

/// What an op returns when its reply does not decode.
runtime::Error malformed_reply(const char* op) {
  return {runtime::ErrorKind::kMalformed, std::string("malformed ") + op + " reply"};
}

/// One frame (preamble + payload) in a single buffer.
std::vector<std::uint8_t> make_frame(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, payload);
  return frame;
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> payload) {
  const auto length = static_cast<std::uint32_t>(payload.size());
  const std::uint8_t header[kControlFrameHeaderBytes] = {
      kControlFrameMagic[0],
      kControlFrameMagic[1],
      kControlFrameVersion,
      0,  // reserved, must be zero
      static_cast<std::uint8_t>(length),
      static_cast<std::uint8_t>(length >> 8),
      static_cast<std::uint8_t>(length >> 16),
      static_cast<std::uint8_t>(length >> 24)};
  out.insert(out.end(), std::begin(header), std::end(header));
  out.insert(out.end(), payload.begin(), payload.end());
}

FrameParse parse_frame_header(std::span<const std::uint8_t> data, std::uint32_t& length,
                              runtime::Error& error) {
  if (data.size() < kControlFrameHeaderBytes) return FrameParse::kNeedMore;
  if (data[0] != kControlFrameMagic[0] || data[1] != kControlFrameMagic[1]) {
    error = {runtime::ErrorKind::kMalformed, "bad control frame magic"};
    return FrameParse::kMalformed;
  }
  if (data[2] != kControlFrameVersion) {
    error = {runtime::ErrorKind::kMalformed,
             "unsupported control protocol version " + std::to_string(data[2])};
    return FrameParse::kMalformed;
  }
  if (data[3] != 0) {
    error = {runtime::ErrorKind::kMalformed, "nonzero reserved byte in control frame"};
    return FrameParse::kMalformed;
  }
  ByteReader reader(data.subspan(4, 4));
  length = reader.u32();
  if (length > kMaxControlFrame) {
    error = {runtime::ErrorKind::kMalformed,
             "control frame length " + std::to_string(length) + " exceeds max " +
                 std::to_string(kMaxControlFrame)};
    return FrameParse::kMalformed;
  }
  return FrameParse::kFrame;
}

bool read_exact(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r == 0) return false;  // EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that died mid-write is a return value (EPIPE),
    // not a process-killing SIGPIPE.
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

bool write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  // Single send(); see the deadline overload for the Nagle rationale.
  const std::vector<std::uint8_t> frame = make_frame(payload);
  return write_all(fd, frame.data(), frame.size());
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload) {
  std::uint8_t header[kControlFrameHeaderBytes];
  if (!read_exact(fd, header, sizeof(header))) return false;
  std::uint32_t length = 0;
  runtime::Error error;
  // Validate (magic, version, length bound) before sizing any buffer.
  if (parse_frame_header({header, sizeof(header)}, length, error) != FrameParse::kFrame) {
    return false;
  }
  payload.resize(length);
  return length == 0 || read_exact(fd, payload.data(), length);
}

bool read_exact(int fd, std::uint8_t* out, std::size_t n, ControlDeadline deadline) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r == 0) return false;  // EOF
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    if (deadline_passed(deadline)) return false;
    pollfd pfd{fd, POLLIN, 0};
    ::poll(&pfd, 1, remaining_ms(deadline));
  }
  return true;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t n, ControlDeadline deadline) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w >= 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    if (deadline_passed(deadline)) return false;
    pollfd pfd{fd, POLLOUT, 0};
    ::poll(&pfd, 1, remaining_ms(deadline));
  }
  return true;
}

bool write_frame(int fd, const std::vector<std::uint8_t>& payload, ControlDeadline deadline) {
  // One send(), not header-then-payload: two small writes trip Nagle +
  // delayed-ACK (~40 ms per frame on loopback), which would dominate the
  // control RTT and ruin PING-based clock alignment (ISSUE 4).
  const std::vector<std::uint8_t> frame = make_frame(payload);
  return write_all(fd, frame.data(), frame.size(), deadline);
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload, ControlDeadline deadline) {
  std::uint8_t header[kControlFrameHeaderBytes];
  if (!read_exact(fd, header, sizeof(header), deadline)) return false;
  std::uint32_t length = 0;
  runtime::Error error;
  if (parse_frame_header({header, sizeof(header)}, length, error) != FrameParse::kFrame) {
    return false;
  }
  payload.resize(length);
  return length == 0 || read_exact(fd, payload.data(), length, deadline);
}

void encode_stats(ByteWriter& w, const sim::DeviceStats& stats) {
  w.u64(stats.packets_processed);
  w.u64(stats.kernels_executed);
  w.u64(stats.no_kernel);
  w.u64(stats.drops_action);
  w.u64(stats.multicasts);
  w.u64(stats.transits);
  w.u64(stats.recirculations);
  w.u64(stats.control_reads);
  w.u64(stats.control_writes);
  w.u64_vec(stats.stage_executions);
}

bool decode_stats(ByteReader& r, sim::DeviceStats& out) {
  out.packets_processed = r.u64();
  out.kernels_executed = r.u64();
  out.no_kernel = r.u64();
  out.drops_action = r.u64();
  out.multicasts = r.u64();
  out.transits = r.u64();
  out.recirculations = r.u64();
  out.control_reads = r.u64();
  out.control_writes = r.u64();
  out.stage_executions = r.u64_vec();
  return r.ok();
}

ControlClient::ControlClient(const std::string& host, std::uint16_t port,
                             const ControlClientOptions& options)
    : host_(host),
      port_(port),
      options_(options),
      // Unique-enough across processes and instances: the daemon's
      // idempotency cache is keyed by it. No determinism requirement here —
      // collisions would only merge two clients' replay slots.
      client_id_(static_cast<std::uint64_t>(
                     std::chrono::steady_clock::now().time_since_epoch().count()) ^
                 (reinterpret_cast<std::uintptr_t>(this) << 16) ^
                 static_cast<std::uint64_t>(::getpid())),
      jitter_(client_id_) {
  connect_now();
}

ControlClient::~ControlClient() { disconnect(); }

void ControlClient::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

runtime::Error ControlClient::connect_now() {
  using runtime::ErrorKind;
  if (fd_ >= 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    return {ErrorKind::kDisconnected, "invalid control host '" + host_ + "'"};
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return {ErrorKind::kDisconnected, std::string("socket: ") + std::strerror(errno)};
  // Non-blocking from the start: connect against a partitioned host would
  // otherwise block for minutes; here it is bounded by connect_timeout_ms.
  set_nonblocking(fd_);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      runtime::Error err{ErrorKind::kDisconnected, std::string("connect: ") + std::strerror(errno)};
      disconnect();
      return err;
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<long>(options_.connect_timeout_ms));
    pollfd pfd{fd_, POLLOUT, 0};
    int ready = 0;
    do {
      ready = ::poll(&pfd, 1, remaining_ms(deadline));
    } while (ready < 0 && errno == EINTR && !deadline_passed(deadline));
    if (ready <= 0) {
      disconnect();
      return {ErrorKind::kTimeout, "connect to " + host_ + " timed out"};
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      disconnect();
      obs::flight(obs::FlightKind::kControlReconnect, 0);
      return {ErrorKind::kDisconnected, std::string("connect: ") + std::strerror(so_error)};
    }
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  obs::flight(obs::FlightKind::kControlReconnect, 1);
  return {};
}

void ControlClient::backoff(int attempt) {
  const double exponent = std::min(attempt - 1, 20);  // avoid overflow
  const double base = std::min(options_.backoff_base_ms * std::pow(2.0, exponent),
                               options_.backoff_max_ms);
  // ±50% multiplicative jitter so retry storms decorrelate.
  const double delay_ms = base * (0.5 + jitter_.next_double());
  obs::flight(obs::FlightKind::kControlBackoff, static_cast<std::uint64_t>(delay_ms),
              static_cast<std::uint64_t>(attempt));
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay_ms));
}

runtime::Error ControlClient::roundtrip(const ByteWriter& request,
                                        std::vector<std::uint8_t>& response) {
  // One id for all attempts of this logical request: the daemon dedups on
  // (client_id, request_id), so a retry after a half-applied request
  // replays the cached response instead of re-executing the op.
  ByteWriter framed;
  framed.u64(client_id_);
  framed.u64(next_request_id_++);
  framed.raw(request.bytes());

  // Pooled frame buffer: read_frame resizes into recycled capacity, so
  // the steady-state control plane does not allocate per round trip.
  const std::uint64_t op = request.bytes().empty() ? 0 : request.bytes()[0];
  obs::flight(obs::FlightKind::kControlRequest, op, request.bytes().size());
  std::vector<std::uint8_t> frame = pool_.acquire();
  runtime::Error err;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      obs::flight(obs::FlightKind::kControlRetry, op, static_cast<std::uint64_t>(attempt));
      backoff(attempt);
    }
    if (fd_ < 0) {
      err = connect_now();
      if (err) continue;
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<long>(options_.request_timeout_ms));
    if (write_frame(fd_, framed.bytes(), deadline) && read_frame(fd_, frame, deadline)) {
      if (!frame.empty() && frame[0] == kControlOk) {
        response.assign(frame.begin() + 1, frame.end());
        err = {};
      } else {
        // The daemon answered and refused the op: not a transport failure,
        // so no retry. Its body is [u8 ErrorKind, str message].
        ByteReader reader(std::span<const std::uint8_t>(frame).subspan(frame.empty() ? 0 : 1));
        const std::uint8_t kind = reader.u8();
        std::string message = reader.str();
        const bool typed =
            reader.ok() && kind != 0 &&
            kind <= static_cast<std::uint8_t>(runtime::ErrorKind::kMalformed);
        err = typed ? runtime::Error(static_cast<runtime::ErrorKind>(kind), std::move(message))
                    : malformed_reply("kControlError");
      }
      pool_.release(std::move(frame));
      return err;
    }
    // A broken or stalled stream cannot carry further requests; close and
    // reconnect on the next attempt.
    err = {deadline_passed(deadline) ? runtime::ErrorKind::kTimeout
                                     : runtime::ErrorKind::kDisconnected,
           "control request to " + host_ + ":" + std::to_string(port_) + " failed (attempt " +
               std::to_string(attempt + 1) + ")"};
    disconnect();
  }
  pool_.release(std::move(frame));
  return err;
}

runtime::Error ControlClient::ping(std::uint16_t& device_id, std::uint32_t& generation,
                                   std::uint64_t& device_clock_ns) {
  std::vector<std::uint8_t> response;
  if (runtime::Error err = roundtrip(request_for(ControlOp::kPing), response)) return err;
  ByteReader reader(response);
  device_id = reader.u16();
  generation = reader.u32();
  device_clock_ns = reader.u64();
  return reader.ok() ? runtime::Error{} : malformed_reply("kPing");
}

runtime::Error ControlClient::managed_write(const std::string& name,
                                            const std::vector<std::uint64_t>& indices,
                                            std::uint64_t value) {
  ByteWriter request = request_for(ControlOp::kManagedWrite);
  request.str(name);
  request.u64_vec(indices);
  request.u64(value);
  std::vector<std::uint8_t> response;
  return roundtrip(request, response);
}

runtime::Error ControlClient::managed_read(const std::string& name,
                                           const std::vector<std::uint64_t>& indices,
                                           std::uint64_t& out) {
  ByteWriter request = request_for(ControlOp::kManagedRead);
  request.str(name);
  request.u64_vec(indices);
  std::vector<std::uint8_t> response;
  if (runtime::Error err = roundtrip(request, response)) return err;
  ByteReader reader(response);
  out = reader.u64();
  return reader.ok() ? runtime::Error{} : malformed_reply("kManagedRead");
}

runtime::Error ControlClient::insert(const std::string& table, std::uint64_t key_lo,
                                     std::uint64_t key_hi, std::uint64_t value) {
  ByteWriter request = request_for(ControlOp::kInsert);
  request.str(table);
  request.u64(key_lo);
  request.u64(key_hi);
  request.u64(value);
  std::vector<std::uint8_t> response;
  return roundtrip(request, response);
}

runtime::Error ControlClient::remove(const std::string& table, std::uint64_t key) {
  ByteWriter request = request_for(ControlOp::kRemove);
  request.str(table);
  request.u64(key);
  std::vector<std::uint8_t> response;
  return roundtrip(request, response);
}

runtime::Error ControlClient::stats(sim::DeviceStats& out) {
  std::vector<std::uint8_t> response;
  if (runtime::Error err = roundtrip(request_for(ControlOp::kStats), response)) return err;
  ByteReader reader(response);
  return decode_stats(reader, out) ? runtime::Error{} : malformed_reply("kStats");
}

runtime::Error ControlClient::register_access(std::map<std::string, sim::RegisterAccess>& out) {
  std::vector<std::uint8_t> response;
  if (runtime::Error err = roundtrip(request_for(ControlOp::kRegisterAccess), response)) {
    return err;
  }
  ByteReader reader(response);
  const std::uint16_t count = reader.u16();
  out.clear();
  for (std::uint16_t i = 0; i < count && reader.ok(); ++i) {
    const std::string name = reader.str();
    sim::RegisterAccess access;
    access.reads = reader.u64();
    access.writes = reader.u64();
    out[name] = access;
  }
  return reader.ok() ? runtime::Error{} : malformed_reply("kRegisterAccess");
}

runtime::Error ControlClient::set_multicast_group(std::uint16_t group,
                                                  const std::vector<std::uint16_t>& hosts) {
  ByteWriter request = request_for(ControlOp::kSetMulticastGroup);
  request.u16(group);
  request.u16(static_cast<std::uint16_t>(hosts.size()));
  for (const std::uint16_t host : hosts) request.u16(host);
  std::vector<std::uint8_t> response;
  return roundtrip(request, response);
}

runtime::Error ControlClient::metrics_text(std::string& out) {
  std::vector<std::uint8_t> response;
  if (runtime::Error err = roundtrip(request_for(ControlOp::kMetricsText), response)) return err;
  // Raw UTF-8 body — the frame length already delimits it, and a str()'s
  // u16 length prefix would cap the exposition at 64 KiB.
  out.assign(response.begin(), response.end());
  return {};
}

runtime::Error ControlClient::flight_dump(std::uint32_t window_seconds, FlightDumpResult& out) {
  ByteWriter request = request_for(ControlOp::kFlightDump);
  request.u32(window_seconds);
  // Bracket the round trip on the flight clock: the daemon reads its
  // device clock once in between, which is exactly the align_clocks()
  // midpoint-estimator setup (error ≤ RTT/2).
  const std::uint64_t send_ns = obs::flight_now_ns();
  std::vector<std::uint8_t> response;
  if (runtime::Error err = roundtrip(request, response)) return err;
  const std::uint64_t recv_ns = obs::flight_now_ns();
  ByteReader reader(response);
  out.device_clock_now_ns = reader.u64();
  const std::uint32_t count = reader.u32();
  out.events.clear();
  out.events.reserve(std::min<std::size_t>(count, reader.remaining()));
  for (std::uint32_t i = 0; i < count && reader.ok(); ++i) {
    obs::FlightEvent event;
    event.ts_ns = reader.u64();
    event.kind = reader.u16();
    event.ring = reader.u16();
    event.seq = i;
    event.a = reader.u64();
    event.b = reader.u64();
    out.events.push_back(event);
  }
  if (!reader.ok()) return malformed_reply("kFlightDump");
  const obs::ClockAlignment alignment =
      obs::align_clocks(static_cast<double>(send_ns), static_cast<double>(recv_ns),
                        static_cast<double>(out.device_clock_now_ns));
  out.offset_ns = alignment.valid ? alignment.offset_ns : 0.0;
  return {};
}

runtime::Error ControlClient::profile_dump(std::uint8_t flags, ProfileDumpResult& out) {
  ByteWriter request = request_for(ControlOp::kProfileDump);
  request.u8(flags);
  std::vector<std::uint8_t> response;
  if (runtime::Error err = roundtrip(request, response)) return err;
  ByteReader reader(response);
  out.samples = reader.u64();
  out.distinct_stacks = reader.u64();
  out.hz = reader.u32();
  out.path = reader.str();
  out.folded = reader.bytes_str(reader.u32());
  return reader.ok() ? runtime::Error{} : malformed_reply("kProfileDump");
}

runtime::Error ControlClient::load_kernel(std::uint32_t tenant, const std::string& name,
                                          const std::string& source,
                                          const std::map<std::string, std::uint64_t>& defines,
                                          bool replace, std::uint16_t* stages_used,
                                          std::string* summary) {
  ByteWriter request = request_for(ControlOp::kLoadKernel);
  request.u32(tenant);
  request.u8(replace ? 1 : 0);
  request.str(name);
  request.u16(static_cast<std::uint16_t>(defines.size()));
  for (const auto& [define, value] : defines) {
    request.str(define);
    request.u64(value);
  }
  // Raw bytes after an explicit u32 length: str()'s u16 prefix would cap
  // kernel sources at 64 KiB.
  request.u32(static_cast<std::uint32_t>(source.size()));
  request.raw({reinterpret_cast<const std::uint8_t*>(source.data()), source.size()});
  std::vector<std::uint8_t> response;
  if (runtime::Error err = roundtrip(request, response)) return err;
  ByteReader reader(response);
  const std::uint16_t stages = reader.u16();
  std::string headroom = reader.str();
  if (!reader.ok()) return malformed_reply("kLoadKernel");
  if (stages_used != nullptr) *stages_used = stages;
  if (summary != nullptr) *summary = std::move(headroom);
  return {};
}

runtime::Error ControlClient::unload_kernel(std::uint32_t tenant) {
  ByteWriter request = request_for(ControlOp::kUnloadKernel);
  request.u32(tenant);
  std::vector<std::uint8_t> response;
  return roundtrip(request, response);
}

runtime::Error ControlClient::list_kernels(std::vector<sim::TenantInfo>& out) {
  std::vector<std::uint8_t> response;
  if (runtime::Error err = roundtrip(request_for(ControlOp::kListKernels), response)) return err;
  ByteReader reader(response);
  const std::uint16_t count = reader.u16();
  out.clear();
  for (std::uint16_t i = 0; i < count && reader.ok(); ++i) {
    sim::TenantInfo& info = out.emplace_back();
    info.id = reader.u32();
    info.name = reader.str();
    info.stages_used = reader.u16();
    const std::uint16_t n_comps = reader.u16();
    for (std::uint16_t c = 0; c < n_comps && reader.ok(); ++c) {
      info.computations.push_back(static_cast<int>(reader.u32()));
    }
    info.usage = reader.str();
    info.stats.packets_processed = reader.u64();
    info.stats.kernels_executed = reader.u64();
    info.stats.drops_action = reader.u64();
  }
  return reader.ok() ? runtime::Error{} : malformed_reply("kListKernels");
}

}  // namespace netcl::net
