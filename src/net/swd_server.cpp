#include "net/swd_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "net/control.hpp"
#include "net/wire.hpp"
#include "obs/flightrec.hpp"
#include "obs/profiler.hpp"
#include "obs/prometheus.hpp"
#include "sim/telemetry.hpp"

namespace netcl::net {

namespace {

/// "ip:port" for metrics/accounting labels.
std::string endpoint_string(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Binds and returns the actual port, or 0 on failure.
std::uint16_t bind_and_resolve(int fd, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return 0;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

}  // namespace

SwdServer::SwdServer(std::unique_ptr<sim::SwitchDevice> device, const SwdOptions& options)
    : metrics_("swd" + std::to_string(device->device_id())),
      device_(std::move(device)),
      compiler_(options.compiler),
      socket_(metrics_, options.udp_port),
      verbose_(options.verbose),
      max_seconds_(options.max_seconds),
      idle_timeout_seconds_(options.idle_timeout_seconds),
      epoch_(std::chrono::steady_clock::now()) {
  // Overload-control knobs (ISSUE 8).
  if (options.ingress_queue_capacity > 0) ingress_capacity_ = options.ingress_queue_capacity;
  if (options.max_cycle_execute > 0) max_cycle_execute_ = options.max_cycle_execute;
  tenant_rate_pps_ = options.tenant_rate_pps;
  tenant_burst_ = options.tenant_burst > 0.0 ? options.tenant_burst : options.tenant_rate_pps;
  read_deadline_seconds_ = options.read_deadline_seconds;
  unattributed_bucket_ = TokenBucket(tenant_rate_pps_, tenant_burst_);
  // Continuous profiling + per-tenant SLOs (ISSUE 9).
  if (options.profile_hz > 0) obs::Profiler::instance().start(options.profile_hz);
  for (const auto& [tenant, objective] : options.slo_objectives) {
    slo_.set_objective(tenant, objective);
  }
  slo_enabled_ = !options.slo_objectives.empty();
  // A fast burn is an anomaly: leave a flight-recorder breadcrumb and
  // write a postmortem *before* the budget is gone. trigger_dump's rate
  // limit turns a burn storm into exactly one dump.
  slo_.set_fast_burn_callback([](std::uint32_t tenant, double burn) {
    obs::flight(obs::FlightKind::kSloFastBurn, tenant,
                static_cast<std::uint64_t>(burn * 100.0));
    obs::FlightRecorder::instance().trigger_dump("slo_fast_burn");
  });
  device_->set_max_tenants(options.max_tenants);
  // A restarted daemon is a new process with fresh (empty) state; a
  // wall-clock-derived generation makes that visible to pinging hosts.
  device_->set_generation(
      options.generation != 0
          ? options.generation
          : static_cast<std::uint32_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count()));
  if (!socket_.valid()) {
    error_ = socket_.error();
    return;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  control_port_ = bind_and_resolve(listen_fd_, options.control_port);
  if (control_port_ == 0 || ::listen(listen_fd_, 8) != 0) {
    error_ = std::string("bind/listen: ") + std::strerror(errno);
    control_port_ = 0;
    return;
  }
  set_nonblocking(listen_fd_);
  if (options.metrics_port >= 0) {
    metrics_enabled_ = true;
    metrics_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (metrics_listen_fd_ >= 0) {
      ::setsockopt(metrics_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      metrics_port_ =
          bind_and_resolve(metrics_listen_fd_, static_cast<std::uint16_t>(options.metrics_port));
    }
    if (metrics_listen_fd_ < 0 || metrics_port_ == 0 || ::listen(metrics_listen_fd_, 8) != 0) {
      error_ = std::string("metrics bind/listen: ") + std::strerror(errno);
      control_port_ = 0;
      metrics_port_ = 0;
      return;
    }
    set_nonblocking(metrics_listen_fd_);
  }
}

SwdServer::~SwdServer() {
  for (const Connection& connection : connections_) ::close(connection.fd);
  for (const Connection& connection : metrics_connections_) ::close(connection.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (metrics_listen_fd_ >= 0) ::close(metrics_listen_fd_);
}

std::uint64_t SwdServer::device_clock_ns() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch_)
                                        .count());
}

bool SwdServer::valid() const {
  return socket_.valid() && control_port_ != 0 && (!metrics_enabled_ || metrics_port_ != 0);
}

void SwdServer::send_to_host(std::uint16_t host, const sim::Packet& packet) {
  const auto it = host_endpoints_.find(host);
  if (it == host_endpoints_.end()) {
    ++dropped_unknown_host;
    return;
  }
  // Queue rather than send: the whole cycle's output goes out in one
  // flush, and the pooled buffer makes the serialization allocation-free
  // at steady state. packets_sent is counted at the flush.
  serialize_packet(packet, socket_.queue(it->second));
}

void SwdServer::flush_egress() { socket_.flush(); }

void SwdServer::emit(const sim::Packet& packet) {
  if (packet.netcl.to != 0 && packet.netcl.to != device_->device_id()) {
    // A single-daemon deployment has no second device to forward to.
    ++dropped_no_route;
    return;
  }
  send_to_host(packet.netcl.dst, packet);
}

void SwdServer::drain_data_socket(bool crashed) {
  // Position within this cycle's receive doubles as the INT queue-depth
  // stamp — the daemon's analogue of the simulator's event-queue depth.
  std::size_t taken = 0;
  while (taken < kMaxDrainDatagrams) {
    const std::span<const DatagramSocket::Datagram> burst =
        socket_.receive(kMaxDrainDatagrams - taken);
    for (const DatagramSocket::Datagram& datagram : burst) {
      if (crashed) {
        ++packets_dropped_crashed;
      } else {
        admit_datagram(datagram.bytes, datagram.from, static_cast<std::uint32_t>(taken));
      }
      ++taken;
    }
    // Fewer messages than a full batch means the queue is (almost
    // certainly) empty; anything racing in after the syscall is picked up
    // on the next poll turn.
    if (socket_.drained()) return;
  }
}

SwdServer::IngressPacket& SwdServer::ingress_tail() {
  const std::size_t tail = (ingress_head_ + ingress_size_) % (ingress_capacity_ + 1);
  // The tail walks the slots one by one from 0, so it meets the end of the
  // vector exactly when a queue this deep is first seen.
  if (tail == ingress_slots_.size()) ingress_slots_.emplace_back();
  return ingress_slots_[tail];
}

void SwdServer::admit_datagram(std::span<const std::uint8_t> bytes, const sockaddr_in& from,
                               std::uint32_t queue_depth) {
  IngressPacket& in = ingress_tail();
  sim::Packet& packet = in.packet;
  const runtime::Error err = deserialize_packet_e(bytes, packet);
  if (!err.ok()) {
    // Hostile or corrupt bytes: count globally and per source endpoint
    // (top-K, bounded — spoofed sources cannot grow the tracker), leave a
    // flight-recorder breadcrumb, and move on. Nothing unvalidated crosses
    // this line into the engine.
    ++packets_malformed;
    malformed_sources_.add(endpoint_string(from));
    obs::flight(obs::FlightKind::kMalformedDatagram,
                static_cast<std::uint64_t>(ntohl(from.sin_addr.s_addr)),
                static_cast<std::uint64_t>(ntohs(from.sin_port)));
    return;
  }
  ++packets_received;
  // Attribute the packet to the tenant whose budget it will consume: the
  // resident owner of its computation id when addressed to this device,
  // the shared unattributed bucket otherwise.
  sim::TenantId tenant = kUnattributedTenant;
  if (packet.netcl.to == device_->device_id()) {
    const sim::TenantId* owner = device_->tenant_for(packet.netcl.comp);
    if (owner != nullptr) tenant = *owner;
  }
  if (!police(tenant, uptime_s())) {
    count_shed(tenant, /*policer=*/true);
    return;
  }
  // Learn the sender's location; Reflect and later SendToHost responses
  // need it (the paper's testbed wires this knowledge into the base
  // forwarding program instead).
  if (packet.netcl.src != 0) host_endpoints_[packet.netcl.src] = from;
  in.ingress_ns = packet.telemetry.requested ? device_clock_ns() : 0;
  in.admit_ns =
      slo_enabled_ && slo_.has_objective(tenant) ? device_clock_ns() : 0;
  in.from = from;
  in.queue_depth = queue_depth;
  in.tenant = tenant;
  if (++ingress_size_ > ingress_capacity_) {
    // Drop-oldest: the stalest packet is the least useful one, and the
    // shed is charged to *its* tenant, so a flooder filling the queue
    // mostly sheds its own backlog.
    count_shed(ingress_slots_[ingress_head_].tenant, /*policer=*/false);
    ingress_head_ = (ingress_head_ + 1) % (ingress_capacity_ + 1);
    --ingress_size_;
  }
}

bool SwdServer::police(sim::TenantId tenant, double now_s) {
  if (tenant_rate_pps_ <= 0.0) return true;
  if (tenant == kUnattributedTenant) return unattributed_bucket_.try_take(now_s);
  auto it = tenant_buckets_.find(tenant);
  if (it == tenant_buckets_.end()) {
    it = tenant_buckets_.emplace(tenant, TokenBucket(tenant_rate_pps_, tenant_burst_)).first;
  }
  return it->second.try_take(now_s);
}

void SwdServer::count_shed(sim::TenantId tenant, bool policer) {
  // A shed packet is a bad event against its tenant's availability SLO
  // (no-op for tenants without an objective).
  if (slo_enabled_) slo_.record_bad(tenant, uptime_s());
  if (policer) {
    ++packets_shed_policer;
    const std::uint64_t total = ++tenant_shed_policer_[tenant];
    obs::flight(obs::FlightKind::kPolicerShed, tenant, total);
  } else {
    ++packets_shed_queue;
    ++tenant_shed_queue_[tenant];
    obs::flight(obs::FlightKind::kQueueShed, tenant,
                static_cast<std::uint64_t>(ingress_capacity_));
  }
}

void SwdServer::process_ingress() {
  // Bounded work per cycle: a deep backlog is drained across cycles with
  // the control plane serviced in between, not in one starving burst.
  std::size_t budget = max_cycle_execute_;
  while (ingress_size_ > 0 && budget-- > 0) {
    // The slot stays intact until the next admit, which cannot run
    // during handle_packet.
    IngressPacket& in = ingress_slots_[ingress_head_];
    ingress_head_ = (ingress_head_ + 1) % (ingress_capacity_ + 1);
    if (--ingress_size_ == 0) clear_ingress();
    handle_packet(in);
  }
}

void SwdServer::handle_packet(IngressPacket& in) {
  sim::Packet& packet = in.packet;
  const std::uint64_t ingress_ns = in.ingress_ns;
  const std::uint32_t queue_depth = in.queue_depth;

  if (packet.netcl.to == 0) {
    // Already host-addressed (e.g. a reflected response looped back through
    // the daemon): deliver without counting a device transit.
    send_to_host(packet.netcl.dst, packet);
    return;
  }
  if (packet.netcl.to != device_->device_id()) {
    // No-op transit through a device that was not asked to compute (§IV).
    ++device_->stats.transits;
    if (packet.telemetry.requested) {
      // Same shape as the simulator's transit stamp: no stage occupancy.
      if (sim::stamp_hop(packet.telemetry, {device_->device_id(), device_->generation(),
                                            ingress_ns, device_clock_ns(), queue_depth, 0})) {
        ++telemetry_stamps;
      }
    }
    emit(packet);
    return;
  }

  const sim::StepOutcome step = device_->process(packet);
  if (!step.executed) ++packets_unknown_computation;
  if (packet.telemetry.requested) {
    // Mirrors sim::Fabric's compute-hop stamp, on the daemon's wall clock:
    // ingress when the datagram was picked up, egress after execution.
    if (sim::stamp_hop(packet.telemetry,
                       {device_->device_id(), device_->generation(), ingress_ns,
                        device_clock_ns(), queue_depth, step.stage_ops})) {
      ++telemetry_stamps;
    }
  }
  if (in.admit_ns != 0 && in.tenant != kUnattributedTenant) {
    // Served: good iff admission→post-execute latency met the objective.
    const std::uint64_t egress_ns = device_clock_ns();
    slo_.record_latency(in.tenant,
                        static_cast<double>(egress_ns > in.admit_ns
                                                ? egress_ns - in.admit_ns
                                                : 0),
                        uptime_s());
  }
  if (step.forward.drop) {
    ++packets_dropped_action;
    return;
  }
  if (step.forward.multicast) {
    const auto members = multicast_groups_.find(step.forward.multicast_group);
    if (members == multicast_groups_.end()) return;
    // The packet is spent after this, so it is re-addressed in place and
    // serialized once per member.
    packet.netcl.to = 0;
    for (const std::uint16_t member : members->second) {
      packet.netcl.dst = member;
      send_to_host(member, packet);
    }
    return;
  }
  emit(packet);
}

std::vector<std::uint8_t> SwdServer::handle_control(std::span<const std::uint8_t> frame) {
  ++control_requests;
  ByteReader reader(frame);
  // Idempotency ids (net/control.hpp framing): a retried request — the
  // client timed out after we applied the op — is answered from the cache
  // instead of being applied twice.
  const std::uint64_t client_id = reader.u64();
  const std::uint64_t request_id = reader.u64();
  if (reader.ok()) {
    const auto cached = replay_cache_.find(client_id);
    if (cached != replay_cache_.end() && cached->second.first == request_id) {
      ++control_replays;
      return cached->second.second;
    }
  }
  const auto op = static_cast<ControlOp>(reader.u8());
  ByteWriter ok;
  ok.u8(kControlOk);
  bool handled = reader.ok();
  // Typed failure body (new-style ops): appended after the kControlError
  // status byte when set. Legacy ops keep the bare single-byte failure.
  runtime::Error op_error;
  if (handled) {
    switch (op) {
      case ControlOp::kPing:
        ok.u16(device_->device_id());
        ok.u32(device_->generation());
        // Telemetry clock (ISSUE 4): same clockbase the daemon stamps
        // TelemetryHops with, so hosts can align device spans.
        ok.u64(device_clock_ns());
        break;
      case ControlOp::kManagedWrite: {
        const std::string name = reader.str();
        const std::vector<std::uint64_t> indices = reader.u64_vec();
        const std::uint64_t value = reader.u64();
        handled = reader.ok() && device_->managed_write(name, indices, value);
        break;
      }
      case ControlOp::kManagedRead: {
        const std::string name = reader.str();
        const std::vector<std::uint64_t> indices = reader.u64_vec();
        std::uint64_t value = 0;
        handled = reader.ok() && device_->managed_read(name, indices, value);
        ok.u64(value);
        break;
      }
      case ControlOp::kInsert: {
        const std::string table = reader.str();
        const std::uint64_t lo = reader.u64();
        const std::uint64_t hi = reader.u64();
        const std::uint64_t value = reader.u64();
        handled = reader.ok() && device_->lookup_insert(table, lo, hi, value);
        break;
      }
      case ControlOp::kRemove: {
        const std::string table = reader.str();
        const std::uint64_t key = reader.u64();
        handled = reader.ok() && device_->lookup_remove(table, key);
        break;
      }
      case ControlOp::kStats:
        encode_stats(ok, device_->stats);
        break;
      case ControlOp::kRegisterAccess: {
        const std::map<std::string, sim::RegisterAccess> access = device_->register_access();
        ok.u16(static_cast<std::uint16_t>(access.size()));
        for (const auto& [name, counts] : access) {
          ok.str(name);
          ok.u64(counts.reads);
          ok.u64(counts.writes);
        }
        break;
      }
      case ControlOp::kSetMulticastGroup: {
        const std::uint16_t group = reader.u16();
        const std::uint16_t count = reader.u16();
        std::vector<std::uint16_t> members;
        for (std::uint16_t i = 0; i < count && reader.ok(); ++i) members.push_back(reader.u16());
        handled = reader.ok();
        if (handled) multicast_groups_[group] = std::move(members);
        break;
      }
      case ControlOp::kMetricsText: {
        // Raw UTF-8 body; the frame length delimits it (a str()'s u16
        // length prefix would cap the exposition at 64 KiB).
        const std::string text = metrics_exposition();
        ok.raw({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
        break;
      }
      case ControlOp::kFlightDump: {
        const std::uint32_t window_s = reader.u32();
        handled = reader.ok();
        if (!handled) break;
        const std::uint64_t window_ns =
            window_s == 0 ? obs::FlightRecorder::kDefaultWindowNs
                          : static_cast<std::uint64_t>(window_s) * 1000000000ull;
        std::vector<obs::FlightEvent> events =
            obs::FlightRecorder::instance().snapshot(window_ns);
        // Keep the newest events if the window holds more than one frame
        // can reasonably carry (events are sorted oldest-first).
        constexpr std::size_t kMaxDumpEvents = 8192;
        const std::size_t first =
            events.size() > kMaxDumpEvents ? events.size() - kMaxDumpEvents : 0;
        // Flight clock → device clock: the daemon's epoch on the flight
        // clockbase, so clients can merge via the PONG-aligned offset.
        const auto epoch_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                epoch_.time_since_epoch())
                .count());
        ok.u64(device_clock_ns());
        ok.u32(static_cast<std::uint32_t>(events.size() - first));
        for (std::size_t i = first; i < events.size(); ++i) {
          const obs::FlightEvent& event = events[i];
          ok.u64(event.ts_ns >= epoch_ns ? event.ts_ns - epoch_ns : 0);
          ok.u16(event.kind);
          ok.u16(event.ring);
          ok.u64(event.a);
          ok.u64(event.b);
        }
        break;
      }
      case ControlOp::kLoadKernel: {
        const std::uint32_t tenant = reader.u32();
        const std::uint8_t flags = reader.u8();
        const std::string name = reader.str();
        const std::uint16_t n_defines = reader.u16();
        std::map<std::string, std::uint64_t> defines;
        for (std::uint16_t i = 0; i < n_defines && reader.ok(); ++i) {
          const std::string define = reader.str();
          defines[define] = reader.u64();
        }
        const std::uint32_t src_len = reader.u32();
        if (!reader.ok() || src_len > reader.remaining()) {
          // Validate the length against the bytes actually present BEFORE
          // sizing any buffer — a hostile u32 here was once a 4 GiB
          // reserve() (allocation bomb).
          handled = false;
          op_error = {runtime::ErrorKind::kMalformed,
                      "kernel source length overruns frame"};
          break;
        }
        std::string source = reader.bytes_str(src_len);
        handled = reader.ok();
        if (!handled) break;
        if (!compiler_) {
          handled = false;
          op_error = {runtime::ErrorKind::kRejected,
                      "daemon has no kernel compiler installed"};
          ++kernels_rejected;
          break;
        }
        const bool replace = (flags & 1) != 0;
        sim::ProgramArtifact artifact;
        runtime::Error err = compiler_(source, defines, device_->device_id(), artifact);
        const auto stages = static_cast<std::uint16_t>(artifact.stages_used);
        if (err.ok()) {
          if (!name.empty()) artifact.name = name;
          err = replace ? device_->swap_program(tenant, std::move(artifact))
                        : device_->load_program(tenant, std::move(artifact));
        }
        if (!err.ok()) {
          handled = false;
          op_error = std::move(err);
          ++kernels_rejected;
          break;
        }
        obs::flight(replace ? obs::FlightKind::kKernelSwap : obs::FlightKind::kKernelLoad,
                    tenant, stages);
        ++kernels_loaded;
        if (verbose_) {
          std::fprintf(stderr, "netcl-swd: %s tenant %u (%u stages); %s\n",
                       replace ? "swapped" : "loaded", tenant, stages,
                       device_->admission().summary().c_str());
        }
        ok.u16(stages);
        ok.str(device_->admission().summary());
        break;
      }
      case ControlOp::kUnloadKernel: {
        const std::uint32_t tenant = reader.u32();
        handled = reader.ok();
        if (!handled) break;
        runtime::Error err = device_->unload_program(tenant);
        if (!err.ok()) {
          handled = false;
          op_error = std::move(err);
          break;
        }
        obs::flight(obs::FlightKind::kKernelUnload, tenant);
        ++kernels_unloaded;
        break;
      }
      case ControlOp::kListKernels: {
        const std::vector<sim::TenantInfo> table = device_->tenant_table();
        ok.u16(static_cast<std::uint16_t>(table.size()));
        for (const sim::TenantInfo& info : table) {
          ok.u32(info.id);
          ok.str(info.name);
          ok.u16(static_cast<std::uint16_t>(info.stages_used));
          ok.u16(static_cast<std::uint16_t>(info.computations.size()));
          for (const int comp : info.computations) ok.u32(static_cast<std::uint32_t>(comp));
          ok.str(info.usage);
          ok.u64(info.stats.packets_processed);
          ok.u64(info.stats.kernels_executed);
          ok.u64(info.stats.drops_action);
        }
        break;
      }
      case ControlOp::kProfileDump: {
        const std::uint8_t flags = reader.u8();
        handled = reader.ok();
        if (!handled) break;
        obs::Profiler& profiler = obs::Profiler::instance();
        std::string path;
        if ((flags & kProfileWriteFile) != 0) path = profiler.trigger_profile_dump();
        const obs::ProfileSnapshot snap = profiler.snapshot();
        std::string folded;
        if ((flags & kProfileReturnText) != 0) {
          for (const auto& [stack, count] : snap.folded) {
            folded += stack;
            folded += ' ';
            folded += std::to_string(count);
            folded += '\n';
          }
          // The response must fit the 1 MiB control frame; truncate whole
          // lines past half of it (a folded profile is normally a few KiB).
          constexpr std::size_t kMaxFoldedBytes = kMaxControlFrame / 2;
          if (folded.size() > kMaxFoldedBytes) {
            folded.resize(folded.rfind('\n', kMaxFoldedBytes) + 1);
          }
        }
        ok.u64(snap.samples);
        ok.u64(static_cast<std::uint64_t>(snap.folded.size()));
        ok.u32(profiler.running() ? static_cast<std::uint32_t>(profiler.hz()) : 0);
        ok.str(path);
        ok.u32(static_cast<std::uint32_t>(folded.size()));
        ok.raw({reinterpret_cast<const std::uint8_t*>(folded.data()), folded.size()});
        break;
      }
      default:
        handled = false;
        op_error = {runtime::ErrorKind::kMalformed,
                    "unknown control opcode " + std::to_string(static_cast<unsigned>(op))};
        break;
    }
  } else {
    op_error = {runtime::ErrorKind::kMalformed, "truncated control request"};
  }
  std::vector<std::uint8_t> response;
  if (!handled) {
    ++control_errors;
    ByteWriter failure;
    failure.u8(kControlError);
    if (op_error) {
      failure.u8(static_cast<std::uint8_t>(op_error.kind));
      failure.str(op_error.message);
    }
    response = failure.bytes();
  } else {
    response = ok.bytes();
  }
  // One cached response per client; a handful of hosts per daemon, so a
  // coarse wipe at an absurd size is bound enough.
  if (replay_cache_.size() > 256) replay_cache_.clear();
  replay_cache_[client_id] = {request_id, response};
  return response;
}

double SwdServer::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

std::string SwdServer::metrics_exposition() {
  // Mirror the device's execution stats into gauges at render time, so the
  // exposition carries them without keeping a second live count in sync.
  const sim::DeviceStats& stats = device_->stats;
  metrics_.gauge("device.generation").set(static_cast<double>(device_->generation()));
  metrics_.gauge("device.packets_processed").set(static_cast<double>(stats.packets_processed));
  metrics_.gauge("device.kernels_executed").set(static_cast<double>(stats.kernels_executed));
  metrics_.gauge("device.no_kernel").set(static_cast<double>(stats.no_kernel));
  metrics_.gauge("device.drops_action").set(static_cast<double>(stats.drops_action));
  metrics_.gauge("device.multicasts").set(static_cast<double>(stats.multicasts));
  metrics_.gauge("device.transits").set(static_cast<double>(stats.transits));
  metrics_.gauge("device.recirculations").set(static_cast<double>(stats.recirculations));
  metrics_.gauge("device.uptime_seconds").set(uptime_s());
  const obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  metrics_.gauge("flight.dropped_events")
      .set(static_cast<double>(recorder.dropped_events()));
  metrics_.gauge("flight.dumps_written").set(static_cast<double>(recorder.dumps_written()));
  metrics_.gauge("ingress.queue_depth").set(static_cast<double>(ingress_size_));
  metrics_.gauge("ingress.queue_capacity").set(static_cast<double>(ingress_capacity_));
  // Profiler state (ISSUE 9): netcl_profile_* series.
  obs::Profiler& profiler = obs::Profiler::instance();
  metrics_.gauge("profile.samples").set(static_cast<double>(profiler.sample_count()));
  metrics_.gauge("profile.hz").set(profiler.running() ? profiler.hz() : 0.0);
  metrics_.gauge("profile.threads").set(static_cast<double>(profiler.thread_count()));
  metrics_.gauge("profile.dumps_written")
      .set(static_cast<double>(profiler.dumps_written()));
  // Refresh SLO gauges at scrape time so a scrape between poll ticks (or
  // a test driving handle_control() directly) still sees current burn.
  if (slo_enabled_) slo_.tick(uptime_s());
  mirror_tenant_metrics();
  mirror_malformed_sources();
  return obs::prometheus_string();
}

void SwdServer::mirror_malformed_sources() {
  metrics_.gauge("malformed.sources_tracked")
      .set(static_cast<double>(malformed_sources_.tracked()));
  metrics_.gauge("malformed.sources_overflow")
      .set(static_cast<double>(malformed_sources_.overflow()));
  // Top-K offenders as "<base>/source/<ip:port>" registries — rendered
  // with a `source` label, the per-source analogue of the tenant label.
  for (const auto& [endpoint, count] : malformed_sources_.top(8)) {
    std::unique_ptr<obs::MetricsRegistry>& registry = source_metrics_[endpoint];
    if (registry == nullptr) {
      registry = std::make_unique<obs::MetricsRegistry>(metrics_.name() + "/source/" + endpoint);
    }
    registry->gauge("malformed.by_source").set(static_cast<double>(count));
  }
}

void SwdServer::mirror_tenant_metrics() {
  metrics_.gauge("device.tenants").set(static_cast<double>(device_->tenant_count()));
  for (const sim::TenantInfo& info : device_->tenant_table()) {
    std::unique_ptr<obs::MetricsRegistry>& registry = tenant_metrics_[info.id];
    if (registry == nullptr) {
      registry = std::make_unique<obs::MetricsRegistry>(
          metrics_.name() + "/tenant/" + std::to_string(info.id));
    }
    registry->gauge("tenant.packets_processed")
        .set(static_cast<double>(info.stats.packets_processed));
    registry->gauge("tenant.kernels_executed")
        .set(static_cast<double>(info.stats.kernels_executed));
    registry->gauge("tenant.drops_action").set(static_cast<double>(info.stats.drops_action));
    registry->gauge("tenant.multicasts").set(static_cast<double>(info.stats.multicasts));
    registry->gauge("tenant.control_reads").set(static_cast<double>(info.stats.control_reads));
    registry->gauge("tenant.control_writes")
        .set(static_cast<double>(info.stats.control_writes));
    registry->gauge("tenant.stages_used").set(static_cast<double>(info.stages_used));
    // Overload-shed attribution (ISSUE 8): how many of this tenant's own
    // packets the policer / queue overflow dropped.
    registry->gauge("tenant.shed_policer")
        .set(static_cast<double>(tenant_shed_policer_[info.id]));
    registry->gauge("tenant.shed_queue")
        .set(static_cast<double>(tenant_shed_queue_[info.id]));
  }
}

void SwdServer::accept_metrics_connection() {
  for (;;) {
    const int fd = ::accept(metrics_listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_nonblocking(fd);
    metrics_connections_.push_back({fd, {}, uptime_s()});
  }
}

void SwdServer::service_metrics_connection(Connection& connection) {
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = ::read(connection.fd, buffer, sizeof(buffer));
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      ::close(connection.fd);
      connection.fd = -1;
      return;
    }
    if (n < 0) break;  // drained for now
    connection.inbox.insert(connection.inbox.end(), buffer, buffer + n);
    if (connection.inbox.size() > 16384) {
      // No scrape request needs this much header; drop the flooder.
      ::close(connection.fd);
      connection.fd = -1;
      return;
    }
  }
  // Serve once the request's header block (terminated by a blank line) has
  // fully arrived; the request line / headers themselves are irrelevant —
  // every path gets the exposition.
  static constexpr std::uint8_t kHeaderEnd[] = {'\r', '\n', '\r', '\n'};
  if (std::search(connection.inbox.begin(), connection.inbox.end(), std::begin(kHeaderEnd),
                  std::end(kHeaderEnd)) == connection.inbox.end()) {
    return;
  }
  const std::string body = metrics_exposition();
  const std::string response =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\n"
      "Connection: close\r\n\r\n" +
      body;
  write_all(connection.fd, reinterpret_cast<const std::uint8_t*>(response.data()),
            response.size());
  ++metrics_scrapes;
  ::close(connection.fd);
  connection.fd = -1;
}

void SwdServer::accept_connection() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_nonblocking(fd);
    connections_.push_back({fd, {}, uptime_s()});
  }
}

void SwdServer::service_connection(Connection& connection) {
  std::uint8_t buffer[4096];
  bool got_bytes = false;
  for (;;) {
    const ssize_t n = ::read(connection.fd, buffer, sizeof(buffer));
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      ::close(connection.fd);
      connection.fd = -1;
      return;
    }
    if (n < 0) break;  // drained for now
    got_bytes = true;
    connection.inbox.insert(connection.inbox.end(), buffer, buffer + n);
  }
  if (got_bytes) connection.last_activity_s = uptime_s();
  // Dispatch every complete frame in the inbox.
  std::size_t pos = 0;
  for (;;) {
    std::uint32_t length = 0;
    runtime::Error frame_error;
    const FrameParse parse = parse_frame_header(
        {connection.inbox.data() + pos, connection.inbox.size() - pos}, length, frame_error);
    if (parse == FrameParse::kNeedMore) break;
    if (parse == FrameParse::kMalformed) {
      // Bad magic, unknown version, or an oversize length: answer with the
      // typed error (best effort — the peer may not even speak the
      // protocol) and close. Note no payload was ever buffered or
      // allocated for the oversize case; the length died in validation.
      ++control_malformed;
      ++control_errors;
      obs::flight(obs::FlightKind::kControlMalformed,
                  static_cast<std::uint64_t>(connection.inbox.size() - pos));
      ByteWriter failure;
      failure.u8(kControlError);
      failure.u8(static_cast<std::uint8_t>(frame_error.kind));
      failure.str(frame_error.message);
      write_frame(connection.fd, failure.bytes());
      ::close(connection.fd);
      connection.fd = -1;
      return;
    }
    if (connection.inbox.size() - pos - kControlFrameHeaderBytes < length) break;
    const std::vector<std::uint8_t> response = handle_control(
        {connection.inbox.data() + pos + kControlFrameHeaderBytes, length});
    if (!write_frame(connection.fd, response)) {
      ::close(connection.fd);
      connection.fd = -1;
      return;
    }
    pos += kControlFrameHeaderBytes + length;
  }
  connection.inbox.erase(connection.inbox.begin(),
                         connection.inbox.begin() + static_cast<std::ptrdiff_t>(pos));
  // Read-progress state for the slowloris reaper: the clock starts when a
  // partial frame first appears and only resets once the inbox fully
  // drains — trickled bytes do not extend the deadline.
  if (connection.inbox.empty()) {
    connection.frame_started_s = -1.0;
  } else if (connection.frame_started_s < 0.0) {
    connection.frame_started_s = uptime_s();
  }
}

bool SwdServer::apply_fault_state() {
  if (restart_pending_.exchange(false, std::memory_order_relaxed)) {
    // The "new process": registers zeroed, lookup tables rebuilt from the
    // compiled program's seed entries, generation bumped, and everything a
    // fresh process would not know — learned host endpoints, multicast
    // membership, the idempotency cache — forgotten.
    device_->restart();
    host_endpoints_.clear();
    multicast_groups_.clear();
    replay_cache_.clear();
    // A fresh process also starts with empty queues and full buckets.
    clear_ingress();
    tenant_buckets_.clear();
    unattributed_bucket_ = TokenBucket(tenant_rate_pps_, tenant_burst_);
    crashed_.store(false, std::memory_order_relaxed);
  }
  return crashed_.load(std::memory_order_relaxed);
}

void SwdServer::poll_once(int timeout_ms) {
  if (!valid()) return;
  // The serving thread samples itself when --profile is on (idempotent
  // one-TLS-test registration).
  obs::profile_register_thread();
  // SIGUSR2 (latched async-signal-safely by the handler swd_main installs)
  // means "dump now": performed here, on the serving thread, outside
  // signal context.
  if (obs::FlightRecorder::consume_signal_dump()) {
    obs::FlightRecorder::instance().trigger_dump("sigusr2");
  }
  // SIGUSR1 is the profile-dump latch (ISSUE 9), same discipline.
  if (obs::Profiler::consume_signal_dump()) {
    obs::Profiler::instance().trigger_profile_dump();
  }
  if (slo_enabled_) {
    const double now_s = uptime_s();
    if (now_s - last_slo_tick_s_ >= 0.25) {
      last_slo_tick_s_ = now_s;
      slo_.tick(now_s);
    }
  }
  const bool crashed = apply_fault_state();
  if (crashed && !(connections_.empty() && metrics_connections_.empty())) {
    // A dead process holds no connections.
    for (const Connection& connection : connections_) ::close(connection.fd);
    connections_.clear();
    for (const Connection& connection : metrics_connections_) ::close(connection.fd);
    metrics_connections_.clear();
  }
  if (crashed && ingress_size_ > 0) {
    // Packets a dead process had admitted but not executed vanish with it.
    packets_dropped_crashed.inc(static_cast<std::uint64_t>(ingress_size_));
    clear_ingress();
  }
  if (idle_timeout_seconds_ > 0.0) {
    const double now_s = uptime_s();
    for (Connection& connection : connections_) {
      if (now_s - connection.last_activity_s > idle_timeout_seconds_) {
        ::close(connection.fd);
        connection.fd = -1;
        ++connections_reaped;
      }
    }
    std::erase_if(connections_, [](const Connection& connection) { return connection.fd < 0; });
    // A scraper that connected and never finished its request would hold
    // its fd forever; reap on the same budget.
    for (Connection& connection : metrics_connections_) {
      if (now_s - connection.last_activity_s > idle_timeout_seconds_) {
        ::close(connection.fd);
        connection.fd = -1;
      }
    }
    std::erase_if(metrics_connections_,
                  [](const Connection& connection) { return connection.fd < 0; });
  }
  if (read_deadline_seconds_ > 0.0) {
    // Slowloris defence: a connection stalled mid-frame past the read
    // deadline is reaped — unlike idle reaping, this fires even while the
    // peer trickles a byte at a time (progress is not activity).
    const double now_s = uptime_s();
    for (Connection& connection : connections_) {
      if (connection.frame_started_s >= 0.0 &&
          now_s - connection.frame_started_s > read_deadline_seconds_) {
        obs::flight(obs::FlightKind::kSlowReadReap,
                    static_cast<std::uint64_t>(connection.inbox.size()),
                    static_cast<std::uint64_t>(now_s - connection.frame_started_s));
        ::close(connection.fd);
        connection.fd = -1;
        ++connections_reaped_slow;
      }
    }
    std::erase_if(connections_, [](const Connection& connection) { return connection.fd < 0; });
  }
  std::vector<pollfd>& fds = poll_fds_;
  fds.clear();
  fds.push_back({socket_.fd(), POLLIN, 0});
  fds.push_back({listen_fd_, POLLIN, 0});
  for (const Connection& connection : connections_) {
    fds.push_back({connection.fd, POLLIN, 0});
  }
  const std::size_t metrics_listen_index = fds.size();
  if (metrics_listen_fd_ >= 0) fds.push_back({metrics_listen_fd_, POLLIN, 0});
  const std::size_t metrics_base = fds.size();
  for (const Connection& connection : metrics_connections_) {
    fds.push_back({connection.fd, POLLIN, 0});
  }
  // With a backlog queued or datagrams held by the socket, don't sleep —
  // poll only collects what's already ready and the cycle goes straight on
  // to draining and executing.
  const bool backlog = ingress_size_ > 0 || socket_.held() > 0;
  const int ready = ::poll(fds.data(), fds.size(), backlog ? 0 : timeout_ms);
  if (ready <= 0 && socket_.held() == 0) {
    process_ingress();
    flush_egress();
    obs::flight(obs::FlightKind::kPollCycle, 0, 0);
    return;
  }

  const std::uint64_t received_before = packets_received.value();
  if (socket_.held() > 0 || (fds[0].revents & POLLIN) != 0) {
    drain_data_socket(crashed);
  }
  process_ingress();
  flush_egress();
  obs::flight(obs::FlightKind::kPollCycle, static_cast<std::uint64_t>(std::max(ready, 0)),
              packets_received.value() - received_before);
  // accept_connection() below can grow connections_; only the pre-accept
  // entries have a pollfd at fds[2 + i].
  const std::size_t polled = connections_.size();
  const std::size_t metrics_polled = metrics_connections_.size();
  if ((fds[1].revents & POLLIN) != 0) {
    if (crashed) {
      // Closest a live process gets to a crashed one: the connection is
      // accepted by the kernel backlog, then immediately torn down, so
      // clients see a prompt disconnect rather than a hang.
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        ::close(fd);
      }
    } else {
      accept_connection();
    }
  }
  for (std::size_t i = 0; i < polled; ++i) {
    if ((fds[2 + i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      service_connection(connections_[i]);
    }
  }
  std::erase_if(connections_, [](const Connection& connection) { return connection.fd < 0; });

  if (metrics_listen_fd_ >= 0 && (fds[metrics_listen_index].revents & POLLIN) != 0) {
    if (crashed) {
      for (;;) {
        const int fd = ::accept(metrics_listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        ::close(fd);
      }
    } else {
      accept_metrics_connection();
    }
  }
  for (std::size_t i = 0; i < metrics_polled; ++i) {
    if ((fds[metrics_base + i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      service_metrics_connection(metrics_connections_[i]);
    }
  }
  std::erase_if(metrics_connections_,
                [](const Connection& connection) { return connection.fd < 0; });
}

void SwdServer::run() {
  const auto start = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    if (max_seconds_ > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() >=
            max_seconds_) {
      break;
    }
    poll_once(50);
  }
  if (verbose_) {
    std::fprintf(stderr,
                 "netcl-swd: device %u served %llu packets (%llu sent, %llu control requests)\n",
                 device_->device_id(), static_cast<unsigned long long>(packets_received.value()),
                 static_cast<unsigned long long>(packets_sent.value()),
                 static_cast<unsigned long long>(control_requests.value()));
  }
}

}  // namespace netcl::net
