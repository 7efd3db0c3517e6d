#include "runtime/host.hpp"

#include <chrono>
#include <iostream>

#include "net/sim_transport.hpp"
#include "obs/flightrec.hpp"
#include "support/diagnostics.hpp"

namespace netcl::runtime {

namespace {

double wall_ns_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

HostRuntime::HostRuntime(net::Transport& transport, std::uint16_t host_id)
    : metrics_("host" + std::to_string(host_id)), transport_(&transport), host_id_(host_id) {
  attach();
}

HostRuntime::HostRuntime(std::unique_ptr<net::Transport> transport, std::uint16_t host_id)
    : metrics_("host" + std::to_string(host_id)),
      owned_transport_(std::move(transport)),
      transport_(owned_transport_.get()),
      host_id_(host_id) {
  attach();
}

HostRuntime::HostRuntime(sim::Fabric& fabric, std::uint16_t host_id)
    : metrics_("host" + std::to_string(host_id)),
      owned_transport_(std::make_unique<net::SimTransport>(fabric, host_id)),
      transport_(owned_transport_.get()),
      host_id_(host_id) {
  attach();
}

const char* to_string(FallbackPolicy policy) {
  switch (policy) {
    case FallbackPolicy::kFailFast:
      return "fail_fast";
    case FallbackPolicy::kHostExecute:
      return "host_execute";
    case FallbackPolicy::kQueueUntilRecovered:
      return "queue_until_recovered";
  }
  return "?";
}

void HostRuntime::attach() {
  // The transport receiver is installed eagerly (not in on_receive) so
  // that arrivals before — or without — a receiver are observed, not lost.
  // Batch-aware: a receive burst arrives as one span, unpacked in arrival
  // order — identical observable behavior to per-packet delivery.
  transport_->set_batch_receiver([this](std::span<const sim::Packet> batch) {
    for (const sim::Packet& packet : batch) deliver_packet(packet);
  });
}

void HostRuntime::deliver_packet(const sim::Packet& packet) {
  if (!packet.has_netcl) return;
  if (receiver_ == nullptr) {
    ++dropped_no_receiver;
    warn_once("NetCL packet arrived but no receiver is registered; dropping");
    return;
  }
  const int comp = packet.netcl.comp;
  Computation* entry = find_computation(comp);
  if (entry == nullptr) {
    ++dropped_unknown_computation;
    warn_once("received computation " + std::to_string(comp) +
              " has no registered kernel spec; dropping");
    return;
  }
  const auto unpack_start = std::chrono::steady_clock::now();
  auto [message, args] = unpack(packet, entry->spec);
  const double unpack_duration_ns = wall_ns_since(unpack_start);
  unpack_ns.record(unpack_duration_ns);
  ++received;
  ++*entry->received;
  auto& pending = pending_round_trips_[comp];
  if (!pending.empty()) {
    const PendingSend stamp = pending.front();
    pending.pop_front();
    const double recv_ns = transport_->now_ns();
    round_trip_ns.record(recv_ns - stamp.send_ns);
    if (slo_enabled_) {
      // Round trips are the host-side SLO event stream (ISSUE 9): one
      // served event per matched response, on the transport clock.
      const double now_s = recv_ns / 1e9;
      slo_.record_latency(static_cast<std::uint32_t>(comp), recv_ns - stamp.send_ns,
                          now_s);
      if (now_s - last_slo_tick_s_ >= 0.25) {
        last_slo_tick_s_ = now_s;
        slo_.tick(now_s);
      }
    }
    if (collector_ != nullptr) {
      obs::SpanSample span;
      span.host_id = host_id_;
      span.computation = comp;
      span.send_ns = stamp.send_ns;
      span.recv_ns = recv_ns;
      span.pack_ns = stamp.pack_ns;
      span.unpack_ns = unpack_duration_ns;
      span.hops = packet.telemetry.hops;
      collector_->record_span(span);
    }
  } else if (collector_ != nullptr && !packet.telemetry.hops.empty()) {
    // One-way arrival (this host never sent for this computation — e.g. a
    // consensus delivery): the collector opens the span window at the
    // earliest aligned hop instead of a send stamp.
    obs::SpanSample span;
    span.host_id = host_id_;
    span.computation = comp;
    span.recv_ns = transport_->now_ns();
    span.unpack_ns = unpack_duration_ns;
    span.hops = packet.telemetry.hops;
    collector_->record_one_way(span);
  }
  receiver_(message, args);
}

void HostRuntime::register_spec(int computation, KernelSpec spec) {
  Computation& entry = computations_[computation];
  entry.spec = std::move(spec);
  const std::string prefix = "comp" + std::to_string(computation);
  entry.sent = &metrics_.counter(prefix + ".sent");
  entry.received = &metrics_.counter(prefix + ".received");
}

void HostRuntime::set_slo_objective(int computation, const obs::SloObjective& objective) {
  slo_.set_objective(static_cast<std::uint32_t>(computation), objective);
  slo_enabled_ = true;
}

const KernelSpec* HostRuntime::spec_for(int computation) const {
  const auto it = computations_.find(computation);
  return it == computations_.end() ? nullptr : &it->second.spec;
}

HostRuntime::Computation* HostRuntime::find_computation(int id) {
  const auto it = computations_.find(id);
  return it == computations_.end() ? nullptr : &it->second;
}

bool HostRuntime::prepare_send(Message& message, const sim::ArgValues& args,
                               sim::Packet& out) {
  Computation* entry = find_computation(message.comp);
  if (entry == nullptr) {
    ++dropped_unregistered_send;
    warn_once("send for computation " + std::to_string(message.comp) +
              " has no registered kernel spec; dropping");
    return false;
  }
  message.src = host_id_;
  const auto pack_start = std::chrono::steady_clock::now();
  out = pack(message, entry->spec, args);
  const double pack_duration_ns = wall_ns_since(pack_start);
  pack_ns.record(pack_duration_ns);
  // With a collector attached, ask devices on the path to stamp INT hops
  // (sets the wire flag bit and appends the trailer at serialization).
  if (collector_ != nullptr) out.telemetry.requested = true;
  if (detector_ != nullptr && !detector_->up() && handle_down_send(out, message.comp)) {
    return false;
  }
  auto& pending = pending_round_trips_[message.comp];
  if (pending.size() >= kMaxPendingRoundTrips) {
    // The response for the oldest stamp was presumably lost; expire it so
    // one-way or lossy traffic cannot grow the queue forever.
    pending.pop_front();
    ++dropped_stale_round_trip;
    if (slo_enabled_) {
      slo_.record_bad(static_cast<std::uint32_t>(message.comp),
                      transport_->now_ns() / 1e9);
    }
  }
  pending.push_back({transport_->now_ns(), pack_duration_ns});
  ++sent;
  ++*entry->sent;
  return true;
}

void HostRuntime::send(Message message, const sim::ArgValues& args) {
  sim::Packet packet;
  if (prepare_send(message, args, packet)) transport_->send(std::move(packet));
}

void HostRuntime::send_batch(std::span<Outbound> batch) {
  tx_batch_.clear();
  if (tx_batch_.capacity() < batch.size()) tx_batch_.reserve(batch.size());
  for (Outbound& outbound : batch) {
    sim::Packet packet;
    if (prepare_send(outbound.message, outbound.args, packet)) {
      tx_batch_.push_back(std::move(packet));
    }
  }
  if (!tx_batch_.empty()) transport_->send_batch(tx_batch_);
  tx_batch_.clear();
}

bool HostRuntime::handle_down_send(sim::Packet& packet, int computation) {
  obs::flight(obs::FlightKind::kFallback, static_cast<std::uint64_t>(fallback_policy_),
              send_queue_.size());
  if (fallback_dump_armed_) {
    // First send of this outage: snapshot the lead-up while the heartbeat
    // misses and DOWN transition are still in the rings.
    fallback_dump_armed_ = false;
    obs::FlightRecorder::instance().trigger_dump("fallback");
  }
  switch (fallback_policy_) {
    case FallbackPolicy::kFailFast:
      ++fallback_fail_fast;
      fail_send(ErrorKind::kDeviceDown,
                "device down; send for computation " + std::to_string(computation) +
                    " rejected (fail_fast)");
      return true;
    case FallbackPolicy::kHostExecute: {
      if (shadow_device_ == nullptr) {
        ++fallback_fail_fast;
        fail_send(ErrorKind::kDeviceDown,
                  "device down and no shadow device attached; send for computation " +
                      std::to_string(computation) + " rejected");
        return true;
      }
      ++fallback_host_executed;
      ++sent;
      ++*computations_.at(computation).sent;
      pending_round_trips_[computation].push_back({transport_->now_ns(), 0.0});
      const sim::StepOutcome step = shadow_device_->process(packet);
      if (step.forward.drop) return true;
      // Whatever the action addressed, the response the shadow can deliver
      // is this host's copy.
      if (step.forward.multicast) packet.netcl.dst = host_id_;
      packet.netcl.to = 0;
      deliver_packet(packet);
      return true;
    }
    case FallbackPolicy::kQueueUntilRecovered:
      if (send_queue_.size() >= kMaxQueuedSends) {
        send_queue_.pop_front();
        ++fallback_dropped_overflow;
        warn_once("fallback queue overflowed; dropping oldest packet");
      }
      send_queue_.push_back(std::move(packet));
      ++fallback_queued;
      return true;
  }
  return false;
}

void HostRuntime::flush_queue() {
  const std::uint64_t flushed_before = fallback_flushed.value();
  const bool had_queue = !send_queue_.empty();
  while (!send_queue_.empty()) {
    sim::Packet packet = std::move(send_queue_.front());
    send_queue_.pop_front();
    const int comp = packet.netcl.comp;
    auto& pending = pending_round_trips_[comp];
    if (pending.size() >= kMaxPendingRoundTrips) {
      pending.pop_front();
      ++dropped_stale_round_trip;
      if (slo_enabled_) {
        slo_.record_bad(static_cast<std::uint32_t>(comp), transport_->now_ns() / 1e9);
      }
    }
    // Pack happened back when the send was queued; its duration was
    // recorded then and is not re-attributed to this span.
    pending.push_back({transport_->now_ns(), 0.0});
    transport_->send(std::move(packet));
    ++sent;
    ++fallback_flushed;
    ++*computations_.at(comp).sent;
  }
  if (had_queue) {
    obs::flight(obs::FlightKind::kQueueFlush, fallback_flushed.value() - flushed_before);
  }
}

void HostRuntime::attach_failure_detector(FailureDetector& detector) {
  detector_ = &detector;
  detector.subscribe([this](FailureDetector::State state, bool generation_changed) {
    if (state != FailureDetector::State::kUp) {
      fallback_dump_armed_ = true;
      return;
    }
    // Order matters on recovery: re-offload managed state first, then let
    // buffered traffic loose against the restored device.
    if (generation_changed && on_resync_) {
      on_resync_();
      obs::flight(obs::FlightKind::kResync, 0,
                  detector_ != nullptr ? detector_->generation() : 0);
    }
    flush_queue();
  });
}

void HostRuntime::set_shadow_device(std::unique_ptr<sim::SwitchDevice> device) {
  shadow_device_ = std::move(device);
}

void HostRuntime::fail_send(ErrorKind kind, std::string message) {
  error_ = Error{kind, std::move(message)};
  warn_once(error_.message);
  if (on_error_) on_error_(error_);
}

void HostRuntime::on_receive(Receiver receiver) { receiver_ = std::move(receiver); }

void HostRuntime::warn_once(const std::string& cause) {
  if (!warned_.insert(cause).second) return;
  std::cerr << to_string(Severity::Warning) << ": host " << host_id_ << ": " << cause << "\n";
}

DeviceConnection::DeviceConnection(sim::Fabric& fabric, std::uint16_t device_id)
    : fabric_(&fabric), device_(fabric.device(device_id)), device_id_(device_id) {}

DeviceConnection::DeviceConnection(const std::string& host, std::uint16_t control_port,
                                   const net::ControlClientOptions& options)
    : remote_(std::make_unique<net::ControlClient>(host, control_port, options)) {
  if (!remote_->ping(device_id_)) remote_.reset();
}

DeviceConnection::~DeviceConnection() = default;

bool DeviceConnection::valid() const {
  return device_ != nullptr || (remote_ != nullptr && remote_->connected());
}

Error DeviceConnection::op_error(const std::string& what) const {
  if (remote_ != nullptr) {
    // The transport error, when one is pending, is the real cause; an op
    // the daemon answered-and-refused leaves it empty.
    if (Error err = remote_->last_error()) return err;
    return {ErrorKind::kRejected, what + " rejected by device"};
  }
  if (device_ == nullptr) return {ErrorKind::kDisconnected, what + ": no device attached"};
  if (fabric_ != nullptr && fabric_->device_down(device_id_)) {
    return {ErrorKind::kDeviceDown, what + ": device is down"};
  }
  return {ErrorKind::kRejected, what + " rejected by device"};
}

Error DeviceConnection::ping_e(PingInfo& info) {
  if (remote_ != nullptr) {
    std::uint16_t id = 0;
    if (remote_->ping(id, info.generation, info.device_clock_ns)) return {};
    return op_error("ping");
  }
  if (fabric_ == nullptr || device_ == nullptr) {
    return {ErrorKind::kDisconnected, "ping: no device attached"};
  }
  if (fabric_->device_down(device_id_)) return {ErrorKind::kDeviceDown, "ping: device is down"};
  info.generation = device_->generation();
  // Sim devices stamp hops in fabric time, which is also what a
  // SimTransport's now_ns() reports — one shared clock, offset zero by
  // construction, and this readback lets callers verify that.
  info.device_clock_ns = static_cast<std::uint64_t>(fabric_->now());
  return {};
}

Error DeviceConnection::last_error() const {
  return remote_ != nullptr ? remote_->last_error() : Error{};
}

Error DeviceConnection::managed_write_e(const std::string& name, std::uint64_t value,
                                        const std::vector<std::uint64_t>& indices) {
  const bool ok = remote_ != nullptr
                      ? remote_->managed_write(name, indices, value)
                      : device_ != nullptr && device_->managed_write(name, indices, value);
  if (!ok) return op_error("managed_write '" + name + "'");
  journal_writes_[{name, indices}] = value;
  return {};
}

Error DeviceConnection::managed_read_e(const std::string& name, std::uint64_t& out,
                                       const std::vector<std::uint64_t>& indices) {
  const bool ok = remote_ != nullptr
                      ? remote_->managed_read(name, indices, out)
                      : device_ != nullptr && device_->managed_read(name, indices, out);
  return ok ? Error{} : op_error("managed_read '" + name + "'");
}

Error DeviceConnection::insert_e(const std::string& table, std::uint64_t key,
                                 std::uint64_t value) {
  return insert_range_e(table, key, key, value);
}

Error DeviceConnection::insert_range_e(const std::string& table, std::uint64_t lo,
                                       std::uint64_t hi, std::uint64_t value) {
  const bool ok = remote_ != nullptr
                      ? remote_->insert(table, lo, hi, value)
                      : device_ != nullptr && device_->lookup_insert(table, lo, hi, value);
  if (!ok) return op_error("insert into '" + table + "'");
  journal_inserts_[{table, lo, hi}] = value;
  return {};
}

Error DeviceConnection::remove_e(const std::string& table, std::uint64_t key) {
  const bool ok = remote_ != nullptr ? remote_->remove(table, key)
                                     : device_ != nullptr && device_->lookup_remove(table, key);
  if (!ok) return op_error("remove from '" + table + "'");
  // The device removes the entry covering `key`; forget journaled
  // entries the removal covered so resync does not resurrect them.
  std::erase_if(journal_inserts_, [&](const auto& entry) {
    const auto& [table_name, lo, hi] = entry.first;
    return table_name == table && lo <= key && key <= hi;
  });
  return {};
}

Error DeviceConnection::set_multicast_group_e(std::uint16_t group,
                                              const std::vector<std::uint16_t>& hosts) {
  bool ok = false;
  if (remote_ != nullptr) {
    ok = remote_->set_multicast_group(group, hosts);
  } else if (fabric_ != nullptr && device_ != nullptr) {
    std::vector<sim::NodeRef> members;
    members.reserve(hosts.size());
    for (const std::uint16_t host : hosts) members.push_back(sim::host_ref(host));
    fabric_->set_multicast_group(device_id_, group, std::move(members));
    ok = true;
  }
  if (!ok) return op_error("set_multicast_group " + std::to_string(group));
  journal_groups_[group] = hosts;
  return {};
}

Error DeviceConnection::resync_e() {
  ++resyncs_;
  bool ok = true;
  // Replay straight through the underlying device/client, not the public
  // methods — re-journaling what is already journaled would be harmless
  // but remove()-during-replay bookkeeping is simpler to reason about this
  // way.
  for (const auto& [cell, value] : journal_writes_) {
    const auto& [name, indices] = cell;
    ok &= remote_ != nullptr ? remote_->managed_write(name, indices, value)
                             : device_ != nullptr && device_->managed_write(name, indices, value);
  }
  for (const auto& [range, value] : journal_inserts_) {
    const auto& [table, lo, hi] = range;
    ok &= remote_ != nullptr ? remote_->insert(table, lo, hi, value)
                             : device_ != nullptr && device_->lookup_insert(table, lo, hi, value);
  }
  for (const auto& [group, hosts] : journal_groups_) {
    if (remote_ != nullptr) {
      ok &= remote_->set_multicast_group(group, hosts);
    } else if (fabric_ != nullptr && device_ != nullptr) {
      std::vector<sim::NodeRef> members;
      members.reserve(hosts.size());
      for (const std::uint16_t host : hosts) members.push_back(sim::host_ref(host));
      fabric_->set_multicast_group(device_id_, group, std::move(members));
    } else {
      ok = false;
    }
  }
  return ok ? Error{} : op_error("resync (some journal replays failed)");
}

Error DeviceConnection::load_or_swap(std::uint32_t tenant, const std::string& name,
                                     const std::string& source,
                                     const std::map<std::string, std::uint64_t>& defines,
                                     bool replace, std::uint16_t* stages,
                                     std::string* summary) {
  const char* const what = replace ? "hot_swap_kernel" : "load_kernel";
  if (remote_ != nullptr) {
    return remote_->load_kernel(tenant, name, source, defines, replace, stages, summary);
  }
  if (device_ == nullptr) return {ErrorKind::kDisconnected, std::string(what) + ": no device attached"};
  if (fabric_ != nullptr && fabric_->device_down(device_id_)) {
    return {ErrorKind::kDeviceDown, std::string(what) + ": device is down"};
  }
  if (!compiler_) {
    return {ErrorKind::kRejected,
            std::string(what) + ": connection has no kernel compiler installed "
                                "(set_compiler with driver::artifact_compiler)"};
  }
  sim::ProgramArtifact artifact;
  if (Error err = compiler_(source, defines, device_id_, artifact)) return err;
  if (!name.empty()) artifact.name = name;
  const std::uint16_t used = static_cast<std::uint16_t>(artifact.stages_used);
  Error err = replace ? device_->swap_program(tenant, std::move(artifact))
                      : device_->load_program(tenant, std::move(artifact));
  if (err) return err;
  if (stages != nullptr) *stages = used;
  if (summary != nullptr) *summary = device_->admission().summary();
  return {};
}

Error DeviceConnection::load_kernel_e(std::uint32_t tenant, const std::string& name,
                                      const std::string& source,
                                      const std::map<std::string, std::uint64_t>& defines,
                                      std::uint16_t* stages, std::string* summary) {
  return load_or_swap(tenant, name, source, defines, /*replace=*/false, stages, summary);
}

Error DeviceConnection::hot_swap_kernel_e(std::uint32_t tenant, const std::string& name,
                                          const std::string& source,
                                          const std::map<std::string, std::uint64_t>& defines,
                                          std::uint16_t* stages, std::string* summary) {
  if (Error err = load_or_swap(tenant, name, source, defines, /*replace=*/true, stages,
                               summary)) {
    return err;
  }
  // The swap installed a fresh register file for this tenant; replay the
  // journal so managed state the host offloaded survives the generation.
  return resync_e();
}

Error DeviceConnection::unload_kernel_e(std::uint32_t tenant) {
  if (remote_ != nullptr) return remote_->unload_kernel(tenant);
  if (device_ == nullptr) return {ErrorKind::kDisconnected, "unload_kernel: no device attached"};
  if (fabric_ != nullptr && fabric_->device_down(device_id_)) {
    return {ErrorKind::kDeviceDown, "unload_kernel: device is down"};
  }
  return device_->unload_program(tenant);
}

Error DeviceConnection::list_kernels_e(std::vector<net::KernelInfo>& out) {
  out.clear();
  if (remote_ != nullptr) return remote_->list_kernels(out);
  if (device_ == nullptr) return {ErrorKind::kDisconnected, "list_kernels: no device attached"};
  for (const sim::TenantInfo& info : device_->tenant_table()) {
    net::KernelInfo entry;
    entry.tenant = info.id;
    entry.name = info.name;
    entry.stages_used = static_cast<std::uint16_t>(info.stages_used);
    entry.computations.reserve(info.computations.size());
    for (const int comp : info.computations) {
      entry.computations.push_back(static_cast<std::uint32_t>(comp));
    }
    entry.usage = info.usage;
    entry.packets_processed = info.stats.packets_processed;
    entry.kernels_executed = info.stats.kernels_executed;
    entry.drops_action = info.stats.drops_action;
    out.push_back(std::move(entry));
  }
  return {};
}

const sim::DeviceStats* DeviceConnection::stats() {
  if (remote_ != nullptr) {
    return remote_->stats(remote_stats_) ? &remote_stats_ : nullptr;
  }
  return device_ == nullptr ? nullptr : &device_->stats;
}

std::map<std::string, sim::RegisterAccess> DeviceConnection::register_access() const {
  if (remote_ != nullptr) {
    std::map<std::string, sim::RegisterAccess> access;
    return remote_->register_access(access) ? access
                                            : std::map<std::string, sim::RegisterAccess>{};
  }
  return device_ == nullptr ? std::map<std::string, sim::RegisterAccess>{}
                            : device_->register_access();
}

}  // namespace netcl::runtime
