#include "sim/fabric.hpp"

#include <cassert>
#include <deque>

#include "obs/profiler.hpp"

namespace netcl::sim {

Fabric::Fabric(std::uint64_t seed) : rng_(seed) {}

void Fabric::add_host(std::uint16_t id) {
  adjacency_.try_emplace(host_ref(id));
  invalidate_routes();
}

SwitchDevice* Fabric::add_device(std::unique_ptr<SwitchDevice> device) {
  const std::uint16_t id = device->device_id();
  adjacency_.try_emplace(device_ref(id));
  auto [it, inserted] = devices_.insert_or_assign(id, std::move(device));
  invalidate_routes();
  return it->second.get();
}

SwitchDevice* Fabric::add_forwarding_device(std::uint16_t id) {
  return add_device(std::make_unique<SwitchDevice>(id));
}

void Fabric::connect(NodeRef a, NodeRef b, const LinkConfig& config) {
  adjacency_[a].push_back({b, config, 0.0});
  adjacency_[b].push_back({a, config, 0.0});
  invalidate_routes();
}

void Fabric::set_multicast_group(std::uint16_t device_id, std::uint16_t group,
                                 std::vector<NodeRef> members) {
  multicast_groups_[{device_id, group}] = std::move(members);
}

SwitchDevice* Fabric::device(std::uint16_t id) {
  const auto it = devices_.find(id);
  return it == devices_.end() ? nullptr : it->second.get();
}

void Fabric::restart_device(std::uint16_t id) {
  if (SwitchDevice* dev = device(id)) dev->restart();
  down_devices_.erase(id);
}

void Fabric::set_link_partitioned(NodeRef a, NodeRef b, bool partitioned) {
  for (Link& link : adjacency_[a]) {
    if (link.peer == b) link.partitioned = partitioned;
  }
  for (Link& link : adjacency_[b]) {
    if (link.peer == a) link.partitioned = partitioned;
  }
}

void Fabric::set_host_handler(std::uint16_t host, HostHandler handler) {
  host_handlers_[host] = std::move(handler);
}

void Fabric::send_from_host(std::uint16_t host, Packet packet) {
  forward(host_ref(host), std::move(packet), now_);
}

void Fabric::schedule(double delay_ns, std::function<void(Fabric&)> callback) {
  events_.push({now_ + delay_ns, sequence_++, {}, {}, std::move(callback)});
}

NodeRef Fabric::route_target(const Packet& packet) const {
  if (packet.has_netcl && packet.netcl.to != 0) return device_ref(packet.netcl.to);
  return host_ref(packet.netcl.dst);
}

NodeRef Fabric::next_hop(NodeRef node, NodeRef target) {
  if (node == target) return node;
  const auto key = std::make_pair(node, target);
  const auto cached = routes_.find(key);
  if (cached != routes_.end()) return cached->second;

  // BFS from `node`; record the first hop of the shortest path.
  std::map<NodeRef, NodeRef> first_hop;
  std::deque<NodeRef> frontier{node};
  std::map<NodeRef, bool> visited{{node, true}};
  while (!frontier.empty()) {
    const NodeRef current = frontier.front();
    frontier.pop_front();
    for (const Link& link : adjacency_[current]) {
      if (visited[link.peer]) continue;
      visited[link.peer] = true;
      first_hop[link.peer] = current == node ? link.peer : first_hop[current];
      if (link.peer == target) {
        routes_[key] = first_hop[link.peer];
        return first_hop[link.peer];
      }
      frontier.push_back(link.peer);
    }
  }
  return node;  // unreachable; caller drops
}

void Fabric::transmit(NodeRef from, NodeRef to, Packet&& packet, double start_time) {
  Link* link = nullptr;
  for (Link& candidate : adjacency_[from]) {
    if (candidate.peer == to) {
      link = &candidate;
      break;
    }
  }
  if (link == nullptr) return;  // no such link

  if (link->partitioned) {
    ++packets_dropped_partition;
    return;
  }
  if (link->config.loss_probability > 0.0 &&
      rng_.next_double() < link->config.loss_probability) {
    ++packets_dropped_loss;
    return;
  }
  const double serialization_ns =
      static_cast<double>(packet.wire_bytes()) * 8.0 / link->config.gbps;
  const double depart = std::max(start_time, link->next_free_ns);
  link->next_free_ns = depart + serialization_ns;
  double arrival = depart + serialization_ns + link->config.latency_ns;
  // Fault injection beyond Bernoulli loss (ISSUE 2): probabilities are
  // checked before drawing so configs without faults consume no randomness
  // (seeded runs stay reproducible across this change).
  if (link->config.reorder_probability > 0.0 &&
      rng_.next_double() < link->config.reorder_probability) {
    arrival += rng_.next_double() * link->config.reorder_jitter_ns;
    ++packets_reordered;
  }
  if (link->config.duplicate_probability > 0.0 &&
      rng_.next_double() < link->config.duplicate_probability) {
    events_.push({arrival + serialization_ns, sequence_++, to, packet, {}});
    ++packets_duplicated;
  }
  events_.push({arrival, sequence_++, to, std::move(packet), {}});
  ++packets_forwarded;
}

void Fabric::forward(NodeRef from, Packet&& packet, double depart_time) {
  const NodeRef target = route_target(packet);
  if (target == from) {
    // Already at the destination (e.g. reflect on the attached switch).
    if (from.kind == NodeRef::Kind::Device) {
      if (SwitchDevice* dev = device(from.id)) ++dev->stats.recirculations;
    }
    events_.push({depart_time, sequence_++, target, std::move(packet), {}});
    return;
  }
  const NodeRef hop = next_hop(from, target);
  if (hop == from) return;  // unreachable
  transmit(from, hop, std::move(packet), depart_time);
}

void Fabric::deliver(const Event& event) {
  if (event.callback != nullptr) {
    ++timer_events;
    event.callback(*this);
    return;
  }
  if (event.at.kind == NodeRef::Kind::Host) {
    ++packets_delivered;
    const auto it = host_handlers_.find(event.at.id);
    if (it != host_handlers_.end()) it->second(*this, event.at.id, event.packet);
    return;
  }

  // Device processing.
  SwitchDevice* dev = device(event.at.id);
  if (dev == nullptr) return;
  if (device_down(event.at.id)) {
    // A crashed device neither computes nor forwards; the packet dies here
    // exactly as it would at a powered-off switch.
    ++packets_dropped_device_down;
    return;
  }
  Packet packet = event.packet;
  double ready_time = now_;

  if (packet.has_netcl && packet.netcl.to == dev->device_id()) {
    ready_time += dev->pipeline_latency_ns();
    const StepOutcome step = dev->process(packet);
    if (!step.executed) ++packets_unknown_computation;
    if (step.forward.drop) {
      ++packets_dropped_action;
      return;
    }
    // INT stamp (ISSUE 4): ingress on arrival, egress once the pipeline
    // latency is paid, queue depth = fabric events pending at delivery.
    // Stamped before the multicast fan-out so every copy carries the hop.
    if (packet.telemetry.requested) {
      stamp_hop(packet.telemetry,
                {dev->device_id(), dev->generation(), static_cast<std::uint64_t>(now_),
                 static_cast<std::uint64_t>(ready_time),
                 static_cast<std::uint32_t>(events_.size()), step.stage_ops});
    }
    if (step.forward.multicast) {
      ++packets_multicast;
      const auto members =
          multicast_groups_.find({dev->device_id(), step.forward.multicast_group});
      if (members != multicast_groups_.end()) {
        for (const NodeRef member : members->second) {
          Packet copy = packet;
          if (member.kind == NodeRef::Kind::Host) {
            copy.netcl.dst = member.id;
            copy.netcl.to = 0;
          } else {
            copy.netcl.to = member.id;
          }
          forward(event.at, std::move(copy), ready_time);
        }
      }
      return;
    }
  } else if (packet.has_netcl) {
    // No-op transit through a device that was not asked to compute (§IV).
    ready_time += dev->pipeline_latency_ns() * 0.5;
    ++dev->stats.transits;
    if (packet.telemetry.requested) {
      stamp_hop(packet.telemetry,
                {dev->device_id(), dev->generation(), static_cast<std::uint64_t>(now_),
                 static_cast<std::uint64_t>(ready_time),
                 static_cast<std::uint32_t>(events_.size()), 0});
    }
  }
  forward(event.at, std::move(packet), ready_time);
}

double Fabric::run(double max_time_ns) {
  // Simulation runs are profiled like real event loops: register the
  // driving thread once so --profile covers sim-backed experiments too.
  obs::profile_register_thread();
  while (!events_.empty()) {
    const Event event = events_.top();
    if (event.time_ns > max_time_ns) break;
    events_.pop();
    now_ = event.time_ns;
    deliver(event);
  }
  return now_;
}

}  // namespace netcl::sim
