// The NetCL message transport abstraction (§V-B), v2: batched.
//
// The paper's host runtime is a UDP backend talking to a real device; this
// reproduction grew up on the in-process discrete-event fabric. Transport
// abstracts the difference so the host runtime (and anything built on it,
// like runtime::RetransmitWindow) is written once: NetCL wire packets go
// out, received packets come back through a callback, and one-shot timers
// run on the transport's clock — simulated time for SimTransport, wall
// clock for UdpTransport.
//
// v2 (ISSUE 5) makes the *batch* the primitive: implementations provide
// send_batch(), and the single-packet send() is a thin wrapper around a
// one-element batch. Symmetrically, receivers may opt into whole-batch
// delivery with set_batch_receiver(); transports that drain multiple
// packets per event-loop turn (UdpTransport, a burst per syscall) hand the
// burst over in one call instead of one callback per packet. Batch order is the
// wire order: send_batch(p0..pn) puts p0 first on the wire, and a
// delivered batch preserves arrival order.
#pragma once

#include <functional>
#include <span>

#include "sim/packet.hpp"

namespace netcl::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Implementation tag for logs and metrics ("sim", "udp").
  [[nodiscard]] virtual const char* kind() const = 0;

  /// Sends a batch of NetCL wire packets toward the network, first element
  /// first. Each packet's NetCL header decides where it goes (the fabric
  /// routes on it; the UDP transport hands it to the attached device
  /// daemon). The span's elements are consumed: implementations may move
  /// from them, so callers must treat them as moved-from afterwards.
  virtual void send_batch(std::span<sim::Packet> packets) = 0;

  /// Single-packet convenience: a one-element batch.
  void send(sim::Packet packet) { send_batch({&packet, 1}); }

  /// Installs the handler invoked for every packet arriving at this
  /// endpoint. At most one receiver; installing replaces the previous one.
  using Receiver = std::function<void(const sim::Packet&)>;
  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Batch-aware alternative: invoked once per arriving burst with the
  /// packets in arrival order. When installed it takes precedence over the
  /// per-packet receiver; transports without batched receive deliver
  /// one-element spans.
  using BatchReceiver = std::function<void(std::span<const sim::Packet>)>;
  void set_batch_receiver(BatchReceiver receiver) { batch_receiver_ = std::move(receiver); }

  /// One-shot timer: `callback` fires `delay_ns` from now on this
  /// transport's clock (host-side timers, e.g. retransmission timeouts).
  virtual void schedule(double delay_ns, std::function<void()> callback) = 0;

  /// Current time on the transport's clock, in nanoseconds.
  [[nodiscard]] virtual double now_ns() const = 0;

 protected:
  /// Implementations funnel every arriving batch (possibly of one) here;
  /// it dispatches to the batch receiver when installed, else per packet.
  void deliver(std::span<const sim::Packet> batch) {
    if (batch_receiver_ != nullptr) {
      batch_receiver_(batch);
      return;
    }
    if (receiver_ == nullptr) return;
    for (const sim::Packet& packet : batch) receiver_(packet);
  }

  [[nodiscard]] bool has_receiver() const {
    return receiver_ != nullptr || batch_receiver_ != nullptr;
  }

 private:
  Receiver receiver_;
  BatchReceiver batch_receiver_;
};

}  // namespace netcl::net
