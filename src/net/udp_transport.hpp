// Transport over real POSIX UDP sockets (the paper's §V-B backend shape).
//
// One socket, one peer (the attached device daemon), a poll(2)-based event
// loop, and wall-clock one-shot timers. The owner drives the loop
// explicitly (poll_once / run_for / run_until) — like fabric.run(), there
// is no background thread; receive callbacks and timers fire on the
// calling thread.
//
// The syscalls are net::DatagramSocket's, shared with the device daemon.
// send_batch serializes into the socket's egress queue; each poll turn
// decodes the socket's receive bursts (a GSO burst from the daemon arrives
// as one coalesced message, split back by the socket) into reused packets
// and hands each burst whole to the batch receiver.
//
// When the queue is flushed depends on where the send is made. Outside a
// dispatch, send_batch flushes before it returns. Inside one (a receive
// callback handling a burst, or a timer callback), it only queues: the
// queue is flushed once when the burst's delivery returns, once after the
// timer sweep, and in any case before poll_once next waits in poll(2), so
// a callback may send and then run_until() the answer. A worker that
// answers each packet of a burst thus sends the answers in one syscall
// (one GSO super-datagram when they are equal-sized), in send order.
//
// Metrics live in an obs registry (default name "udp"), so obs::dump()
// shows the real-network path next to the fabric's counters.
#pragma once

#include <netinet/in.h>

#include <chrono>
#include <string>
#include <tuple>
#include <vector>

#include "net/datagram_socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace netcl::net {

class UdpTransport final : public Transport {
  // Declared before the public counter references below so it is
  // constructed first.
  obs::MetricsRegistry metrics_;

 public:
  static constexpr std::size_t kMaxBatch = DatagramSocket::kMaxBatch;

  struct Options {
    /// Local UDP port to bind (0 = kernel-assigned; read local_port()).
    std::uint16_t bind_port = 0;
    /// Peer (IPv4 literal) all sends go to; may be set later via set_peer.
    std::string peer_host = "127.0.0.1";
    std::uint16_t peer_port = 0;
    /// Registry name; same-named registries merge additively in obs::dump().
    std::string metrics_name = "udp";
    /// Datagrams moved per send/receive syscall and segments per GSO
    /// super-datagram, clamped to [1, kMaxBatch]. 1 degenerates to the
    /// per-packet path; small values exercise the partial-completion resume
    /// logic in tests.
    std::size_t max_syscall_batch = kMaxBatch;
  };

  // A delegating default ctor rather than `= {}` on the Options overload:
  // default arguments for a nested aggregate with member initializers are
  // ill-formed inside the enclosing class (GCC enforces this).
  UdpTransport() : UdpTransport(Options()) {}
  explicit UdpTransport(const Options& options);
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// False when socket creation/binding failed (error() explains).
  [[nodiscard]] bool valid() const { return socket_.valid(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint16_t local_port() const { return socket_.local_port(); }
  void set_peer(const std::string& host, std::uint16_t port);

  // --- Transport ------------------------------------------------------------
  [[nodiscard]] const char* kind() const override { return "udp"; }
  /// Flushes at once outside a dispatch; inside one (a receive or timer
  /// callback) the packets leave when the dispatch returns, or before the
  /// next wait in poll(2), whichever comes first.
  void send_batch(std::span<sim::Packet> packets) override;
  void schedule(double delay_ns, std::function<void()> callback) override;
  /// Wall-clock ns since this transport was constructed.
  [[nodiscard]] double now_ns() const override;

  // --- event loop -----------------------------------------------------------
  /// One loop turn: fires due timers, waits up to `timeout_ms` (clamped to
  /// the next timer deadline) for datagrams, drains and dispatches them.
  void poll_once(int timeout_ms);
  /// Loops until `done()` or the wall-clock timeout. Returns done().
  bool run_until(const std::function<bool()>& done, double timeout_ns);
  /// Loops for the given wall-clock duration.
  void run_for(double duration_ns);

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  obs::Counter& packets_sent = metrics_.counter("packets_sent");
  obs::Counter& packets_received = metrics_.counter("packets_received");
  obs::Counter& bytes_sent = metrics_.counter("bytes_sent");
  obs::Counter& bytes_received = metrics_.counter("bytes_received");
  /// Transmit-side syscalls. With batching this grows ~1/32 as fast as
  /// packets_sent; that ratio is the bench's headline.
  obs::Counter& send_syscalls = metrics_.counter("send_syscalls");
  /// Receive-side syscalls, including the final empty probe that observes
  /// EAGAIN. A burst shorter than a full batch of messages needs no probe,
  /// so with GRO one daemon answer burst costs one syscall.
  obs::Counter& recv_syscalls = metrics_.counter("recv_syscalls");
  /// Equal-sized runs sent as one GSO super-datagram (each also counts
  /// once in send_syscalls).
  obs::Counter& gso_batches = metrics_.counter("gso_batches");
  /// A send failed or no peer is configured.
  obs::Counter& send_errors = metrics_.counter("send_errors");
  /// Datagram arrived but was not a well-formed NetCL wire packet.
  obs::Counter& deserialize_errors = metrics_.counter("deserialize_errors");
  obs::Counter& timers_fired = metrics_.counter("timers_fired");

 private:
  struct Timer {
    double due_ns;
    std::uint64_t sequence;  // FIFO tiebreaker
    std::function<void()> callback;
    bool operator>(const Timer& other) const {
      return std::tie(due_ns, sequence) > std::tie(other.due_ns, other.sequence);
    }
  };

  /// Marks the receive or timer callbacks it encloses as a dispatch: their
  /// sends are queued, and the outermost scope flushes them on exit.
  class DispatchScope {
   public:
    explicit DispatchScope(UdpTransport& transport) : transport_(transport) {
      ++transport_.dispatch_depth_;
    }
    ~DispatchScope() {
      if (--transport_.dispatch_depth_ == 0) transport_.flush_queued();
    }
    DispatchScope(const DispatchScope&) = delete;
    DispatchScope& operator=(const DispatchScope&) = delete;

   private:
    UdpTransport& transport_;
  };

  void fire_due_timers();
  void drain_socket();
  /// Sends whatever send_batch queued since the last flush.
  void flush_queued();

  DatagramSocket socket_;
  std::string error_;
  sockaddr_in peer_{};
  bool has_peer_ = false;
  /// Decoded packets of one receive burst, reused every burst; as long as
  /// the largest burst seen (batch() messages, more datagrams with GRO).
  std::vector<sim::Packet> rx_batch_;
  /// Min-heap on (due_ns, sequence) under std::push_heap / std::pop_heap,
  /// so a firing timer's callback is moved out, not copied.
  std::vector<Timer> timers_;
  std::uint64_t timer_sequence_ = 0;
  /// Nesting of receive and timer dispatch (a callback may run_until()).
  int dispatch_depth_ = 0;
  /// Packets send_batch serialized into the egress queue since the last
  /// flush.
  std::size_t queued_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace netcl::net
