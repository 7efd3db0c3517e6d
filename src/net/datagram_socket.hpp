// One batched, non-blocking IPv4 UDP socket: the datagram syscall layer
// under both the host transport (UdpTransport) and the device daemon
// (SwdServer).
//
// Egress is a queue: queue(to) hands out a pooled buffer to serialize one
// datagram into, and flush() sends everything queued, in order. Consecutive
// datagrams of one size to one destination ride one UDP GSO super-datagram
// (UDP_SEGMENT), which traverses the network stack once and is split into
// ordinary datagrams at the bottom, so receivers see identical bytes. The
// rest go through sendmmsg with a destination per message, resuming after a
// partial completion. Ingress is receive(): one recvmmsg burst with each
// datagram's source. Without the mmsg syscalls or UDP_SEGMENT (configure
// probes NETCL_HAVE_MMSG, NETCL_HAVE_UDP_GSO) the same calls fall back to
// one sendto/recvfrom per datagram.
//
// Counters go into the owner's registry: send_syscalls, recv_syscalls (the
// final empty probe that observes EAGAIN included), packets_sent,
// bytes_sent, gso_batches (each also one send syscall), send_errors, and
// the egress pool's buffer_pool.* series.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/buffer_pool.hpp"
#include "obs/metrics.hpp"

namespace netcl::net {

/// True when a failed UDP_SEGMENT send's errno means the kernel cannot do
/// GSO on this socket (EIO, EINVAL, EOPNOTSUPP, ENOPROTOOPT), so GSO stays
/// off from then on. Other errors (EAGAIN, ENOBUFS, ...) are transient.
[[nodiscard]] bool gso_unsupported(int error);

/// Whether this build can send with UDP GSO at all (the configure-time
/// probes); the kernel may still refuse it at runtime.
[[nodiscard]] bool gso_compiled_in();

class DatagramSocket {
 public:
  /// Ceiling on datagrams per syscall and segments per GSO super-datagram
  /// (the syscall arrays are stack-allocated at this size).
  static constexpr std::size_t kMaxBatch = 32;

  /// One received datagram; `bytes` is valid until the next receive().
  struct Datagram {
    std::span<const std::uint8_t> bytes;
    sockaddr_in from{};
  };

  /// Binds to `port` on all addresses (0 = kernel-assigned) and counts into
  /// `metrics`, which must outlive the socket. `batch`, clamped to
  /// [1, kMaxBatch], caps datagrams per syscall and GSO segments.
  DatagramSocket(obs::MetricsRegistry& metrics, std::uint16_t port,
                 std::size_t batch = kMaxBatch);
  ~DatagramSocket();
  DatagramSocket(const DatagramSocket&) = delete;
  DatagramSocket& operator=(const DatagramSocket&) = delete;

  /// False when socket creation or binding failed (error() explains).
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  /// The descriptor to poll(2) for readability.
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::size_t batch() const { return batch_; }

  /// An empty pooled buffer for one datagram to `to`. Fill it before the
  /// next queue() or flush().
  [[nodiscard]] std::vector<std::uint8_t>& queue(const sockaddr_in& to);
  /// Sends everything queued, in queue order, and returns the number of
  /// datagrams the kernel took. On a send failure the rest of the queue is
  /// counted in send_errors and dropped.
  std::size_t flush();
  /// One receive burst of up to batch() datagrams in arrival order; empty
  /// when nothing is waiting. A burst shorter than batch() means the
  /// socket was drained when the syscall ran.
  [[nodiscard]] std::span<const Datagram> receive();

 private:
  struct Outgoing {
    sockaddr_in to{};
    std::vector<std::uint8_t> wire;  // borrowed from pool_ until the flush
  };

  /// Length of the run at `offset` that can ride one GSO super-datagram:
  /// equal sizes, one destination, within the segment and byte caps.
  [[nodiscard]] std::size_t gso_run(std::size_t offset) const;
  /// Sends egress_[offset, offset + run) as one UDP_SEGMENT sendmsg; false
  /// when the kernel refused it.
  bool send_gso(std::size_t offset, std::size_t run);
  /// One sendmmsg from `offset`; the number taken, 0 after a failure.
  std::size_t send_mmsg(std::size_t offset);

  obs::Counter& send_syscalls_;
  obs::Counter& recv_syscalls_;
  obs::Counter& packets_sent_;
  obs::Counter& bytes_sent_;
  obs::Counter& gso_batches_;
  obs::Counter& send_errors_;
  int fd_ = -1;
  std::string error_;
  std::uint16_t local_port_ = 0;
  std::size_t batch_;
  /// Cleared for good when the kernel reports it cannot segment.
  bool gso_enabled_;
  BufferPool pool_;
  std::vector<Outgoing> egress_;
  /// batch_ receive slots of 64 KiB each, allocated on the first receive.
  std::vector<std::vector<std::uint8_t>> rx_slots_;
  std::vector<Datagram> rx_;
};

}  // namespace netcl::net
