// One batched, non-blocking IPv4 UDP socket: the datagram syscall layer
// under both the host transport (UdpTransport) and the device daemon
// (SwdServer).
//
// Egress is a queue: queue(to) hands out a pooled buffer to serialize one
// datagram into, and flush() sends everything queued, in queue order per
// destination. With GSO on, flush() first groups the queue by destination
// (destinations ordered by first appearance, each one's datagrams in queue
// order), so a destination's datagrams stay adjacent even when the queue
// interleaves them with other destinations' (a daemon answering two hosts
// in one cycle). Consecutive datagrams of one size to one destination then
// ride one UDP GSO super-datagram (UDP_SEGMENT), which traverses the
// network stack once and is split into ordinary datagrams at the bottom,
// so receivers see identical bytes. The rest go through sendmmsg with a
// destination per message, resuming after a partial completion. Order
// across destinations is not kept: no receiver can observe it.
//
// Ingress is receive(): one recvmmsg burst of up to batch() messages, each
// datagram with its source. The socket also sets UDP_GRO, so the kernel
// hands a GSO burst (or a NIC-coalesced run) to us as one message: one
// buffer, one copy, one queue entry for up to 64 KiB of datagrams.
// receive() reads the message's UDP_GRO control value (the segment size)
// and splits the message back into its datagrams: all of that size but the
// last, which may be shorter, each with the message's source. So callers
// see the same datagrams in the same order as without GRO. A message the
// kernel flags MSG_TRUNC or MSG_CTRUNC (payload or control data cut, so the
// datagram boundaries are unknown) is dropped and counted, never parsed.
//
// The socket asks for a 4 MiB receive buffer (the kernel caps it at
// net.core.rmem_max) and publishes the size granted in the
// socket.rcvbuf_bytes gauge. It also sets SO_RXQ_OVFL: the kernel then
// stamps each message with its running count of datagrams it dropped on
// this socket (buffer full), and receive() adds the increase to
// recv_dropped. A drop shows with the next message that arrives after it.
//
// Without the mmsg syscalls or UDP_SEGMENT (configure probes
// NETCL_HAVE_MMSG, NETCL_HAVE_UDP_GSO), or when the kernel refuses
// UDP_GRO, there is no coalescing: the kernel splits every burst and each
// message is one datagram. Without the mmsg syscalls, the same calls fall
// back to one sendto/recvfrom per datagram, in queue order; that path reads
// no control data, so recv_dropped stays 0 there.
//
// Counters go into the owner's registry: send_syscalls, recv_syscalls (the
// final empty probe that observes EAGAIN included), packets_sent,
// bytes_sent, gso_batches (each also one send syscall), gro_batches and
// gro_segments (coalesced messages received and the datagrams they held),
// recv_truncated, recv_dropped, send_errors, and the egress pool's
// buffer_pool.* series.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <memory>
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
  /// Ceiling on messages per syscall and segments per GSO super-datagram
  /// (the syscall arrays are stack-allocated at this size).
  static constexpr std::size_t kMaxBatch = 32;

  /// One received datagram; `bytes` is valid until the next receive()
  /// that makes a syscall (see held()).
  struct Datagram {
    std::span<const std::uint8_t> bytes;
    sockaddr_in from{};
  };

  /// Binds to `port` on all addresses (0 = kernel-assigned) and counts into
  /// `metrics`, which must outlive the socket. `batch`, clamped to
  /// [1, kMaxBatch], caps messages per syscall and GSO segments.
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
  /// Whether the kernel accepted UDP_GRO, so receive() may split coalesced
  /// messages.
  [[nodiscard]] bool gro_enabled() const { return gro_enabled_; }
  /// Whether receive() counts the kernel's receive-buffer drops into
  /// recv_dropped (SO_RXQ_OVFL accepted, and the recvmmsg path built).
  [[nodiscard]] bool drops_counted() const { return drops_counted_; }

  /// An empty pooled buffer for one datagram to `to`. Fill it before the
  /// next queue() or flush().
  [[nodiscard]] std::vector<std::uint8_t>& queue(const sockaddr_in& to);
  /// Sends everything queued, in queue order per destination, and returns
  /// the number of datagrams the kernel took. On a send failure the rest
  /// of the queue is counted in send_errors and dropped.
  std::size_t flush();
  /// Up to `max_datagrams` received datagrams in arrival order; empty when
  /// nothing is waiting. Datagrams of the last syscall that did not fit
  /// under `max_datagrams` are held and handed out first, without a
  /// syscall, by the next call. Only when none are held does it make one
  /// syscall for up to batch() messages, and with GRO one message may hold
  /// many datagrams.
  [[nodiscard]] std::span<const Datagram> receive(std::size_t max_datagrams = SIZE_MAX);
  /// True when the last receive() left nothing behind: its syscall took
  /// fewer than batch() messages, so the socket was empty when it ran, and
  /// no datagrams are held. Counted in messages, so a full GRO message
  /// needs no empty follow-up probe.
  [[nodiscard]] bool drained() const { return drained_ && held() == 0; }
  /// Datagrams received but held back by a max_datagrams cap. They are not
  /// in the kernel's queue any more, so poll(2) does not report them.
  [[nodiscard]] std::size_t held() const { return rx_.size() - rx_next_; }

 private:
  struct Outgoing {
    sockaddr_in to{};
    std::vector<std::uint8_t> wire;  // borrowed from pool_ until the flush
  };
  /// A queued datagram's sort key in group_by_destination().
  struct Position {
    std::uint64_t key;  // its destination, then that destination's first index
    std::uint32_t index;  // in egress_
  };

  /// Reorders egress_ so each destination's datagrams are adjacent:
  /// destinations by first appearance, each one's datagrams in queue
  /// order. O(n log n) and allocation-free once the scratch vectors have
  /// grown to the largest queue.
  void group_by_destination();
  /// Length of the run at `offset` that can ride one GSO super-datagram:
  /// equal sizes, one destination, within the segment and byte caps.
  [[nodiscard]] std::size_t gso_run(std::size_t offset) const;
  /// Sends egress_[offset, offset + run) as one UDP_SEGMENT sendmsg; false
  /// when the kernel refused it.
  bool send_gso(std::size_t offset, std::size_t run);
  /// One sendmmsg from `offset`; the number taken, 0 after a failure.
  std::size_t send_mmsg(std::size_t offset);
  /// One receive syscall: refills rx_ with every datagram it brought.
  void receive_messages();
  /// Appends the datagrams of one received message to rx_: `gso_size`
  /// bytes each, the last possibly shorter. A `gso_size` of 0 or not below
  /// `length` makes the whole message one datagram (an empty one included).
  void split_message(const std::uint8_t* data, std::size_t length, std::size_t gso_size,
                     const sockaddr_in& from);

  obs::Counter& send_syscalls_;
  obs::Counter& recv_syscalls_;
  obs::Counter& packets_sent_;
  obs::Counter& bytes_sent_;
  obs::Counter& gso_batches_;
  obs::Counter& gro_batches_;
  obs::Counter& gro_segments_;
  obs::Counter& recv_truncated_;
  obs::Counter& recv_dropped_;
  obs::Counter& send_errors_;
  int fd_ = -1;
  std::string error_;
  std::uint16_t local_port_ = 0;
  std::size_t batch_;
  /// Cleared for good when the kernel reports it cannot segment.
  bool gso_enabled_;
  /// Set when the kernel accepted UDP_GRO at construction.
  bool gro_enabled_ = false;
  /// Set when the kernel accepted SO_RXQ_OVFL on the recvmmsg path.
  bool drops_counted_ = false;
  /// The kernel's running drop count carried by the last message that had
  /// one (it wraps at 2^32; the delta is taken modulo that).
  std::uint32_t kernel_drops_ = 0;
  BufferPool pool_;
  std::vector<Outgoing> egress_;
  /// group_by_destination()'s scratch: a sort key per queued datagram, and
  /// the regrouped queue that is swapped with egress_.
  std::vector<Position> positions_;
  std::vector<Outgoing> grouped_;
  /// batch_ receive slots of 64 KiB each, allocated on the first receive
  /// and left uninitialized (the kernel writes what is read).
  std::vector<std::unique_ptr<std::uint8_t[]>> rx_slots_;
  /// The datagrams of the last syscall; rx_[rx_next_, end) are held. It
  /// grows to the largest burst seen (batch_ messages of at most 64 KiB
  /// each) and is reused after that.
  std::vector<Datagram> rx_;
  std::size_t rx_next_ = 0;
  /// The last syscall took fewer than batch_ messages.
  bool drained_ = true;
};

}  // namespace netcl::net
