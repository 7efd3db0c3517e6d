#include "net/datagram_socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>
#if NETCL_HAVE_UDP_GSO
#include <netinet/udp.h>
#endif

// Coalesced receive needs the per-message control data of recvmmsg and the
// UDP_GRO option, which Linux added one release after UDP_SEGMENT (4.19).
#if NETCL_HAVE_MMSG && NETCL_HAVE_UDP_GSO && defined(UDP_GRO)
#define NETCL_HAVE_UDP_GRO 1
#else
#define NETCL_HAVE_UDP_GRO 0
#endif

// The kernel's drop count rides the recvmmsg control data.
#if NETCL_HAVE_MMSG && defined(SO_RXQ_OVFL)
#define NETCL_HAVE_RXQ_OVFL 1
#else
#define NETCL_HAVE_RXQ_OVFL 0
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/flightrec.hpp"

namespace netcl::net {

namespace {

/// Largest datagram we accept: wire header + a full 64 KiB payload bound.
constexpr std::size_t kMaxDatagram = 65536;

/// Conservative cap on one GSO super-datagram (the kernel bounds the
/// gathered payload by the 65507-byte UDP maximum).
constexpr std::size_t kMaxGsoBytes = 65000;

/// Receive buffer requested at construction: room for a few thousand small
/// datagrams that arrive uncoalesced, where the kernel default
/// (rmem_default, 208 KiB on common kernels) holds about 250.
constexpr int kReceiveBufferBytes = 4 << 20;

}  // namespace

bool gso_unsupported(int error) {
  return error == EIO || error == EINVAL || error == EOPNOTSUPP || error == ENOPROTOOPT;
}

bool gso_compiled_in() {
#if NETCL_HAVE_UDP_GSO && NETCL_HAVE_MMSG
  return true;
#else
  return false;
#endif
}

DatagramSocket::DatagramSocket(obs::MetricsRegistry& metrics, std::uint16_t port,
                               std::size_t batch)
    : send_syscalls_(metrics.counter("send_syscalls")),
      recv_syscalls_(metrics.counter("recv_syscalls")),
      packets_sent_(metrics.counter("packets_sent")),
      bytes_sent_(metrics.counter("bytes_sent")),
      gso_batches_(metrics.counter("gso_batches")),
      gro_batches_(metrics.counter("gro_batches")),
      gro_segments_(metrics.counter("gro_segments")),
      recv_truncated_(metrics.counter("recv_truncated")),
      recv_dropped_(metrics.counter("recv_dropped")),
      send_errors_(metrics.counter("send_errors")),
      batch_(std::clamp<std::size_t>(batch, 1, kMaxBatch)),
      gso_enabled_(gso_compiled_in()) {
  pool_.bind_metrics(metrics);
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  sockaddr_in local{};
  local.sin_family = AF_INET;
  local.sin_addr.s_addr = htonl(INADDR_ANY);
  local.sin_port = htons(port);
  socklen_t len = sizeof(local);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&local), sizeof(local)) != 0 ||
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&local), &len) != 0) {
    error_ = std::string("bind: ") + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return;
  }
  local_port_ = ntohs(local.sin_port);
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  // Best effort: the kernel silently caps the request at rmem_max, so the
  // gauge reports what it granted (doubled for its bookkeeping overhead).
  const int requested = kReceiveBufferBytes;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &requested, sizeof(requested));
  int granted = 0;
  socklen_t granted_len = sizeof(granted);
  if (::getsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &granted, &granted_len) == 0) {
    metrics.gauge("socket.rcvbuf_bytes").set(static_cast<double>(granted));
  }
  [[maybe_unused]] const int on = 1;
#if NETCL_HAVE_RXQ_OVFL
  drops_counted_ = ::setsockopt(fd_, SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof(on)) == 0;
#endif
#if NETCL_HAVE_UDP_GRO
  // A kernel that refuses the option keeps splitting bursts on arrival;
  // receive() then sees one datagram per message, exactly as without it.
  gro_enabled_ = ::setsockopt(fd_, SOL_UDP, UDP_GRO, &on, sizeof(on)) == 0;
#endif
  rx_.reserve(batch_);
}

DatagramSocket::~DatagramSocket() {
  if (fd_ >= 0) ::close(fd_);
}

std::vector<std::uint8_t>& DatagramSocket::queue(const sockaddr_in& to) {
  egress_.push_back({to, pool_.acquire()});
  return egress_.back().wire;
}

std::size_t DatagramSocket::flush() {
  std::size_t sent = 0;
#if NETCL_HAVE_MMSG
#if NETCL_HAVE_UDP_GSO
  // Only GSO gains from adjacency; sendmmsg takes any mix of destinations.
  if (gso_enabled_) group_by_destination();
#endif
  while (sent < egress_.size()) {
#if NETCL_HAVE_UDP_GSO
    // A run that rides GSO goes out in one syscall. If the kernel refuses
    // it, the same still-unsent datagrams take the sendmmsg path below —
    // nothing is lost or duplicated.
    const std::size_t run = gso_enabled_ ? gso_run(sent) : 1;
    if (run >= 2 && send_gso(sent, run)) {
      sent += run;
      continue;
    }
#endif
    const std::size_t taken = send_mmsg(sent);
    if (taken == 0) break;
    sent += taken;
  }
#else
  for (const Outgoing& out : egress_) {
    const ssize_t n = ::sendto(fd_, out.wire.data(), out.wire.size(), 0,
                               reinterpret_cast<const sockaddr*>(&out.to), sizeof(out.to));
    ++send_syscalls_;
    if (n != static_cast<ssize_t>(out.wire.size())) {
      obs::flight(obs::FlightKind::kSendError, static_cast<std::uint64_t>(errno));
      ++send_errors_;
      continue;
    }
    ++packets_sent_;
    bytes_sent_.inc(out.wire.size());
    ++sent;
  }
#endif
  for (Outgoing& out : egress_) pool_.release(std::move(out.wire));
  egress_.clear();
  return sent;
}

#if NETCL_HAVE_MMSG && NETCL_HAVE_UDP_GSO
void DatagramSocket::group_by_destination() {
  // IPv4 address and port, both as they sit in the sockaddr_in.
  const auto destination = [](const sockaddr_in& to) {
    return (static_cast<std::uint64_t>(to.sin_addr.s_addr) << 16) | to.sin_port;
  };
  const std::size_t count = egress_.size();
  if (count < 2) return;
  const std::uint64_t head = destination(egress_[0].to);
  std::size_t same = 1;
  while (same < count && destination(egress_[same].to) == head) ++same;
  if (same == count) return;  // one destination: already grouped

  // Sort by (destination, position) so each destination's datagrams are
  // contiguous and in queue order; then re-key each one by its
  // destination's first position and sort again, which orders the
  // destinations by first appearance. std::sort works in place, unlike
  // std::stable_sort, whose temporary buffer would allocate per flush.
  const auto by_key = [](const Position& a, const Position& b) {
    return a.key != b.key ? a.key < b.key : a.index < b.index;
  };
  positions_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    positions_.push_back({destination(egress_[i].to), static_cast<std::uint32_t>(i)});
  }
  std::sort(positions_.begin(), positions_.end(), by_key);
  std::uint64_t previous = positions_[0].key;
  std::uint32_t first = positions_[0].index;
  for (Position& position : positions_) {
    if (position.key != previous) {
      previous = position.key;
      first = position.index;
    }
    position.key = first;
  }
  std::sort(positions_.begin(), positions_.end(), by_key);
  grouped_.clear();
  for (const Position& position : positions_) {
    grouped_.push_back(std::move(egress_[position.index]));
  }
  egress_.swap(grouped_);
}

std::size_t DatagramSocket::gso_run(std::size_t offset) const {
  const Outgoing& first = egress_[offset];
  const std::size_t size = first.wire.size();
  if (size == 0) return 1;
  std::size_t run = 1;
  while (offset + run < egress_.size() && run < batch_ && (run + 1) * size <= kMaxGsoBytes) {
    const Outgoing& next = egress_[offset + run];
    if (next.wire.size() != size) break;
    if (std::memcmp(&next.to, &first.to, sizeof(sockaddr_in)) != 0) break;  // destination
    ++run;
  }
  return run;
}

bool DatagramSocket::send_gso(std::size_t offset, std::size_t run) {
  // The run's buffers gather into one payload; the UDP_SEGMENT ancillary
  // value tells the kernel where to cut it back into `run` datagrams.
  iovec iovs[kMaxBatch];
  std::size_t total = 0;
  for (std::size_t i = 0; i < run; ++i) {
    std::vector<std::uint8_t>& wire = egress_[offset + i].wire;
    iovs[i] = {wire.data(), wire.size()};
    total += wire.size();
  }
  msghdr msg{};
  msg.msg_name = &egress_[offset].to;
  msg.msg_namelen = sizeof(sockaddr_in);
  msg.msg_iov = iovs;
  msg.msg_iovlen = run;
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(std::uint16_t))] = {};
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_UDP;
  cmsg->cmsg_type = UDP_SEGMENT;
  cmsg->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
  const auto segment = static_cast<std::uint16_t>(egress_[offset].wire.size());
  std::memcpy(CMSG_DATA(cmsg), &segment, sizeof(segment));

  const ssize_t sent = ::sendmsg(fd_, &msg, 0);
  ++send_syscalls_;
  if (sent < 0) {
    const int error = errno;
    obs::flight(obs::FlightKind::kSendError, static_cast<std::uint64_t>(error));
    if (gso_unsupported(error)) gso_enabled_ = false;
    return false;
  }
  ++gso_batches_;
  packets_sent_.inc(run);
  bytes_sent_.inc(total);
  obs::flight(obs::FlightKind::kGsoSend, run, total);
  return true;
}
#endif

#if NETCL_HAVE_MMSG
std::size_t DatagramSocket::send_mmsg(std::size_t offset) {
  const std::size_t remaining = egress_.size() - offset;
  const std::size_t chunk = std::min(batch_, remaining);
  mmsghdr msgs[kMaxBatch];
  iovec iovs[kMaxBatch];
  std::memset(msgs, 0, chunk * sizeof(mmsghdr));
  for (std::size_t i = 0; i < chunk; ++i) {
    Outgoing& out = egress_[offset + i];
    iovs[i] = {out.wire.data(), out.wire.size()};
    msgs[i].msg_hdr.msg_name = &out.to;
    msgs[i].msg_hdr.msg_namelen = sizeof(out.to);
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  const int sent = ::sendmmsg(fd_, msgs, static_cast<unsigned>(chunk), 0);
  ++send_syscalls_;
  if (sent <= 0) {
    obs::flight(obs::FlightKind::kSendError, static_cast<std::uint64_t>(errno), remaining);
    send_errors_.inc(remaining);
    return 0;
  }
  const auto taken = static_cast<std::size_t>(sent);
  obs::flight(obs::FlightKind::kSendmmsg, taken, chunk);
  packets_sent_.inc(taken);
  for (std::size_t i = 0; i < taken; ++i) bytes_sent_.inc(egress_[offset + i].wire.size());
  // Partial completion: the next call resumes at the first unsent datagram.
  if (taken < chunk) obs::flight(obs::FlightKind::kSendPartial, taken, remaining - taken);
  return taken;
}
#endif

std::span<const DatagramSocket::Datagram> DatagramSocket::receive(std::size_t max_datagrams) {
  if (held() == 0) receive_messages();
  const std::size_t take = std::min(max_datagrams, held());
  const std::span<const Datagram> out{rx_.data() + rx_next_, take};
  rx_next_ += take;
  return out;
}

void DatagramSocket::split_message(const std::uint8_t* data, std::size_t length,
                                   std::size_t gso_size, const sockaddr_in& from) {
  if (gso_size == 0 || gso_size >= length) {
    rx_.push_back({{data, length}, from});
    return;
  }
  std::size_t segments = 0;
  for (std::size_t offset = 0; offset < length; offset += gso_size, ++segments) {
    rx_.push_back({{data + offset, std::min(gso_size, length - offset)}, from});
  }
  ++gro_batches_;
  gro_segments_.inc(segments);
}

void DatagramSocket::receive_messages() {
  // 64 KiB per slot is too big for the stack at batch 32 (2 MiB), so the
  // slots live on the heap, allocated once and reused every burst. One
  // allocation per slot, not one 2 MiB block: the block raised perfbench's
  // calc_min peak RSS by ~1.4 MiB in most runs (glibc 2.36, 4 vCPUs). The
  // slots are not zero-filled: the kernel writes each message and only its
  // msg_len bytes are read, so untouched pages never become resident. A
  // slot holds any datagram and any coalesced message, both capped at the
  // 64 KiB IP length.
  if (rx_slots_.empty()) {
    rx_slots_.reserve(batch_);
    for (std::size_t i = 0; i < batch_; ++i) {
      rx_slots_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(kMaxDatagram));
    }
  }
  rx_.clear();
  rx_next_ = 0;
#if NETCL_HAVE_MMSG
  mmsghdr msgs[kMaxBatch];
  iovec iovs[kMaxBatch];
  sockaddr_in from[kMaxBatch];
  // Room for both control messages the kernel may attach to one message:
  // UDP_GRO with an int segment size, and SO_RXQ_OVFL with a u32 drop
  // count. Without room for both, the kernel would cut the second and flag
  // the message MSG_CTRUNC, and it would be dropped below.
  alignas(cmsghdr) char control[kMaxBatch][CMSG_SPACE(sizeof(int)) +
                                           CMSG_SPACE(sizeof(std::uint32_t))];
  const bool want_control = gro_enabled_ || drops_counted_;
  std::memset(msgs, 0, batch_ * sizeof(mmsghdr));
  for (std::size_t i = 0; i < batch_; ++i) {
    iovs[i] = {rx_slots_[i].get(), kMaxDatagram};
    msgs[i].msg_hdr.msg_name = &from[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    if (want_control) {
      msgs[i].msg_hdr.msg_control = control[i];
      msgs[i].msg_hdr.msg_controllen = sizeof(control[i]);
    }
  }
  const int count = ::recvmmsg(fd_, msgs, static_cast<unsigned>(batch_), 0, nullptr);
  ++recv_syscalls_;
  if (count <= 0) {  // EAGAIN/EWOULDBLOCK: drained
    drained_ = true;
    return;
  }
  const auto messages = static_cast<std::size_t>(count);
  drained_ = messages < batch_;
  for (std::size_t i = 0; i < messages; ++i) {
    msghdr& hdr = msgs[i].msg_hdr;
    std::size_t gso_size = 0;
    for (cmsghdr* cmsg = CMSG_FIRSTHDR(&hdr); cmsg != nullptr; cmsg = CMSG_NXTHDR(&hdr, cmsg)) {
#if NETCL_HAVE_UDP_GRO
      if (cmsg->cmsg_level == SOL_UDP && cmsg->cmsg_type == UDP_GRO) {
        int value = 0;
        std::memcpy(&value, CMSG_DATA(cmsg), sizeof(value));
        gso_size = value > 0 ? static_cast<std::size_t>(value) : 0;
      }
#endif
#if NETCL_HAVE_RXQ_OVFL
      if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SO_RXQ_OVFL) {
        // The kernel's running count; the kernel attaches it only once it
        // is non-zero, to messages queued after a drop.
        std::uint32_t drops = 0;
        std::memcpy(&drops, CMSG_DATA(cmsg), sizeof(drops));
        const std::uint32_t fresh = drops - kernel_drops_;
        kernel_drops_ = drops;
        if (fresh != 0) {
          recv_dropped_.inc(fresh);
          obs::flight(obs::FlightKind::kRecvDropped, fresh, drops);
        }
      }
#endif
    }
    if ((hdr.msg_flags & (MSG_TRUNC | MSG_CTRUNC)) != 0) {
      // Without its whole payload and its UDP_GRO value the message's
      // datagram boundaries are unknown: parsing a coalesced burst as one
      // datagram would lose all of it as a single malformed packet.
      ++recv_truncated_;
      obs::flight(obs::FlightKind::kRecvTruncated, msgs[i].msg_len,
                  static_cast<std::uint64_t>(hdr.msg_flags));
      continue;
    }
    split_message(rx_slots_[i].get(), msgs[i].msg_len, gso_size, from[i]);
  }
#else
  // A slot holds the largest UDP datagram, so recvfrom cannot truncate.
  std::size_t received = 0;
  for (; received < batch_; ++received) {
    std::uint8_t* slot = rx_slots_[received].get();
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    const ssize_t n = ::recvfrom(fd_, slot, kMaxDatagram, 0,
                                 reinterpret_cast<sockaddr*>(&from), &from_len);
    ++recv_syscalls_;
    if (n < 0) break;  // EAGAIN/EWOULDBLOCK: drained
    split_message(slot, static_cast<std::size_t>(n), 0, from);
  }
  drained_ = received < batch_;
#endif
}

}  // namespace netcl::net
