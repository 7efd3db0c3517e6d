#include "net/datagram_socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>
#if NETCL_HAVE_UDP_GSO
#include <netinet/udp.h>
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
      send_errors_(metrics.counter("send_errors")),
      batch_(std::clamp<std::size_t>(batch, 1, kMaxBatch)),
      gso_enabled_(gso_compiled_in()),
      rx_(batch_) {
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

std::span<const DatagramSocket::Datagram> DatagramSocket::receive() {
  // 64 KiB per slot is too big for the stack at batch 32 (2 MiB), so the
  // slots live on the heap, allocated once and reused every burst. One
  // allocation per slot, not one 2 MiB block: the block raised perfbench's
  // calc_min peak RSS by ~1.4 MiB in most runs (glibc 2.36, 4 vCPUs).
  if (rx_slots_.empty()) {
    rx_slots_.resize(batch_);
    for (std::vector<std::uint8_t>& slot : rx_slots_) slot.resize(kMaxDatagram);
  }
  std::size_t received = 0;
#if NETCL_HAVE_MMSG
  mmsghdr msgs[kMaxBatch];
  iovec iovs[kMaxBatch];
  std::memset(msgs, 0, batch_ * sizeof(mmsghdr));
  for (std::size_t i = 0; i < batch_; ++i) {
    iovs[i] = {rx_slots_[i].data(), kMaxDatagram};
    msgs[i].msg_hdr.msg_name = &rx_[i].from;
    msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  const int count = ::recvmmsg(fd_, msgs, static_cast<unsigned>(batch_), 0, nullptr);
  ++recv_syscalls_;
  if (count <= 0) return {};  // EAGAIN/EWOULDBLOCK: drained
  received = static_cast<std::size_t>(count);
  for (std::size_t i = 0; i < received; ++i) {
    rx_[i].bytes = {rx_slots_[i].data(), msgs[i].msg_len};
  }
#else
  for (; received < batch_; ++received) {
    std::uint8_t* slot = rx_slots_[received].data();
    socklen_t from_len = sizeof(sockaddr_in);
    const ssize_t n = ::recvfrom(fd_, slot, kMaxDatagram, 0,
                                 reinterpret_cast<sockaddr*>(&rx_[received].from), &from_len);
    ++recv_syscalls_;
    if (n < 0) break;  // EAGAIN/EWOULDBLOCK: drained
    rx_[received].bytes = {slot, static_cast<std::size_t>(n)};
  }
#endif
  return {rx_.data(), received};
}

}  // namespace netcl::net
