// A raw UDP sender that puts a run of datagrams on the wire as one UDP GSO
// super-datagram (UDP_SEGMENT), the way a batched peer does, independent
// of how the code under test was configured. Shared by the receive tests
// of test_batch and test_hostile.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace netcl::net::testutil {

class SegmentedSender {
 public:
  SegmentedSender() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in local = loopback(0);
    if (fd_ < 0 || ::bind(fd_, reinterpret_cast<sockaddr*>(&local), sizeof(local)) != 0) return;
    socklen_t len = sizeof(local);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&local), &len) == 0) {
      port_ = ntohs(local.sin_port);
    }
  }
  ~SegmentedSender() {
    if (fd_ >= 0) ::close(fd_);
  }
  SegmentedSender(const SegmentedSender&) = delete;
  SegmentedSender& operator=(const SegmentedSender&) = delete;

  [[nodiscard]] static sockaddr_in loopback(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return addr;
  }

  [[nodiscard]] int fd() const { return fd_; }
  /// The source port receivers must report (0 when setup failed).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Sends `datagrams` (all the size of the first, except a shorter last
  /// one) to `to` as one UDP_SEGMENT super-datagram. Where the headers or
  /// the kernel cannot, sends them one by one instead. True when they went
  /// out as one super-datagram; false also when a send failed.
  bool send(const sockaddr_in& to, std::span<const std::vector<std::uint8_t>> datagrams) {
    std::vector<std::uint8_t> joined;
    for (const std::vector<std::uint8_t>& datagram : datagrams) {
      joined.insert(joined.end(), datagram.begin(), datagram.end());
    }
#ifdef UDP_SEGMENT
    iovec iov{joined.data(), joined.size()};
    msghdr msg{};
    sockaddr_in dest = to;
    msg.msg_name = &dest;
    msg.msg_namelen = sizeof(dest);
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(std::uint16_t))] = {};
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
    cmsg->cmsg_level = SOL_UDP;
    cmsg->cmsg_type = UDP_SEGMENT;
    cmsg->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
    const auto segment = static_cast<std::uint16_t>(datagrams.front().size());
    std::memcpy(CMSG_DATA(cmsg), &segment, sizeof(segment));
    if (::sendmsg(fd_, &msg, 0) == static_cast<ssize_t>(joined.size())) return true;
#endif
    for (const std::vector<std::uint8_t>& datagram : datagrams) {
      ::sendto(fd_, datagram.data(), datagram.size(), 0, reinterpret_cast<const sockaddr*>(&to),
               sizeof(to));
    }
    return false;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace netcl::net::testutil
