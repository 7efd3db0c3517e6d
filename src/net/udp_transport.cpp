#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <poll.h>

#include <algorithm>
#include <cstring>

#include "net/wire.hpp"
#include "obs/flightrec.hpp"
#include "obs/profiler.hpp"

namespace netcl::net {

namespace {

bool make_addr(const std::string& host, std::uint16_t port, sockaddr_in& out) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

UdpTransport::UdpTransport(const Options& options)
    : metrics_(options.metrics_name),
      socket_(metrics_, options.bind_port, options.max_syscall_batch),
      error_(socket_.error()),
      rx_batch_(socket_.batch()),
      epoch_(std::chrono::steady_clock::now()) {
  if (options.peer_port != 0) set_peer(options.peer_host, options.peer_port);
}

void UdpTransport::set_peer(const std::string& host, std::uint16_t port) {
  has_peer_ = make_addr(host, port, peer_);
  if (!has_peer_) error_ = "invalid peer address '" + host + "'";
}

void UdpTransport::send_batch(std::span<sim::Packet> packets) {
  if (packets.empty()) return;
  if (!socket_.valid() || !has_peer_) {
    send_errors.inc(packets.size());
    return;
  }
  for (const sim::Packet& packet : packets) serialize_packet(packet, socket_.queue(peer_));
  const std::size_t sent = socket_.flush();
  obs::flight(obs::FlightKind::kBatchSend, packets.size(), sent);
}

void UdpTransport::schedule(double delay_ns, std::function<void()> callback) {
  timers_.push({now_ns() + std::max(delay_ns, 0.0), timer_sequence_++, std::move(callback)});
}

double UdpTransport::now_ns() const {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void UdpTransport::fire_due_timers() {
  while (!timers_.empty() && timers_.top().due_ns <= now_ns()) {
    // Copy out before pop: the callback may schedule new timers.
    auto callback = timers_.top().callback;
    timers_.pop();
    ++timers_fired;
    callback();
  }
}

void UdpTransport::drain_socket() {
  for (;;) {
    const std::span<const DatagramSocket::Datagram> burst = socket_.receive();
    std::size_t good = 0;
    for (const DatagramSocket::Datagram& datagram : burst) {
      bytes_received.inc(datagram.bytes.size());
      // Decode into the reused batch slots, compacting over malformed
      // datagrams so deliver() sees a dense, arrival-ordered span.
      if (!deserialize_packet(datagram.bytes, rx_batch_[good])) {
        ++deserialize_errors;
        continue;
      }
      ++packets_received;
      ++good;
    }
    if (!burst.empty()) obs::flight(obs::FlightKind::kBatchRecv, good, burst.size());
    if (good > 0) deliver({rx_batch_.data(), good});
    // A short burst means the queue is (almost certainly) empty; anything
    // racing in after the syscall is picked up on the next poll turn.
    if (burst.size() < socket_.batch()) return;
  }
}

void UdpTransport::poll_once(int timeout_ms) {
  if (!socket_.valid()) return;
  // Host-side event loops sample themselves when the profiler is on
  // (idempotent one-TLS-test registration).
  obs::profile_register_thread();
  fire_due_timers();
  int wait_ms = timeout_ms;
  if (!timers_.empty()) {
    // Clamp in double before the int cast: a far-future timer would make
    // the bare cast overflow (UB).
    const double until_timer_ms = (timers_.top().due_ns - now_ns()) / 1e6;
    wait_ms = static_cast<int>(
        std::clamp(until_timer_ms + 1.0, 0.0, static_cast<double>(timeout_ms)));
  }
  pollfd pfd{socket_.fd(), POLLIN, 0};
  if (::poll(&pfd, 1, wait_ms) > 0 && (pfd.revents & POLLIN) != 0) drain_socket();
  fire_due_timers();
}

bool UdpTransport::run_until(const std::function<bool()>& done, double timeout_ns) {
  const double deadline = now_ns() + timeout_ns;
  while (!done()) {
    const double remaining_ms = (deadline - now_ns()) / 1e6;
    if (remaining_ms <= 0) return done();
    poll_once(static_cast<int>(std::min(remaining_ms + 1.0, 50.0)));
  }
  return true;
}

void UdpTransport::run_for(double duration_ns) {
  const double deadline = now_ns() + duration_ns;
  run_until([&] { return now_ns() >= deadline; }, duration_ns);
}

}  // namespace netcl::net
