#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <poll.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

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
  queued_ += packets.size();
  if (dispatch_depth_ == 0) flush_queued();
}

void UdpTransport::flush_queued() {
  if (queued_ == 0) return;
  const std::size_t queued = std::exchange(queued_, 0);
  const std::size_t sent = socket_.flush();
  obs::flight(obs::FlightKind::kBatchSend, queued, sent);
}

void UdpTransport::schedule(double delay_ns, std::function<void()> callback) {
  timers_.push_back({now_ns() + std::max(delay_ns, 0.0), timer_sequence_++, std::move(callback)});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>());
}

double UdpTransport::now_ns() const {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void UdpTransport::fire_due_timers() {
  if (timers_.empty() || timers_.front().due_ns > now_ns()) return;
  const DispatchScope dispatch(*this);
  while (!timers_.empty() && timers_.front().due_ns <= now_ns()) {
    // Move out before the call: the callback may schedule new timers.
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>());
    std::function<void()> callback = std::move(timers_.back().callback);
    timers_.pop_back();
    ++timers_fired;
    callback();
  }
}

void UdpTransport::drain_socket() {
  for (;;) {
    const std::span<const DatagramSocket::Datagram> burst = socket_.receive();
    // A coalesced burst holds more datagrams than messages: grow the reused
    // batch slots to the largest burst seen, once.
    if (rx_batch_.size() < burst.size()) rx_batch_.resize(burst.size());
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
    if (good > 0) {
      const DispatchScope dispatch(*this);
      deliver({rx_batch_.data(), good});
    }
    // Fewer messages than a full batch means the queue is (almost
    // certainly) empty; anything racing in after the syscall is picked up
    // on the next poll turn.
    if (socket_.drained()) return;
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
    const double until_timer_ms = (timers_.front().due_ns - now_ns()) / 1e6;
    wait_ms = static_cast<int>(
        std::clamp(until_timer_ms + 1.0, 0.0, static_cast<double>(timeout_ms)));
  }
  // A callback that sent and then run_until() the answer is waiting on its
  // own queued packets: they must leave before this turn sleeps.
  flush_queued();
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
