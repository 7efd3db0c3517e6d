// Batch-equivalence suite for Transport v2 and the shared DatagramSocket.
//
// The claim is that batching changes the cost, never the bytes: a
// send_batch must put the exact same datagrams on the wire, in the same
// order, as the equivalent sequence of single sends — through the buffer
// pool, the syscall chunking (including partial-completion resume), GSO
// runs on both the host and the daemon side, and both transport
// implementations.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/buffer_pool.hpp"
#include "net/datagram_socket.hpp"
#include "net/factory.hpp"
#include "net/sim_transport.hpp"
#include "net/swd_server.hpp"
#include "net/udp_transport.hpp"
#include "net/wire.hpp"
#include "runtime/host.hpp"
#include "segmented_sender.hpp"
#include "sim/fabric.hpp"

namespace netcl::net {
namespace {

using runtime::HostRuntime;
using runtime::Message;
using sim::ArgValues;

sim::Packet numbered_packet(std::uint8_t seq) {
  sim::Packet packet;
  packet.has_netcl = true;
  packet.netcl.src = 1;
  packet.netcl.dst = 2;
  packet.netcl.to = 3;
  packet.netcl.comp = 7;
  packet.payload = {seq, static_cast<std::uint8_t>(seq + 1),
                    static_cast<std::uint8_t>(seq * 3), 0xAB};
  packet.netcl.len = static_cast<std::uint16_t>(packet.payload.size());
  return packet;
}

// --- serialize-into-caller-storage overload -----------------------------------

TEST(BatchWire, SerializeIntoBufferMatchesReturningForm) {
  std::vector<std::uint8_t> buffer;
  for (std::uint8_t seq = 0; seq < 6; ++seq) {
    const sim::Packet packet = numbered_packet(seq);
    const std::vector<std::uint8_t> golden = serialize_packet(packet);
    // Leftover bytes from a previous (recycled) use must not leak through.
    buffer.assign(97, 0xEE);
    serialize_packet(packet, buffer);
    EXPECT_EQ(buffer, golden) << "seq " << int(seq);
  }
}

// --- BufferPool ---------------------------------------------------------------

TEST(BufferPool, RecyclesCapacityEmptyAndBounded) {
  BufferPool pool(2);
  std::vector<std::uint8_t> first = pool.acquire();
  EXPECT_EQ(pool.reuses(), 0u);  // nothing pooled yet: fresh allocation
  first.reserve(512);
  first.assign(64, 0xCD);
  pool.release(std::move(first));
  EXPECT_EQ(pool.pooled(), 1u);

  // The recycled buffer comes back empty but keeps its capacity.
  std::vector<std::uint8_t> again = pool.acquire();
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 512u);

  // The free list is bounded: a third release is dropped, not hoarded.
  pool.release(std::vector<std::uint8_t>(8, 1));
  pool.release(std::vector<std::uint8_t>(8, 2));
  pool.release(std::vector<std::uint8_t>(8, 3));
  EXPECT_EQ(pool.pooled(), 2u);
}

// --- UDP wire traffic ---------------------------------------------------------

/// Plain blocking UDP socket that records raw datagrams, so the tests see
/// exactly what the transport put on the wire.
class RawSink {
 public:
  RawSink() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    timeval timeout{2, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~RawSink() { ::close(fd_); }

  [[nodiscard]] std::uint16_t port() const { return port_; }

  std::vector<std::vector<std::uint8_t>> read(std::size_t count) {
    std::vector<std::vector<std::uint8_t>> datagrams;
    std::vector<std::uint8_t> buffer(65536);
    while (datagrams.size() < count) {
      const ssize_t n = ::recv(fd_, buffer.data(), buffer.size(), 0);
      if (n <= 0) break;  // timeout: return what arrived, the test will fail
      datagrams.emplace_back(buffer.begin(), buffer.begin() + n);
    }
    return datagrams;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

TEST(BatchUdp, BatchedWireBytesMatchPerPacketSends) {
  constexpr std::size_t kCount = 10;
  std::vector<std::vector<std::uint8_t>> golden;
  for (std::uint8_t seq = 0; seq < kCount; ++seq) {
    golden.push_back(serialize_packet(numbered_packet(seq)));
  }

  RawSink sink;
  UdpTransport::Options options;
  options.peer_host = "127.0.0.1";
  options.peer_port = sink.port();

  {  // v1 shape: one send() per packet.
    UdpTransport tx(options);
    ASSERT_TRUE(tx.valid()) << tx.error();
    for (std::uint8_t seq = 0; seq < kCount; ++seq) tx.send(numbered_packet(seq));
    EXPECT_EQ(tx.packets_sent.value(), kCount);
    const auto datagrams = sink.read(kCount);
    ASSERT_EQ(datagrams.size(), kCount);
    EXPECT_EQ(datagrams, golden);
  }
  {  // v2: the whole batch in one call — identical bytes, identical order.
    UdpTransport tx(options);
    ASSERT_TRUE(tx.valid()) << tx.error();
    std::vector<sim::Packet> batch;
    for (std::uint8_t seq = 0; seq < kCount; ++seq) batch.push_back(numbered_packet(seq));
    tx.send_batch(batch);
    EXPECT_EQ(tx.packets_sent.value(), kCount);
    // Batching collapses syscalls (1 with sendmmsg, kCount on the
    // fallback path) but never exceeds one per packet.
    EXPECT_GE(tx.send_syscalls.value(), 1u);
    EXPECT_LE(tx.send_syscalls.value(), kCount);
    const auto datagrams = sink.read(kCount);
    ASSERT_EQ(datagrams.size(), kCount);
    EXPECT_EQ(datagrams, golden);
  }
}

TEST(BatchUdp, PartialSyscallBatchesResumeInOrder) {
  // max_syscall_batch = 3 forces a 10-packet batch through the chunking /
  // offset-resume arithmetic: 3 + 3 + 3 + 1.
  RawSink sink;
  UdpTransport::Options options;
  options.peer_host = "127.0.0.1";
  options.peer_port = sink.port();
  options.max_syscall_batch = 3;
  UdpTransport tx(options);
  ASSERT_TRUE(tx.valid()) << tx.error();

  constexpr std::size_t kCount = 10;
  std::vector<sim::Packet> batch;
  for (std::uint8_t seq = 0; seq < kCount; ++seq) batch.push_back(numbered_packet(seq));
  tx.send_batch(batch);
  EXPECT_EQ(tx.packets_sent.value(), kCount);
  EXPECT_GE(tx.send_syscalls.value(), 4u);  // ceil(10/3) chunks (10 on fallback)

  const auto datagrams = sink.read(kCount);
  ASSERT_EQ(datagrams.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(datagrams[i], serialize_packet(numbered_packet(static_cast<std::uint8_t>(i))))
        << "datagram " << i;
  }
}

TEST(BatchUdp, ReceiverGetsWholeBurstsInArrivalOrder) {
  UdpTransport rx;
  ASSERT_TRUE(rx.valid()) << rx.error();
  UdpTransport::Options options;
  options.peer_host = "127.0.0.1";
  options.peer_port = rx.local_port();
  UdpTransport tx(options);
  ASSERT_TRUE(tx.valid()) << tx.error();

  std::vector<std::uint8_t> seen;
  std::size_t deliveries = 0;
  rx.set_batch_receiver([&](std::span<const sim::Packet> burst) {
    ++deliveries;
    for (const sim::Packet& packet : burst) seen.push_back(packet.payload.at(0));
  });

  constexpr std::size_t kCount = 24;
  std::vector<sim::Packet> batch;
  for (std::uint8_t seq = 0; seq < kCount; ++seq) batch.push_back(numbered_packet(seq));
  tx.send_batch(batch);
  ASSERT_TRUE(rx.run_until([&] { return seen.size() >= kCount; }, 2e9));

  ASSERT_EQ(seen.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(seen[i], i) << "position " << i;
  // The drain hands bursts, not single packets, to the batch receiver.
  EXPECT_LE(deliveries, kCount);
  EXPECT_EQ(rx.packets_received.value(), kCount);
}

// --- deferred flush inside a dispatch -----------------------------------------

TEST(DeferredFlush, RepliesToABurstLeaveInOneFlush) {
  // A worker answers every packet of a received burst from inside its
  // batch receiver. The answers are only queued there, and leave in one
  // flush when the burst's delivery returns: in send order, byte for byte
  // what per-packet sends put on the wire.
  constexpr std::uint8_t kCount = 16;
  RawSink sink;
  UdpTransport::Options worker_options;
  worker_options.peer_port = sink.port();
  UdpTransport worker(worker_options);
  ASSERT_TRUE(worker.valid()) << worker.error();
  UdpTransport::Options peer_options;
  peer_options.peer_port = worker.local_port();
  UdpTransport peer(peer_options);
  ASSERT_TRUE(peer.valid()) << peer.error();

  std::size_t bursts = 0;
  std::size_t answered = 0;
  bool sent_inside_burst = false;
  worker.set_batch_receiver([&](std::span<const sim::Packet> burst) {
    ++bursts;
    const std::uint64_t syscalls = worker.send_syscalls.value();
    for (const sim::Packet& packet : burst) {
      worker.send(numbered_packet(static_cast<std::uint8_t>(packet.payload.at(0) + 100)));
      ++answered;
    }
    sent_inside_burst |= worker.send_syscalls.value() != syscalls;
  });

  std::vector<sim::Packet> burst;
  std::vector<std::vector<std::uint8_t>> golden;
  for (std::uint8_t seq = 0; seq < kCount; ++seq) {
    burst.push_back(numbered_packet(seq));
    golden.push_back(serialize_packet(numbered_packet(static_cast<std::uint8_t>(seq + 100))));
  }
  peer.send_batch(burst);
  // Loopback queues the whole burst on the worker's socket within the send
  // syscall; the worker drains it in one receive burst.
  ASSERT_TRUE(worker.run_until([&] { return answered >= kCount; }, 2e9));

  EXPECT_FALSE(sent_inside_burst);
  EXPECT_EQ(bursts, 1u);
  EXPECT_EQ(worker.packets_sent.value(), kCount);
  if (gso_compiled_in()) {
    EXPECT_EQ(worker.send_syscalls.value(), 1u);
    EXPECT_EQ(worker.gso_batches.value(), 1u);
  } else {
    EXPECT_EQ(worker.send_syscalls.value(), kCount);  // one sendto each
  }
  EXPECT_EQ(sink.read(kCount), golden);
}

TEST(DeferredFlush, TimerSendsLeaveAfterTheSweep) {
  RawSink sink;
  UdpTransport::Options options;
  options.peer_port = sink.port();
  UdpTransport tx(options);
  ASSERT_TRUE(tx.valid()) << tx.error();

  std::uint64_t syscalls_in_sweep = 0;
  tx.schedule(0.0, [&] { tx.send(numbered_packet(0)); });
  tx.schedule(0.0, [&] {
    tx.send(numbered_packet(1));
    syscalls_in_sweep = tx.send_syscalls.value();
  });
  tx.poll_once(0);

  EXPECT_EQ(tx.timers_fired.value(), 2u);
  EXPECT_EQ(syscalls_in_sweep, 0u);
  EXPECT_EQ(tx.packets_sent.value(), 2u);
  if (gso_compiled_in()) {
    EXPECT_EQ(tx.send_syscalls.value(), 1u);
  }
  EXPECT_EQ(sink.read(2), (std::vector<std::vector<std::uint8_t>>{
                              serialize_packet(numbered_packet(0)),
                              serialize_packet(numbered_packet(1))}));
}

TEST(DeferredFlush, SendOutsideADispatchLeavesAtOnce) {
  RawSink sink;
  UdpTransport::Options options;
  options.peer_port = sink.port();
  UdpTransport tx(options);
  ASSERT_TRUE(tx.valid()) << tx.error();

  tx.send(numbered_packet(0));
  EXPECT_EQ(tx.send_syscalls.value(), 1u);
  EXPECT_EQ(tx.packets_sent.value(), 1u);
  std::vector<sim::Packet> batch = {numbered_packet(1), numbered_packet(2)};
  tx.send_batch(batch);
  EXPECT_GE(tx.send_syscalls.value(), 2u);
  EXPECT_EQ(tx.packets_sent.value(), 3u);
  EXPECT_EQ(sink.read(3).size(), 3u);
}

TEST(DeferredFlush, CallbackThatWaitsForItsEchoCompletes) {
  // Inside a receive callback, `a` sends a ping and waits for the echo
  // with run_until. The ping is queued, not sent; poll_once must flush it
  // before it waits, or the echo never comes.
  UdpTransport a;
  UdpTransport b;
  ASSERT_TRUE(a.valid()) << a.error();
  ASSERT_TRUE(b.valid()) << b.error();
  a.set_peer("127.0.0.1", b.local_port());
  b.set_peer("127.0.0.1", a.local_port());
  b.set_receiver([&](const sim::Packet& packet) { b.send(packet); });

  constexpr std::uint8_t kTrigger = 1;
  constexpr std::uint8_t kPing = 2;
  bool echoed = false;
  std::optional<bool> waited;
  a.set_receiver([&](const sim::Packet& packet) {
    if (packet.payload.at(0) == kPing) {
      echoed = true;  // delivered by the nested run_until below
      return;
    }
    a.send(numbered_packet(kPing));
    waited = a.run_until(
        [&] {
          b.poll_once(0);
          return echoed;
        },
        2e9);
  });

  b.send(numbered_packet(kTrigger));
  ASSERT_TRUE(a.run_until([&] { return waited.has_value(); }, 5e9));
  EXPECT_TRUE(*waited);
  EXPECT_TRUE(echoed);
}

// --- GSO errno classification -------------------------------------------------

TEST(DatagramSocket, OnlyKernelRefusalsTurnGsoOff) {
  struct Case {
    int error;
    bool turns_gso_off;
  };
  const Case cases[] = {
      // The kernel cannot segment on this socket: GSO stays off.
      {EIO, true},
      {EINVAL, true},
      {EOPNOTSUPP, true},
      {ENOPROTOOPT, true},
      // Transient on a non-blocking socket: retry the run via sendmmsg.
      {EAGAIN, false},
      {EWOULDBLOCK, false},
      {ENOBUFS, false},
      {ENOMEM, false},
      {EINTR, false},
      {ECONNREFUSED, false},
      {EMSGSIZE, false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(gso_unsupported(c.error), c.turns_gso_off) << std::strerror(c.error);
  }
}

// --- coalesced receive (UDP GRO) ----------------------------------------------

using Bytes = std::vector<std::uint8_t>;

/// `count` datagrams of `size` bytes, then a `tail`-byte one when tail > 0;
/// every byte names its datagram, so a wrong cut or order shows.
std::vector<Bytes> numbered_run(std::size_t count, std::size_t size, std::size_t tail) {
  std::vector<Bytes> run;
  for (std::size_t i = 0; i < count; ++i) {
    Bytes datagram(size);
    for (std::size_t j = 0; j < size; ++j) datagram[j] = static_cast<std::uint8_t>(i * 7 + j);
    run.push_back(std::move(datagram));
  }
  if (tail > 0) run.push_back(Bytes(tail, 0xEE));
  return run;
}

bool wait_readable(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, 2000) > 0;
}

TEST(GroReceive, SegmentedBurstsArriveAsTheOriginalDatagrams) {
  obs::MetricsRegistry metrics("gro_receive_test");
  DatagramSocket socket(metrics, 0);
  ASSERT_TRUE(socket.valid()) << socket.error();
  testutil::SegmentedSender sender;
  ASSERT_NE(sender.port(), 0);
  const sockaddr_in to = testutil::SegmentedSender::loopback(socket.local_port());

  struct Case {
    std::size_t count;
    std::size_t size;
    std::size_t tail;
  };
  // A full burst of equal datagrams, and a short one with a shorter tail.
  for (const Case& c : {Case{32, 40, 0}, Case{7, 90, 33}}) {
    SCOPED_TRACE(std::to_string(c.count) + " x " + std::to_string(c.size) + " + " +
                 std::to_string(c.tail));
    const std::vector<Bytes> sent = numbered_run(c.count, c.size, c.tail);
    const bool segmented = sender.send(to, sent);
    const std::uint64_t syscalls_before = metrics.counter("recv_syscalls").value();
    const std::uint64_t gro_before = metrics.counter("gro_batches").value();

    std::vector<Bytes> received;
    std::size_t receives = 0;
    while (received.size() < sent.size() && wait_readable(socket.fd())) {
      ++receives;
      for (const DatagramSocket::Datagram& datagram : socket.receive()) {
        received.emplace_back(datagram.bytes.begin(), datagram.bytes.end());
        EXPECT_EQ(datagram.from.sin_addr.s_addr, htonl(INADDR_LOOPBACK));
        EXPECT_EQ(ntohs(datagram.from.sin_port), sender.port());
      }
    }
    EXPECT_EQ(received, sent);
    if (segmented && socket.gro_enabled()) {
      // One coalesced message, split back; fewer messages than a full
      // batch, so no empty probe follows.
      EXPECT_EQ(receives, 1u);
      EXPECT_TRUE(socket.drained());
      EXPECT_EQ(metrics.counter("recv_syscalls").value() - syscalls_before, 1u);
      EXPECT_EQ(metrics.counter("gro_batches").value() - gro_before, 1u);
    }
  }
  EXPECT_EQ(metrics.counter("recv_truncated").value(), 0u);
  if (socket.gro_enabled()) {
    EXPECT_EQ(metrics.counter("gro_segments").value(), 32u + 8u);
  }
}

TEST(GroReceive, CappedReceiveHoldsTheRestWithoutASyscall) {
  obs::MetricsRegistry metrics("gro_receive_test");
  DatagramSocket socket(metrics, 0);
  ASSERT_TRUE(socket.valid()) << socket.error();
  testutil::SegmentedSender sender;
  const std::vector<Bytes> sent = numbered_run(32, 24, 0);
  const bool segmented =
      sender.send(testutil::SegmentedSender::loopback(socket.local_port()), sent);
  ASSERT_TRUE(wait_readable(socket.fd()));

  std::vector<Bytes> received;
  auto take = [&](std::span<const DatagramSocket::Datagram> burst) {
    for (const DatagramSocket::Datagram& datagram : burst) {
      received.emplace_back(datagram.bytes.begin(), datagram.bytes.end());
    }
    return burst.size();
  };
  EXPECT_EQ(take(socket.receive(5)), 5u);
  const std::size_t held = socket.held();
  if (segmented && socket.gro_enabled()) {
    EXPECT_EQ(held, sent.size() - 5);
  }
  ASSERT_GT(held, 0u);
  EXPECT_FALSE(socket.drained());
  // The held datagrams come first, without another syscall.
  const std::uint64_t syscalls = metrics.counter("recv_syscalls").value();
  EXPECT_EQ(take(socket.receive()), held);
  EXPECT_EQ(metrics.counter("recv_syscalls").value(), syscalls);
  EXPECT_EQ(socket.held(), 0u);
  while (received.size() < sent.size() && wait_readable(socket.fd())) take(socket.receive());
  EXPECT_EQ(received, sent);
}

// --- egress grouped by destination --------------------------------------------

/// Receives until `count` datagrams arrived or the socket stays quiet.
std::vector<Bytes> receive_all(DatagramSocket& socket, std::size_t count) {
  std::vector<Bytes> received;
  while (received.size() < count && wait_readable(socket.fd())) {
    for (const DatagramSocket::Datagram& datagram : socket.receive()) {
      received.emplace_back(datagram.bytes.begin(), datagram.bytes.end());
    }
  }
  return received;
}

TEST(DatagramSocket, FlushGroupsInterleavedDestinationsIntoGsoRuns) {
  obs::MetricsRegistry rx_metrics("egress_group_rx");
  DatagramSocket rx_a(rx_metrics, 0);
  DatagramSocket rx_b(rx_metrics, 0);
  ASSERT_TRUE(rx_a.valid() && rx_b.valid());
  const sockaddr_in to_a = testutil::SegmentedSender::loopback(rx_a.local_port());
  const sockaddr_in to_b = testutil::SegmentedSender::loopback(rx_b.local_port());

  struct Case {
    const char* name;
    std::size_t odd_position;  // A's datagram that is 5 bytes longer (none if past the end)
  };
  constexpr std::size_t kPerDestination = 8;
  for (const Case& c : {Case{"equal sizes", kPerDestination}, Case{"odd size inside A", 3}}) {
    SCOPED_TRACE(c.name);
    obs::MetricsRegistry metrics("egress_group_tx");
    DatagramSocket tx(metrics, 0);
    ASSERT_TRUE(tx.valid()) << tx.error();
    // A, B, A, B, ...: no two neighbours share a destination.
    const std::vector<Bytes> to_a_bytes = numbered_run(kPerDestination, 40, 0);
    std::vector<Bytes> to_b_bytes = numbered_run(kPerDestination, 40, 0);
    std::vector<Bytes> sent_a;
    for (std::size_t i = 0; i < kPerDestination; ++i) {
      Bytes datagram_a = to_a_bytes[i];
      if (i == c.odd_position) datagram_a.resize(datagram_a.size() + 5, 0x55);
      for (std::uint8_t& byte : to_b_bytes[i]) byte ^= 0xFF;  // B's bytes differ from A's
      tx.queue(to_a) = datagram_a;
      tx.queue(to_b) = to_b_bytes[i];
      sent_a.push_back(std::move(datagram_a));
    }
    EXPECT_EQ(tx.flush(), 2 * kPerDestination);
    // Each receiver gets its own datagrams in queue order.
    EXPECT_EQ(receive_all(rx_a, sent_a.size()), sent_a);
    EXPECT_EQ(receive_all(rx_b, to_b_bytes.size()), to_b_bytes);
    EXPECT_EQ(metrics.counter("send_errors").value(), 0u);
    if (gso_compiled_in() && c.odd_position >= kPerDestination) {
      // One super-datagram, and so one syscall, per destination.
      EXPECT_EQ(metrics.counter("gso_batches").value(), 2u);
      EXPECT_EQ(metrics.counter("send_syscalls").value(), 2u);
    }
  }
}

TEST(DatagramSocket, KernelReceiveDropsAreCounted) {
  obs::MetricsRegistry metrics("recv_dropped_test");
  DatagramSocket socket(metrics, 0);
  ASSERT_TRUE(socket.valid()) << socket.error();
  EXPECT_GT(metrics.gauge("socket.rcvbuf_bytes").value(), 0.0);
  // Shrink the buffer (the kernel's floor is a few KiB) so a small flood
  // overflows it.
  const int tiny = 1;
  ASSERT_EQ(::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)), 0);
  testutil::SegmentedSender sender;
  const sockaddr_in to = testutil::SegmentedSender::loopback(socket.local_port());
  const Bytes datagram(64, 0x42);
  auto send_one = [&] {
    ::sendto(sender.fd(), datagram.data(), datagram.size(), 0,
             reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  };
  constexpr std::size_t kFlood = 200;
  for (std::size_t i = 0; i < kFlood; ++i) send_one();
  std::size_t received = 0;
  while (wait_readable(socket.fd())) {
    received += socket.receive().size();
    if (socket.drained()) break;
  }
  // The kernel reports a drop on the next datagram it queues after it, so
  // one more datagram carries the flood's count.
  send_one();
  ASSERT_TRUE(wait_readable(socket.fd()));
  received += socket.receive().size();
  const std::size_t sent = kFlood + 1;
  ASSERT_LT(received, sent) << "the flood did not overflow the receive buffer";
  // Only the portable recvfrom path leaves the drops uncounted.
  if (gso_compiled_in()) {
    EXPECT_TRUE(socket.drops_counted());
  }
  if (socket.drops_counted()) {
    EXPECT_EQ(metrics.counter("recv_dropped").value(), sent - received);
  }
}

// --- SimTransport / HostRuntime batch equivalence -----------------------------

driver::CompileResult compile_calc() {
  apps::AppSource app = apps::calc_source();
  driver::CompileOptions options;
  options.device_id = 1;
  options.defines = app.defines;
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  return compiled;
}

std::vector<std::vector<std::uint8_t>> run_calc_ops(bool batched) {
  driver::CompileResult compiled = compile_calc();
  const KernelSpec spec = compiled.specs.at(1);
  sim::Fabric fabric(11);
  fabric.add_device(driver::make_device(std::move(compiled), 1));
  HostRuntime host(fabric, 1);
  host.register_spec(1, spec);
  fabric.connect(sim::host_ref(1), sim::device_ref(1));

  std::vector<std::vector<std::uint8_t>> results;
  host.on_receive([&](const Message&, ArgValues& args) {
    results.push_back(sim::encode_args(spec, args));
  });

  constexpr std::uint64_t kOps = 12;
  std::vector<HostRuntime::Outbound> outbound;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ArgValues args = sim::make_args(spec);
    args[0][0] = 1 + i % 5;  // cycle through the five calc opcodes
    args[1][0] = 1000 + i;
    args[2][0] = 77 * i;
    outbound.push_back({Message(1, 0, 1, 1), std::move(args)});
  }
  if (batched) {
    host.send_batch(outbound);
  } else {
    for (HostRuntime::Outbound& op : outbound) host.send(op.message, op.args);
  }
  fabric.run();
  EXPECT_EQ(results.size(), kOps);
  return results;
}

TEST(BatchSim, SendBatchResultsAreByteIdenticalToPerPacketSends) {
  EXPECT_EQ(run_calc_ops(true), run_calc_ops(false));
}

// --- daemon egress through the shared socket ----------------------------------

TEST(BatchSwd, DaemonAnswersRideGsoInPerHostOrder) {
  // Host 1 sends 32 equal-size CALC requests in bursts of 8, host 2 sends
  // two between each burst, all before the daemon polls. The daemon's
  // egress then holds same-destination runs (GSO) broken by destination
  // changes, and each host must still get every answer in send order.
  driver::CompileResult compiled = compile_calc();
  const KernelSpec spec = compiled.specs.at(1);
  SwdServer server(driver::make_device(std::move(compiled), 1), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();

  UdpTransport::Options options;
  options.peer_port = server.udp_port();
  UdpTransport transport1(options);
  UdpTransport transport2(options);
  ASSERT_TRUE(transport1.valid()) << transport1.error();
  ASSERT_TRUE(transport2.valid()) << transport2.error();
  HostRuntime host1(transport1, 1);
  HostRuntime host2(transport2, 2);
  std::vector<std::uint64_t> answers1;
  std::vector<std::uint64_t> answers2;
  for (auto [host, answers] : {std::pair{&host1, &answers1}, std::pair{&host2, &answers2}}) {
    host->register_spec(1, spec);
    host->on_receive([answers](const Message&, ArgValues& args) {
      answers->push_back(args[3][0]);
    });
  }

  // The answer is a + b: the host id in the thousands, the send order below.
  auto request = [&](std::uint16_t host, std::uint64_t seq) {
    ArgValues args = sim::make_args(spec);
    args[0][0] = apps::kCalcAdd;
    args[1][0] = seq;
    args[2][0] = 1000u * host;
    return HostRuntime::Outbound{Message(host, 0, 1, 1), std::move(args)};
  };
  constexpr std::uint64_t kBursts = 4;
  constexpr std::uint64_t kBurst = 8;
  constexpr std::uint64_t kInterleaved = 2;
  std::vector<std::uint64_t> expected1;
  std::vector<std::uint64_t> expected2;
  for (std::uint64_t burst = 0; burst < kBursts; ++burst) {
    std::vector<HostRuntime::Outbound> outbound;
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      const std::uint64_t seq = burst * kBurst + i;
      outbound.push_back(request(1, seq));
      expected1.push_back(1000 + seq);
    }
    host1.send_batch(outbound);
    for (std::uint64_t i = 0; i < kInterleaved; ++i) {
      const std::uint64_t seq = burst * kInterleaved + i;
      HostRuntime::Outbound op = request(2, seq);
      host2.send(op.message, op.args);
      expected2.push_back(2000 + seq);
    }
  }
  const std::uint64_t total = expected1.size() + expected2.size();
  for (int i = 0; i < 500 && server.packets_sent.value() < total; ++i) server.poll_once(10);
  transport1.run_until([&] { return answers1.size() >= expected1.size(); }, 2e9);
  transport2.run_until([&] { return answers2.size() >= expected2.size(); }, 2e9);

  EXPECT_EQ(answers1, expected1);
  EXPECT_EQ(answers2, expected2);
  EXPECT_EQ(server.packets_sent.value(), total);
  // The portable build (no GSO) still answers everything, in order.
  if (gso_compiled_in()) {
    EXPECT_GE(server.metrics().counter("gso_batches").value(), 1u);
  }
  EXPECT_EQ(server.metrics().counter("send_errors").value(), 0u);
}

// --- URI factory --------------------------------------------------------------

TEST(TransportFactory, BuildsSimAndUdpFromUris) {
  sim::Fabric fabric;
  TransportContext context;
  context.fabric = &fabric;
  context.host_id = 4;
  std::string error;
  const std::unique_ptr<Transport> sim_transport =
      make_transport("sim://fabric", context, &error);
  ASSERT_NE(sim_transport, nullptr) << error;
  EXPECT_STREQ(sim_transport->kind(), "sim");

  const std::unique_ptr<Transport> udp_transport =
      make_transport("udp://127.0.0.1:9", {}, &error);
  ASSERT_NE(udp_transport, nullptr) << error;
  EXPECT_STREQ(udp_transport->kind(), "udp");
}

TEST(TransportFactory, RejectsMalformedUris) {
  std::string error;
  EXPECT_EQ(make_transport("tcp://127.0.0.1:9", {}, &error), nullptr);
  EXPECT_NE(error.find("sim://"), std::string::npos) << error;  // names the schemes
  EXPECT_EQ(make_transport("udp://127.0.0.1", {}, &error), nullptr);       // no port
  EXPECT_EQ(make_transport("udp://127.0.0.1:0", {}, &error), nullptr);     // port 0
  EXPECT_EQ(make_transport("udp://127.0.0.1:zap", {}, &error), nullptr);   // not a number
  EXPECT_EQ(make_transport("sim://fabric", {}, &error), nullptr);          // no fabric
  EXPECT_EQ(make_transport("", {}, &error), nullptr);
}

}  // namespace
}  // namespace netcl::net
