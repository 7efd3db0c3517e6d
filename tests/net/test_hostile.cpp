// Hostile-wire hardening and overload control (ISSUE 8).
//
// Unit coverage for the perimeter primitives (token bucket, bounded
// per-source counts, control frame classifier, wire-version gate), then
// end-to-end checks against a real daemon: a flooding tenant sheds its
// own packets while a co-resident keeps its full service, the bounded
// ingress queue drops oldest instead of growing, malformed datagrams are
// counted and attributed per source, garbage on the control port gets a
// typed error and a close, and a slow-read (slowloris) connection is
// reaped on the read deadline.
//
// The data-plane tests drive SwdServer::poll_once from the test thread —
// no serving thread, no sleeps — so admission arithmetic is asserted
// exactly, not statistically.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/control.hpp"
#include "net/policer.hpp"
#include "net/swd_server.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "runtime/error.hpp"
#include "segmented_sender.hpp"
#include "sim/switch.hpp"

namespace netcl::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

// --- perimeter primitives -----------------------------------------------------

TEST(TokenBucket, StartsFullAndRefillsAtRate) {
  TokenBucket bucket(10.0, 2.0);  // 10 pps, burst 2
  EXPECT_FALSE(bucket.unlimited());
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_FALSE(bucket.try_take(0.0));    // burst exhausted
  EXPECT_FALSE(bucket.try_take(0.05));   // only half a token accrued
  EXPECT_TRUE(bucket.try_take(0.2));     // 1.5 more tokens accrued
  EXPECT_TRUE(bucket.try_take(0.2));
  EXPECT_FALSE(bucket.try_take(0.2));
  // Time moving backwards must not mint tokens.
  EXPECT_FALSE(bucket.try_take(0.1));
}

TEST(TokenBucket, BurstCapsAccrual) {
  TokenBucket bucket(1000.0, 3.0);
  // An hour idle still holds only `burst` tokens.
  EXPECT_TRUE(bucket.try_take(3600.0));
  EXPECT_TRUE(bucket.try_take(3600.0));
  EXPECT_TRUE(bucket.try_take(3600.0));
  EXPECT_FALSE(bucket.try_take(3600.0));
}

TEST(TokenBucket, DefaultIsUnlimited) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.try_take(0.0));
}

TEST(BoundedCounts, CapsDistinctKeysAndRanksHeaviestFirst) {
  BoundedCounts counts(2);
  counts.add("10.0.0.1:9");
  counts.add("10.0.0.2:9", 5);
  counts.add("10.0.0.1:9", 2);
  // Third distinct key: at capacity, lumped into overflow — a spoofed
  // source sweep cannot grow the map.
  counts.add("10.0.0.3:9", 7);
  EXPECT_EQ(counts.tracked(), 2u);
  EXPECT_EQ(counts.overflow(), 7u);
  EXPECT_EQ(counts.total(), 15u);
  const auto top = counts.top(5);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "10.0.0.2:9");
  EXPECT_EQ(top[0].second, 5u);
  EXPECT_EQ(top[1].first, "10.0.0.1:9");
  EXPECT_EQ(top[1].second, 3u);
}

TEST(ControlFraming, HeaderClassification) {
  std::uint32_t length = 0;
  runtime::Error error;

  const Bytes valid = {'N', 'C', 1, 0, 0x34, 0x12, 0, 0};
  EXPECT_EQ(parse_frame_header(valid, length, error), FrameParse::kFrame);
  EXPECT_EQ(length, 0x1234u);

  const Bytes short_header = {'N', 'C', 1};
  EXPECT_EQ(parse_frame_header(short_header, length, error), FrameParse::kNeedMore);

  const Bytes http = {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T'};
  EXPECT_EQ(parse_frame_header(http, length, error), FrameParse::kMalformed);
  EXPECT_EQ(error.kind, runtime::ErrorKind::kMalformed);

  const Bytes bad_version = {'N', 'C', 2, 0, 4, 0, 0, 0};
  EXPECT_EQ(parse_frame_header(bad_version, length, error), FrameParse::kMalformed);

  const Bytes bad_reserved = {'N', 'C', 1, 9, 4, 0, 0, 0};
  EXPECT_EQ(parse_frame_header(bad_reserved, length, error), FrameParse::kMalformed);

  Bytes oversize = {'N', 'C', 1, 0};
  const std::uint32_t huge = kMaxControlFrame + 1;
  for (int b = 0; b < 4; ++b) oversize.push_back(static_cast<std::uint8_t>(huge >> (8 * b)));
  EXPECT_EQ(parse_frame_header(oversize, length, error), FrameParse::kMalformed);
  EXPECT_NE(error.message.find("exceeds"), std::string::npos) << error.message;
}

TEST(Wire, UnknownVersionFailsClosed) {
  sim::Packet packet;
  packet.has_netcl = true;
  packet.payload = {1, 2, 3};
  Bytes wire = serialize_packet(packet);
  wire[3] = 2;  // future wire version
  sim::Packet decoded;
  const runtime::Error error = deserialize_packet_e(wire, decoded);
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.kind, runtime::ErrorKind::kMalformed);
  EXPECT_NE(error.message.find("version"), std::string::npos) << error.message;
}

// --- fixtures -----------------------------------------------------------------

sim::ProgramArtifact calc_artifact(int comp, KernelSpec* spec_out = nullptr) {
  const apps::AppSource app = apps::calc_source();
  driver::CompileOptions options;
  options.defines = app.defines;
  options.defines["COMP"] = static_cast<std::uint64_t>(comp);
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  if (spec_out != nullptr) *spec_out = compiled.specs.at(comp);
  return driver::make_artifact(std::move(compiled), "calc" + std::to_string(comp));
}

/// Device 1 with two co-resident calc tenants (tenant 1 on comp 1, tenant
/// 2 on comp 2) — the minimal noisy-neighbour topology.
std::unique_ptr<sim::SwitchDevice> two_tenant_device(KernelSpec& spec1, KernelSpec& spec2) {
  auto device = std::make_unique<sim::SwitchDevice>(1);
  EXPECT_FALSE(device->load_program(1, calc_artifact(1, &spec1)));
  EXPECT_FALSE(device->load_program(2, calc_artifact(2, &spec2)));
  return device;
}

/// A raw UDP endpoint playing one host; source port is the identity the
/// daemon learns, so victim and flooder are distinguishable.
class UdpEndpoint {
 public:
  explicit UdpEndpoint(std::uint16_t server_port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server_port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    timeval timeout{2, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~UdpEndpoint() {
    if (fd_ >= 0) ::close(fd_);
  }
  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  void send(const Bytes& datagram) {
    EXPECT_EQ(::send(fd_, datagram.data(), datagram.size(), 0),
              static_cast<ssize_t>(datagram.size()));
  }
  bool receive(sim::Packet& out) {
    std::uint8_t buffer[4096];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n <= 0) return false;
    return deserialize_packet({buffer, static_cast<std::size_t>(n)}, out);
  }

 private:
  int fd_ = -1;
};

Bytes calc_datagram(const KernelSpec& spec, std::uint16_t src_host, std::uint8_t comp,
                    std::uint64_t a, std::uint64_t b) {
  sim::Packet packet;
  packet.has_netcl = true;
  packet.netcl.src = src_host;
  packet.netcl.to = 1;  // this device
  packet.netcl.comp = comp;
  sim::ArgValues args = sim::make_args(spec);
  args[0][0] = apps::kCalcAdd;
  args[1][0] = a;
  args[2][0] = b;
  packet.payload = sim::encode_args(spec, args);
  packet.netcl.len = static_cast<std::uint16_t>(packet.payload.size());
  return serialize_packet(packet);
}

Bytes control_request(std::uint8_t opcode, std::uint64_t request_id = 1) {
  ByteWriter w;
  w.u64(0xBEEF);
  w.u64(request_id);
  w.u8(opcode);
  return w.bytes();
}

int tcp_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  timeval timeout{3, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

// --- per-tenant policing ------------------------------------------------------

TEST(Overload, PolicerShedsFloodingTenantOnly) {
  KernelSpec spec1, spec2;
  SwdOptions options;
  options.tenant_rate_pps = 10.0;  // refill is negligible within the test
  options.tenant_burst = 4.0;
  SwdServer server(two_tenant_device(spec1, spec2), options);
  ASSERT_TRUE(server.valid()) << server.error();

  UdpEndpoint victim(server.udp_port());
  UdpEndpoint flooder(server.udp_port());
  for (std::uint64_t i = 0; i < 50; ++i) {
    flooder.send(calc_datagram(spec2, /*src_host=*/2, /*comp=*/2, i, 1));
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    victim.send(calc_datagram(spec1, /*src_host=*/1, /*comp=*/1, 40 + i, 2));
  }
  for (int cycle = 0; cycle < 64; ++cycle) server.poll_once(0);

  // The flooder blew through its own burst; the victim's bucket is
  // untouched and every one of its packets was served.
  EXPECT_EQ(server.packets_received.value(), 54u);
  EXPECT_GE(server.packets_shed_policer.value(), 40u);
  std::size_t victim_responses = 0;
  sim::Packet response;
  while (victim_responses < 4 && victim.receive(response)) {
    EXPECT_EQ(response.netcl.comp, 1);
    ++victim_responses;
  }
  EXPECT_EQ(victim_responses, 4u);
}

TEST(Overload, IngressQueueDropsOldestNotNewest) {
  KernelSpec spec1, spec2;
  SwdOptions options;
  options.ingress_queue_capacity = 4;
  options.max_cycle_execute = 1;
  SwdServer server(two_tenant_device(spec1, spec2), options);
  ASSERT_TRUE(server.valid()) << server.error();

  UdpEndpoint host(server.udp_port());
  for (std::uint64_t i = 0; i < 40; ++i) {
    host.send(calc_datagram(spec1, /*src_host=*/1, /*comp=*/1, i, 1));
  }
  // One cycle drains and admits all 40: the queue holds the *newest* 4,
  // 36 oldest were shed, and exactly one execution slot was spent.
  server.poll_once(0);
  EXPECT_EQ(server.packets_received.value(), 40u);
  EXPECT_EQ(server.packets_shed_queue.value(), 36u);
  EXPECT_EQ(server.packets_sent.value(), 1u);
  for (int cycle = 0; cycle < 8; ++cycle) server.poll_once(0);
  EXPECT_EQ(server.packets_sent.value(), 4u);
  EXPECT_EQ(server.packets_shed_queue.value(), 36u);
}

// --- malformed-datagram accounting --------------------------------------------

TEST(Overload, MalformedDatagramsCountedAndAttributedBySource) {
  KernelSpec spec1, spec2;
  SwdServer server(two_tenant_device(spec1, spec2), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();

  UdpEndpoint attacker(server.udp_port());
  attacker.send({'G', 'E', 'T', ' ', '/', ' '});           // bad magic
  attacker.send({'N', 'C', 'L', 1, 0});                    // truncated header
  Bytes bad_version = calc_datagram(spec1, 1, 1, 1, 1);
  bad_version[3] = 9;                                      // unknown version
  attacker.send(bad_version);
  attacker.send(calc_datagram(spec1, 1, 1, 2, 3));         // one valid packet
  for (int cycle = 0; cycle < 16; ++cycle) server.poll_once(0);

  EXPECT_EQ(server.packets_malformed.value(), 3u);
  EXPECT_EQ(server.packets_received.value(), 1u);

  // The exposition attributes the offender: a per-source registry renders
  // with a source="ip:port" label (ncl-top's malformed-sources table).
  const Bytes response = server.handle_control(control_request(
      static_cast<std::uint8_t>(ControlOp::kMetricsText)));
  ASSERT_FALSE(response.empty());
  ASSERT_EQ(response[0], kControlOk);
  const std::string text(response.begin() + 1, response.end());
  EXPECT_NE(text.find("netcl_malformed_by_source"), std::string::npos) << text;
  EXPECT_NE(text.find("source=\"127.0.0.1:"), std::string::npos) << text;
  EXPECT_NE(text.find("netcl_packets_malformed_total"), std::string::npos) << text;
}

// --- coalesced flood ----------------------------------------------------------

/// Whether this build and kernel coalesce on receive; the daemon's data
/// socket is a DatagramSocket like this probe.
bool receive_coalesces() {
  obs::MetricsRegistry metrics("gro_probe");
  const DatagramSocket probe(metrics, 0);
  return probe.gro_enabled();
}

TEST(Overload, SegmentedFloodCountsEveryDatagramWithinTheCycleBudget) {
  KernelSpec spec1, spec2;
  SwdOptions options;
  options.ingress_queue_capacity = 512;
  SwdServer server(two_tenant_device(spec1, spec2), options);
  ASSERT_TRUE(server.valid()) << server.error();
  testutil::SegmentedSender flooder;
  ASSERT_NE(flooder.port(), 0);
  const sockaddr_in to = testutil::SegmentedSender::loopback(server.udp_port());

  // 16 super-datagrams of 64 equal-size datagrams; every second one has a
  // broken magic, the rest are CALC requests whose answers come back to
  // the flooder. Without GRO the kernel queues each datagram on its own
  // and the socket buffer holds only ~250 small ones, so the flood goes
  // out a few super-datagrams at a time; with GRO one super-datagram is
  // one queue entry and all 1,024 datagrams wait at once, four times the
  // cycle budget.
  constexpr std::size_t kMessages = 16;
  constexpr std::size_t kSegments = 64;
  const bool coalesces = receive_coalesces();
  const std::size_t per_round = coalesces ? kMessages : 3;
  std::vector<std::uint64_t> expected;
  std::vector<std::uint64_t> answers;
  auto read_answers = [&] {
    std::uint8_t buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(flooder.fd(), buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n <= 0) return;
      sim::Packet answer;
      ASSERT_TRUE(deserialize_packet({buffer, static_cast<std::size_t>(n)}, answer));
      answers.push_back(sim::decode_args(spec1, answer.payload)[3][0]);
    }
  };
  // Datagrams the daemon has taken off its socket so far.
  auto seen = [&] { return server.packets_received.value() + server.packets_malformed.value(); };
  std::size_t malformed = 0;
  std::size_t max_cycle = 0;
  std::uint64_t a = 0;
  for (std::size_t sent = 0; sent < kMessages;) {
    const std::size_t round = std::min(per_round, kMessages - sent);
    for (std::size_t m = 0; m < round; ++m) {
      std::vector<Bytes> message;
      for (std::size_t segment = 0; segment < kSegments; ++segment, ++a) {
        Bytes datagram = calc_datagram(spec1, /*src_host=*/1, /*comp=*/1, a, 5);
        if (segment % 2 == 1) {
          datagram[0] ^= 0xFF;
          ++malformed;
        } else {
          expected.push_back(a + 5);
        }
        message.push_back(std::move(datagram));
      }
      flooder.send(to, message);
    }
    sent += round;
    for (int cycle = 0; cycle < 400 && seen() < sent * kSegments; ++cycle) {
      const std::uint64_t before = seen();
      server.poll_once(10);
      const std::uint64_t taken = seen() - before;
      EXPECT_LE(taken, SwdServer::kMaxDrainDatagrams);
      max_cycle = std::max<std::size_t>(max_cycle, taken);
      // Admitted, minus shed, minus answered: what the queue still holds.
      EXPECT_LE(server.packets_received.value() - server.packets_shed_queue.value() -
                    server.packets_sent.value(),
                options.ingress_queue_capacity);
      read_answers();
    }
  }
  for (int cycle = 0; cycle < 400 && answers.size() < expected.size(); ++cycle) {
    server.poll_once(10);
    read_answers();
  }

  EXPECT_EQ(server.packets_malformed.value(), malformed);
  EXPECT_EQ(server.packets_received.value(), expected.size());
  EXPECT_EQ(server.packets_shed_queue.value(), 0u);
  EXPECT_EQ(answers, expected);
  EXPECT_EQ(server.metrics().counter("recv_truncated").value(), 0u);
  if (coalesces) {
    // The flood outran the budget, and the budget held.
    EXPECT_EQ(max_cycle, SwdServer::kMaxDrainDatagrams);
    EXPECT_GE(server.metrics().counter("gro_batches").value(), 1u);
  }
}

// --- control-plane perimeter --------------------------------------------------

TEST(Overload, ControlGarbageGetsTypedErrorThenClose) {
  KernelSpec spec1, spec2;
  SwdServer server(two_tenant_device(spec1, spec2), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  const int fd = tcp_connect(server.control_port());
  const std::string garbage = "GET / HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(write_all(fd, reinterpret_cast<const std::uint8_t*>(garbage.data()),
                        garbage.size()));
  // The daemon answers one typed failure frame, then closes.
  Bytes payload;
  ASSERT_TRUE(read_frame(fd, payload));
  ByteReader reader(payload);
  EXPECT_EQ(reader.u8(), kControlError);
  EXPECT_EQ(static_cast<runtime::ErrorKind>(reader.u8()), runtime::ErrorKind::kMalformed);
  EXPECT_FALSE(reader.str().empty());
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "connection should be closed";
  ::close(fd);

  // The perimeter is per-connection: a well-behaved client still works.
  ControlClient client("127.0.0.1", server.control_port());
  std::uint16_t device_id = 0;
  std::uint32_t generation = 0;
  std::uint64_t device_clock_ns = 0;
  EXPECT_TRUE(client.ping(device_id, generation, device_clock_ns).ok());
  EXPECT_EQ(device_id, 1);

  server.stop();
  serving.join();
  EXPECT_GE(server.control_malformed.value(), 1u);
}

TEST(Overload, OversizeControlFrameRejectedBeforeBuffering) {
  KernelSpec spec1, spec2;
  SwdServer server(two_tenant_device(spec1, spec2), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  const int fd = tcp_connect(server.control_port());
  Bytes header = {'N', 'C', 1, 0};
  const std::uint32_t huge = kMaxControlFrame + 1;
  for (int b = 0; b < 4; ++b) header.push_back(static_cast<std::uint8_t>(huge >> (8 * b)));
  ASSERT_TRUE(write_all(fd, header.data(), header.size()));
  Bytes payload;
  ASSERT_TRUE(read_frame(fd, payload));
  ByteReader reader(payload);
  EXPECT_EQ(reader.u8(), kControlError);
  EXPECT_EQ(static_cast<runtime::ErrorKind>(reader.u8()), runtime::ErrorKind::kMalformed);
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  server.stop();
  serving.join();
  EXPECT_GE(server.control_malformed.value(), 1u);
}

TEST(Overload, SlowReadConnectionReapedOnDeadline) {
  KernelSpec spec1, spec2;
  SwdOptions options;
  options.read_deadline_seconds = 0.2;
  SwdServer server(two_tenant_device(spec1, spec2), options);
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  // A slowloris client: valid preamble start, then silence. The partial
  // frame pins frame_started_s; the deadline reaps it even though the
  // connection is not idle-timeout old.
  const int fd = tcp_connect(server.control_port());
  const Bytes partial = {'N', 'C', 1, 0};
  ASSERT_TRUE(write_all(fd, partial.data(), partial.size()));
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "stalled connection should be reaped";
  ::close(fd);

  server.stop();
  serving.join();
  EXPECT_EQ(server.connections_reaped_slow.value(), 1u);
}

/// A client with a 4 KiB receive buffer and a small segment size, both set
/// before connect: the advertised window stays small, and so does the send
/// buffer the daemon's kernel sizes from the segment size.
int connect_non_reader(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const int mss = 536;
  ::setsockopt(fd, IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof(mss));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

/// Drives `server` from this thread, pushing `bytes` into `fd` as the
/// socket takes them, until the server reaps a stalled connection or 3 s
/// pass. Returns the longest single poll_once in milliseconds.
double worst_poll_ms_until_reaped(SwdServer& server, int fd, const Bytes& bytes) {
  using Clock = std::chrono::steady_clock;
  std::size_t sent = 0;
  double worst_ms = 0.0;
  const auto start = Clock::now();
  while (server.connections_reaped_slow.value() == 0 &&
         Clock::now() - start < std::chrono::seconds(3)) {
    if (sent < bytes.size()) {
      const ssize_t w = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w > 0) sent += static_cast<std::size_t>(w);
    }
    const auto before = Clock::now();
    server.poll_once(10);
    worst_ms = std::max(
        worst_ms, std::chrono::duration<double, std::milli>(Clock::now() - before).count());
  }
  return worst_ms;
}

TEST(Overload, ControlClientThatNeverReadsDoesNotStallThePollLoop) {
  // 4,000 pipelined kMetricsText requests whose replies the client never
  // reads: the replies back up into the daemon's outbox, which must not
  // block the one data-plane thread; the stalled outbox is reaped on the
  // read deadline.
  KernelSpec spec1, spec2;
  SwdOptions options;
  options.read_deadline_seconds = 0.3;
  SwdServer server(two_tenant_device(spec1, spec2), options);
  ASSERT_TRUE(server.valid()) << server.error();

  const int fd = connect_non_reader(server.control_port());
  Bytes requests;
  for (std::uint64_t id = 1; id <= 4000; ++id) {
    append_frame(requests,
                 control_request(static_cast<std::uint8_t>(ControlOp::kMetricsText), id));
  }
  const double worst_ms = worst_poll_ms_until_reaped(server, fd, requests);
  ::close(fd);
  EXPECT_LT(worst_ms, 100.0);
  EXPECT_EQ(server.connections_reaped_slow.value(), 1u);
  EXPECT_GT(server.control_requests.value(), 0u);
}

TEST(Overload, ScrapeClientThatNeverReadsDoesNotStallThePollLoop) {
  // An exposition far larger than the socket buffers, scraped by a client
  // that never reads it.
  obs::MetricsRegistry bulk("hostile.bulk");
  for (int i = 0; i < 5000; ++i) bulk.counter("series_" + std::to_string(i)).inc();
  KernelSpec spec1, spec2;
  SwdOptions options;
  options.metrics_port = 0;
  options.read_deadline_seconds = 0.3;
  SwdServer server(two_tenant_device(spec1, spec2), options);
  ASSERT_TRUE(server.valid()) << server.error();

  const int fd = connect_non_reader(server.metrics_port());
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  const double worst_ms =
      worst_poll_ms_until_reaped(server, fd, Bytes(request.begin(), request.end()));
  ::close(fd);
  EXPECT_LT(worst_ms, 100.0);
  EXPECT_EQ(server.connections_reaped_slow.value(), 1u);
  EXPECT_EQ(server.metrics_scrapes.value(), 1u);
}

TEST(Overload, KernelSourceLengthBombRejectedBeforeAllocation) {
  KernelSpec spec1, spec2;
  SwdServer server(two_tenant_device(spec1, spec2), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();

  // kLoadKernel with src_len 0xFFFFFFFF and no bytes behind it: the
  // length must be validated against the frame before any allocation.
  ByteWriter w;
  w.u64(0xBEEF);
  w.u64(7);
  w.u8(static_cast<std::uint8_t>(ControlOp::kLoadKernel));
  w.u32(4);         // tenant
  w.u8(0);          // flags
  w.str("bomb");    // name
  w.u16(0);         // defines
  w.u32(0xFFFFFFFF);  // src_len with no source behind it
  const Bytes response = server.handle_control(w.bytes());
  ASSERT_GE(response.size(), 2u);
  ByteReader reader(response);
  EXPECT_EQ(reader.u8(), kControlError);
  EXPECT_EQ(static_cast<runtime::ErrorKind>(reader.u8()), runtime::ErrorKind::kMalformed);
  EXPECT_NE(reader.str().find("overruns"), std::string::npos);

  const Bytes unknown = server.handle_control(control_request(200, /*request_id=*/8));
  ASSERT_GE(unknown.size(), 2u);
  ByteReader unknown_reader(unknown);
  EXPECT_EQ(unknown_reader.u8(), kControlError);
  EXPECT_EQ(static_cast<runtime::ErrorKind>(unknown_reader.u8()),
            runtime::ErrorKind::kMalformed);
}

}  // namespace
}  // namespace netcl::net
