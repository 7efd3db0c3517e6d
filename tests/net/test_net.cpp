#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <tuple>
#include <thread>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/control.hpp"
#include "net/sim_transport.hpp"
#include "net/swd_server.hpp"
#include "net/udp_transport.hpp"
#include "net/wire.hpp"
#include "runtime/error.hpp"
#include "runtime/failure.hpp"
#include "runtime/host.hpp"
#include "runtime/retransmit.hpp"
#include "sim/fabric.hpp"

namespace netcl::net {
namespace {

using runtime::DeviceConnection;
using runtime::HostRuntime;
using runtime::Message;
using sim::ArgValues;

// --- wire format --------------------------------------------------------------

sim::Packet sample_packet() {
  sim::Packet packet;
  packet.has_netcl = true;
  packet.netcl.src = 3;
  packet.netcl.dst = 9;
  packet.netcl.from = 2;
  packet.netcl.to = 7;
  packet.netcl.comp = 5;
  packet.netcl.flags = 0xA0;
  packet.payload = {1, 2, 3, 4, 0xFF};
  packet.netcl.len = static_cast<std::uint16_t>(packet.payload.size());
  return packet;
}

TEST(Wire, PacketRoundTrip) {
  const sim::Packet packet = sample_packet();
  const std::vector<std::uint8_t> bytes = serialize_packet(packet);
  EXPECT_EQ(bytes.size(), kWireHeaderBytes + packet.payload.size());

  sim::Packet decoded;
  ASSERT_TRUE(deserialize_packet(bytes, decoded));
  EXPECT_EQ(decoded.netcl.src, packet.netcl.src);
  EXPECT_EQ(decoded.netcl.dst, packet.netcl.dst);
  EXPECT_EQ(decoded.netcl.from, packet.netcl.from);
  EXPECT_EQ(decoded.netcl.to, packet.netcl.to);
  EXPECT_EQ(decoded.netcl.comp, packet.netcl.comp);
  EXPECT_EQ(decoded.netcl.flags, packet.netcl.flags);
  EXPECT_EQ(decoded.payload, packet.payload);
}

TEST(Wire, RejectsBadMagicAndTruncation) {
  std::vector<std::uint8_t> bytes = serialize_packet(sample_packet());
  sim::Packet decoded;

  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[0] = 'X';
  EXPECT_FALSE(deserialize_packet(corrupt, decoded));

  std::vector<std::uint8_t> header_cut(bytes.begin(), bytes.begin() + 8);
  EXPECT_FALSE(deserialize_packet(header_cut, decoded));

  // Header intact but the payload is shorter than the declared len.
  std::vector<std::uint8_t> payload_cut(bytes.begin(), bytes.end() - 2);
  EXPECT_FALSE(deserialize_packet(payload_cut, decoded));
}

TEST(Wire, ByteCodecRoundTrip) {
  ByteWriter writer;
  writer.u8(7);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFULL);
  writer.str("thresh");
  writer.u64_vec({1, 2, 3});

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.u8(), 7);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.str(), "thresh");
  EXPECT_EQ(reader.u64_vec(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.at_end());

  reader.u64();  // over-read poisons the reader instead of faulting
  EXPECT_FALSE(reader.ok());
}

// --- UdpTransport -------------------------------------------------------------

TEST(UdpTransport, LoopbackRoundTrip) {
  UdpTransport alice;
  UdpTransport bob;
  ASSERT_TRUE(alice.valid()) << alice.error();
  ASSERT_TRUE(bob.valid()) << bob.error();
  alice.set_peer("127.0.0.1", bob.local_port());
  bob.set_peer("127.0.0.1", alice.local_port());

  sim::Packet seen;
  bool bob_got = false;
  bob.set_receiver([&](const sim::Packet& packet) {
    seen = packet;
    bob_got = true;
    sim::Packet reply = packet;
    reply.netcl.src = 9;
    bob.send(std::move(reply));
  });
  bool alice_got = false;
  alice.set_receiver([&](const sim::Packet& packet) {
    alice_got = packet.netcl.src == 9;
  });

  alice.send(sample_packet());
  ASSERT_TRUE(bob.run_until([&] { return bob_got; }, 5e9));
  EXPECT_EQ(seen.payload, sample_packet().payload);
  ASSERT_TRUE(alice.run_until([&] { return alice_got; }, 5e9));
  EXPECT_EQ(alice.packets_sent, 1u);
  EXPECT_EQ(alice.packets_received, 1u);
  EXPECT_EQ(bob.packets_received, 1u);
}

TEST(UdpTransport, TimersFireInDeadlineOrder) {
  UdpTransport transport;
  ASSERT_TRUE(transport.valid()) << transport.error();
  std::vector<int> order;
  transport.schedule(2e6, [&] { order.push_back(2); });
  transport.schedule(1e6, [&] { order.push_back(1); });
  ASSERT_TRUE(transport.run_until([&] { return order.size() == 2; }, 5e9));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(transport.timers_fired, 2u);
}

TEST(UdpTransport, FiringTimerMovesItsCallbackOut) {
  // A callback whose captures outgrow std::function's local buffer lives on
  // the heap, so copying it to fire it would allocate. The timer heap moves
  // it out instead: a callback owning a copy counter fires without a copy.
  struct CopyCounter {
    int* copies;
    std::array<std::uint64_t, 4> padding{};  // past any small-buffer size
    explicit CopyCounter(int* counter) : copies(counter) {}
    CopyCounter(const CopyCounter& other) : copies(other.copies), padding(other.padding) {
      ++*copies;
    }
    CopyCounter(CopyCounter&&) noexcept = default;
    CopyCounter& operator=(const CopyCounter&) = delete;
    CopyCounter& operator=(CopyCounter&&) = delete;
    ~CopyCounter() = default;
  };
  UdpTransport transport;
  ASSERT_TRUE(transport.valid()) << transport.error();
  int copies = 0;
  std::vector<int> order;
  // Scheduled latest first, so the heap reorders them as it fills.
  for (int i = 0; i < 8; ++i) {
    transport.schedule((8 - i) * 1e5, [counter = CopyCounter(&copies), &order, i] {
      order.push_back(i + static_cast<int>(counter.padding[0]));
    });
  }
  ASSERT_TRUE(transport.run_until([&] { return order.size() == 8; }, 5e9));
  EXPECT_EQ(order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(copies, 0);
}

// --- SwdServer end-to-end -----------------------------------------------------

driver::CompileResult compile_calc(std::uint16_t device_id) {
  apps::AppSource app = apps::calc_source();
  driver::CompileOptions options;
  options.device_id = device_id;
  options.defines = app.defines;
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  return compiled;
}

TEST(SwdServer, CalcMatchesSimulatedFabric) {
  driver::CompileResult compiled = compile_calc(1);
  const KernelSpec spec = compiled.specs.at(1);

  struct Case {
    std::uint64_t op, a, b;
  };
  const std::vector<Case> cases = {{apps::kCalcAdd, 20, 22},
                                   {apps::kCalcSub, 100, 58},
                                   {apps::kCalcAnd, 0xF0F0, 0xFF00},
                                   {apps::kCalcOr, 0xF0F0, 0x0F0F},
                                   {apps::kCalcXor, 0xFFFF, 0x00FF}};

  // Reference: the same ops through the simulated fabric.
  std::vector<std::vector<std::uint8_t>> sim_results;
  {
    driver::CompileResult sim_compiled = compile_calc(1);
    sim::Fabric fabric(3);
    fabric.add_device(driver::make_device(std::move(sim_compiled), 1));
    HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
    host.register_spec(1, spec);
    fabric.connect(sim::host_ref(1), sim::device_ref(1));
    host.on_receive([&](const Message&, ArgValues& args) {
      sim_results.push_back(sim::encode_args(spec, args));
    });
    for (const Case& c : cases) {
      ArgValues args = sim::make_args(spec);
      args[0][0] = c.op;
      args[1][0] = c.a;
      args[2][0] = c.b;
      host.send(Message(1, 0, 1, 1), args);
    }
    fabric.run();
  }
  ASSERT_EQ(sim_results.size(), cases.size());

  // The same ops over real loopback UDP against an in-process daemon.
  SwdServer server(driver::make_device(std::move(compiled), 1), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  UdpTransport::Options transport_options;
  transport_options.peer_port = server.udp_port();
  UdpTransport transport(transport_options);
  ASSERT_TRUE(transport.valid()) << transport.error();
  HostRuntime host(transport, 1);
  host.register_spec(1, spec);
  std::vector<std::vector<std::uint8_t>> udp_results;
  host.on_receive([&](const Message&, ArgValues& args) {
    udp_results.push_back(sim::encode_args(spec, args));
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ArgValues args = sim::make_args(spec);
    args[0][0] = cases[i].op;
    args[1][0] = cases[i].a;
    args[2][0] = cases[i].b;
    host.send(Message(1, 0, 1, 1), args);
    // One op at a time so result order is deterministic even over UDP.
    ASSERT_TRUE(transport.run_until([&] { return udp_results.size() > i; }, 10e9))
        << "timed out waiting for op " << i;
  }
  server.stop();
  serving.join();

  // Byte-identical payloads: the daemon runs the same execution engine.
  EXPECT_EQ(udp_results, sim_results);
  EXPECT_EQ(host.received, cases.size());
  EXPECT_EQ(server.packets_received, cases.size());
  EXPECT_EQ(server.packets_sent, cases.size());
}

TEST(SwdServer, ControlPlaneThroughDeviceConnection) {
  driver::CompileOptions options;
  options.device_id = 3;
  driver::CompileResult compiled = driver::compile_netcl(R"(
    _managed_ unsigned thresh;
    _managed_ _lookup_ ncl::kv<unsigned, unsigned> cache[16];
    _kernel(1) void k(unsigned key, unsigned &v, char &hit) {
      hit = ncl::lookup(cache, key, v);
      return hit ? ncl::reflect() : ncl::drop();
    }
  )",
                                                         options);
  ASSERT_TRUE(compiled.ok) << compiled.errors;

  SwdServer server(driver::make_device(std::move(compiled), 3), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  DeviceConnection connection("127.0.0.1", server.control_port());
  ASSERT_TRUE(connection.valid());
  EXPECT_EQ(connection.device_id(), 3);

  // Managed memory: the same calls DeviceConnection serves against a
  // simulated device, now over the TCP control plane. The typed forms
  // (ISSUE 5) distinguish "daemon refused" from transport failures.
  EXPECT_TRUE(connection.managed_write_e("thresh", 500).ok());
  std::uint64_t value = 0;
  EXPECT_TRUE(connection.managed_read_e("thresh", value).ok());
  EXPECT_EQ(value, 500u);
  const runtime::Error missing = connection.managed_read_e("no_such_symbol", value);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.kind, runtime::ErrorKind::kRejected);

  EXPECT_TRUE(connection.insert_e("cache", 5, 1234).ok());
  EXPECT_TRUE(connection.remove_e("cache", 5).ok());
  EXPECT_TRUE(connection.set_multicast_group_e(42, {1, 2}).ok());

  sim::DeviceStats stats;
  ASSERT_TRUE(connection.stats_e(stats).ok());
  EXPECT_GE(stats.control_writes, 2u);
  EXPECT_GE(stats.control_reads, 1u);

  server.stop();
  serving.join();
  EXPECT_GE(static_cast<std::uint64_t>(server.control_requests), 7u);
}

/// Stops an in-process daemon serving on its own thread at scope exit,
/// however the test leaves.
class ServingThread {
 public:
  explicit ServingThread(SwdServer& server) : server_(server), thread_([this] { server_.run(); }) {}
  ~ServingThread() {
    server_.stop();
    thread_.join();
  }
  ServingThread(const ServingThread&) = delete;
  ServingThread& operator=(const ServingThread&) = delete;

 private:
  SwdServer& server_;
  std::thread thread_;
};

TEST(SwdServer, AllReduceWorkersSendEachAggregateBurstsContributionsTogether) {
  // SwitchML AllReduce over loopback UDP: four workers, each streaming
  // chunks through a RetransmitWindow, against an in-process daemon that
  // multicasts every finished aggregate to group {1..4}. Each aggregate
  // acknowledges its slot, and the window sends the slot's next chunk from
  // inside the receive callback; a burst of aggregates thus sends its
  // contributions in one flush, so a worker makes fewer send syscalls than
  // it sends contributions.
  constexpr int kWorkers = 4;
  constexpr int kSlots = 64;
  constexpr int kValues = 32;
  constexpr int kWindow = 8;
  constexpr int kChunks = 512;
  const apps::AppSource app = apps::agg_source(kWorkers, kSlots, kValues);
  driver::CompileOptions options;
  options.device_id = 1;
  options.defines = app.defines;
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  const KernelSpec spec = compiled.specs.at(1);

  SwdServer server(driver::make_device(std::move(compiled), 1), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  const ServingThread serving(server);
  DeviceConnection connection("127.0.0.1", server.control_port());
  ASSERT_TRUE(connection.valid());
  ASSERT_TRUE(connection.set_multicast_group_e(apps::kAggMulticastGroup, {1, 2, 3, 4}).ok());

  // Worker w's value i for chunk c, and its block exponent.
  const auto value = [](int chunk, int w, int i) {
    return static_cast<std::uint64_t>(chunk) * 1000 + static_cast<std::uint64_t>(i + w + 1);
  };
  const auto exponent = [](int chunk, int w) {
    return static_cast<std::uint64_t>((w + chunk) & 0xF);
  };

  struct Worker {
    std::unique_ptr<UdpTransport> transport;
    std::unique_ptr<HostRuntime> host;
    std::unique_ptr<runtime::RetransmitWindow> window;
    std::uint64_t contributions = 0;
    std::uint64_t wrong_aggregates = 0;
  };
  std::array<Worker, kWorkers> workers;
  for (int w = 0; w < kWorkers; ++w) {
    Worker& worker = workers[static_cast<std::size_t>(w)];
    UdpTransport::Options transport_options;
    transport_options.peer_port = server.udp_port();
    worker.transport = std::make_unique<UdpTransport>(transport_options);
    ASSERT_TRUE(worker.transport->valid()) << worker.transport->error();
    worker.host = std::make_unique<HostRuntime>(*worker.transport, static_cast<std::uint16_t>(w + 1));
    worker.host->register_spec(1, spec);
    runtime::RetransmitWindow::Config config;
    config.chunks = kChunks;
    config.window = kWindow;
    config.retransmit_ns = 2e9;  // far above any loopback RTT, sanitized or not
    worker.window = std::make_unique<runtime::RetransmitWindow>(
        *worker.transport, config, [&worker, &spec, &value, &exponent, w](int chunk, int slot, bool) {
          const auto ver = static_cast<std::uint64_t>(worker.window->version(chunk));
          ArgValues args = sim::make_args(spec);
          args[0][0] = ver;
          args[1][0] = static_cast<std::uint64_t>(slot);                 // bmp_idx
          args[2][0] = ver * kSlots + static_cast<std::uint64_t>(slot);  // agg_idx
          args[3][0] = 1ULL << w;                                        // mask
          args[4][0] = exponent(chunk, w);
          for (int i = 0; i < kValues; ++i) args[5][static_cast<std::size_t>(i)] = value(chunk, w, i);
          worker.host->send(Message(static_cast<std::uint16_t>(w + 1), 0, 1, 1), args);
          ++worker.contributions;
        });
    worker.host->on_receive([&worker, &value, &exponent](const Message&, ArgValues& args) {
      const int slot = static_cast<int>(args[1][0]);
      const int chunk = worker.window->chunk_for_slot(slot);
      bool correct = chunk >= 0 && !worker.window->is_done(chunk) &&
                     args[0][0] == static_cast<std::uint64_t>(worker.window->version(chunk));
      std::uint64_t max_exp = 0;
      for (int v = 0; v < kWorkers && correct; ++v) max_exp = std::max(max_exp, exponent(chunk, v));
      correct = correct && args[4][0] == max_exp;
      for (int i = 0; i < kValues && correct; ++i) {
        std::uint64_t sum = 0;
        for (int v = 0; v < kWorkers; ++v) sum += value(chunk, v, i);
        correct = args[5][static_cast<std::size_t>(i)] == (sum & 0xFFFFFFFFu);
      }
      if (!correct) {
        ++worker.wrong_aggregates;
        return;
      }
      worker.window->acknowledge_slot(slot);
    });
  }
  for (Worker& worker : workers) worker.window->start();

  const auto all_complete = [&] {
    return std::all_of(workers.begin(), workers.end(),
                       [](const Worker& worker) { return worker.window->complete(); });
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!all_complete() && std::chrono::steady_clock::now() < deadline) {
    for (Worker& worker : workers) worker.transport->poll_once(0);
  }

  ASSERT_TRUE(all_complete());
  for (const Worker& worker : workers) {
    EXPECT_EQ(worker.wrong_aggregates, 0u);
    EXPECT_EQ(worker.window->retransmissions(), 0u);
    EXPECT_EQ(worker.contributions, static_cast<std::uint64_t>(kChunks));
    EXPECT_EQ(worker.transport->send_errors.value(), 0u);
    // One sendto per datagram on the portable path.
    if (gso_compiled_in()) {
      EXPECT_LT(worker.transport->send_syscalls.value(), worker.contributions);
    }
  }
  EXPECT_EQ(server.packets_received.value(), static_cast<std::uint64_t>(kWorkers * kChunks));
}

// --- failure model (ISSUE 3) --------------------------------------------------

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

ControlClientOptions tight_options() {
  ControlClientOptions options;
  options.connect_timeout_ms = 250.0;
  options.request_timeout_ms = 250.0;
  options.max_retries = 1;
  options.backoff_base_ms = 5.0;
  options.backoff_max_ms = 20.0;
  return options;
}

TEST(ControlClient, ConnectToBlackholeIsBoundedByDeadline) {
  // 192.0.2.1 (TEST-NET-1) is guaranteed unrouted: SYNs either vanish
  // (bounded by connect_timeout_ms) or bounce instantly. Before ISSUE 3
  // this constructor could hang in blocking connect(2) for minutes.
  const auto start = std::chrono::steady_clock::now();
  ControlClient client("192.0.2.1", 9, tight_options());
  std::uint16_t device_id = 0;
  std::uint32_t generation = 0;
  std::uint64_t device_clock_ns = 0;
  const runtime::Error err = client.ping(device_id, generation, device_clock_ns);
  EXPECT_FALSE(err.ok());
  EXPECT_LT(wall_ms_since(start), 5000.0);
  EXPECT_TRUE(err);
}

TEST(ControlClient, RequestDeadlineAgainstSilentServer) {
  // A listener whose backlog completes the TCP handshake but never reads
  // or answers: the request must time out, not block forever.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  const auto start = std::chrono::steady_clock::now();
  ControlClient client("127.0.0.1", ntohs(addr.sin_port), tight_options());
  std::uint16_t device_id = 0;
  std::uint32_t generation = 0;
  std::uint64_t device_clock_ns = 0;
  const runtime::Error err = client.ping(device_id, generation, device_clock_ns);
  EXPECT_FALSE(err.ok());
  // Two attempts (max_retries = 1) of 250 ms each plus backoff.
  EXPECT_LT(wall_ms_since(start), 5000.0);
  EXPECT_EQ(err.kind, runtime::ErrorKind::kTimeout) << err.to_string();
  ::close(listen_fd);
}

TEST(ControlClient, BareErrorReplyIsMalformed) {
  // A daemon that answers with a bare kControlError status byte, with no
  // typed body behind it, is speaking a broken protocol: the client
  // reports kMalformed, and does not retry.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread daemon([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    std::vector<std::uint8_t> request;
    if (fd >= 0 && read_frame(fd, request)) write_frame(fd, {kControlError});
    if (fd >= 0) ::close(fd);
  });

  ControlClient client("127.0.0.1", ntohs(addr.sin_port), tight_options());
  const runtime::Error err = client.unload_kernel(1);
  daemon.join();
  ::close(listen_fd);
  EXPECT_EQ(err.kind, runtime::ErrorKind::kMalformed) << err.to_string();
}

driver::CompileResult compile_managed(std::uint16_t device_id) {
  driver::CompileOptions options;
  options.device_id = device_id;
  driver::CompileResult compiled = driver::compile_netcl(R"(
    _managed_ unsigned thresh;
    _managed_ _lookup_ ncl::kv<unsigned, unsigned> cache[16];
    _kernel(1) void k(unsigned key, unsigned &v, char &hit) {
      hit = ncl::lookup(cache, key, v);
      return ncl::reflect();
    }
  )",
                                                         options);
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  return compiled;
}

TEST(SwdServer, IdempotentRetryIsReplayedNotReexecuted) {
  SwdServer server(driver::make_device(compile_managed(3), 3), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  // Raw framed client so the exact same (client id, request id) can be
  // sent twice — what a retry after a lost response looks like on the wire.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.control_port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  ByteWriter request;
  request.u64(77);  // client id
  request.u64(1);   // request id
  request.u8(static_cast<std::uint8_t>(ControlOp::kManagedWrite));
  request.str("thresh");
  request.u64_vec({});
  request.u64(123);

  std::vector<std::uint8_t> first;
  std::vector<std::uint8_t> second;
  ASSERT_TRUE(write_frame(fd, request.bytes()));
  ASSERT_TRUE(read_frame(fd, first));
  ASSERT_TRUE(write_frame(fd, request.bytes()));
  ASSERT_TRUE(read_frame(fd, second));
  EXPECT_EQ(first, second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first[0], kControlOk);
  EXPECT_EQ(static_cast<std::uint64_t>(server.control_replays), 1u);

  ByteWriter read_request;
  read_request.u64(77);
  read_request.u64(2);
  read_request.u8(static_cast<std::uint8_t>(ControlOp::kManagedRead));
  read_request.str("thresh");
  read_request.u64_vec({});
  std::vector<std::uint8_t> response;
  ASSERT_TRUE(write_frame(fd, read_request.bytes()));
  ASSERT_TRUE(read_frame(fd, response));
  ByteReader reader(response);
  EXPECT_EQ(reader.u8(), kControlOk);
  EXPECT_EQ(reader.u64(), 123u);

  ::close(fd);
  server.stop();
  serving.join();
}

TEST(SwdServer, CrashRestartBumpsGenerationAndResyncRestoresState) {
  SwdServer server(driver::make_device(compile_managed(3), 3), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  DeviceConnection connection("127.0.0.1", server.control_port(), tight_options());
  ASSERT_TRUE(connection.valid());
  runtime::PingInfo ping_before;
  ASSERT_TRUE(connection.ping_e(ping_before).ok());
  const std::uint32_t generation_before = ping_before.generation;
  EXPECT_TRUE(connection.managed_write_e("thresh", 500).ok());
  EXPECT_TRUE(connection.insert_e("cache", 5, 1234).ok());
  EXPECT_TRUE(connection.set_multicast_group_e(42, {1, 2}).ok());

  // Crash: applied on the serving thread within one poll turn; from then
  // on every request fails within its deadline instead of blocking. The
  // loop terminating at all is the no-unbounded-blocking claim.
  server.inject_crash();
  const auto crash_start = std::chrono::steady_clock::now();
  std::uint64_t value = 0;
  runtime::Error failure;
  while (failure.ok() && wall_ms_since(crash_start) < 5000.0) {
    failure = connection.managed_read_e("thresh", value);
  }
  // A transport failure, not a daemon refusal.
  EXPECT_TRUE(failure.kind == runtime::ErrorKind::kTimeout ||
              failure.kind == runtime::ErrorKind::kDisconnected)
      << failure.to_string();

  // Restart: the "new process" answers again, with a bumped generation and
  // compiled-in defaults — the offloaded 500 is gone until resync.
  server.inject_restart();
  runtime::PingInfo ping_after;
  const auto restart_start = std::chrono::steady_clock::now();
  while (!connection.ping_e(ping_after).ok() && wall_ms_since(restart_start) < 5000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::uint32_t generation_after = ping_after.generation;
  ASSERT_NE(generation_after, 0u);
  EXPECT_NE(generation_after, generation_before);
  ASSERT_TRUE(connection.managed_read_e("thresh", value).ok());
  EXPECT_EQ(value, 0u);

  EXPECT_TRUE(connection.resync_e().ok());
  EXPECT_EQ(connection.resyncs(), 1u);
  ASSERT_TRUE(connection.managed_read_e("thresh", value).ok());
  EXPECT_EQ(value, 500u);

  server.stop();
  serving.join();
}

TEST(SwdServer, ReapsIdleControlConnections) {
  SwdOptions options;
  options.idle_timeout_seconds = 0.05;
  SwdServer server(driver::make_device(compile_managed(3), 3), options);
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  // A client that connects and then goes silent (died without FIN, as far
  // as the daemon can tell). The daemon must reclaim the fd.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.control_port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const auto start = std::chrono::steady_clock::now();
  while (static_cast<std::uint64_t>(server.connections_reaped) == 0 &&
         wall_ms_since(start) < 5000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(static_cast<std::uint64_t>(server.connections_reaped), 1u);
  ::close(fd);

  // The daemon itself is unaffected: fresh connections still served.
  DeviceConnection connection("127.0.0.1", server.control_port(), tight_options());
  EXPECT_TRUE(connection.valid());

  server.stop();
  serving.join();
}

TEST(SwdServer, HostExecuteFallbackIsByteIdenticalOverRealUdp) {
  driver::CompileResult compiled = compile_calc(1);
  const KernelSpec spec = compiled.specs.at(1);

  struct Case {
    std::uint64_t op, a, b;
  };
  const std::vector<Case> cases = {
      {apps::kCalcAdd, 20, 22},     {apps::kCalcSub, 100, 58},
      {apps::kCalcAnd, 0xF0F0, 0xFF00}, {apps::kCalcOr, 0xF0F0, 0x0F0F},
      {apps::kCalcXor, 0xFFFF, 0x00FF}, {apps::kCalcAdd, 7, 35},
      {apps::kCalcSub, 99, 57},     {apps::kCalcXor, 0x1234, 0x4321}};

  // Reference: all ops through the simulated fabric.
  std::vector<std::vector<std::uint8_t>> sim_results;
  {
    sim::Fabric fabric(3);
    fabric.add_device(driver::make_device(compile_calc(1), 1));
    HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
    host.register_spec(1, spec);
    fabric.connect(sim::host_ref(1), sim::device_ref(1));
    host.on_receive([&](const Message&, ArgValues& args) {
      sim_results.push_back(sim::encode_args(spec, args));
    });
    for (const Case& c : cases) {
      ArgValues args = sim::make_args(spec);
      args[0][0] = c.op;
      args[1][0] = c.a;
      args[2][0] = c.b;
      host.send(Message(1, 0, 1, 1), args);
    }
    fabric.run();
  }
  ASSERT_EQ(sim_results.size(), cases.size());

  // Real run: first half over UDP against the daemon, then the daemon is
  // killed, the detector declares DOWN, and the second half host-executes.
  SwdServer server(driver::make_device(std::move(compiled), 1), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  UdpTransport::Options transport_options;
  transport_options.peer_port = server.udp_port();
  UdpTransport transport(transport_options);
  ASSERT_TRUE(transport.valid()) << transport.error();

  HostRuntime host(transport, 1);
  host.register_spec(1, spec);
  std::vector<std::vector<std::uint8_t>> real_results;
  host.on_receive([&](const Message&, ArgValues& args) {
    real_results.push_back(sim::encode_args(spec, args));
  });

  DeviceConnection probe_connection("127.0.0.1", server.control_port(), tight_options());
  ASSERT_TRUE(probe_connection.valid());
  runtime::FailureDetector::Config detector_config;
  detector_config.interval_ns = 20e6;  // 20 ms of wall clock per probe
  detector_config.miss_threshold = 2;
  runtime::FailureDetector detector(
      transport,
      [&] {
        runtime::FailureDetector::ProbeResult result;
        runtime::PingInfo info;
        result.reachable = probe_connection.ping_e(info).ok();
        result.generation = info.generation;
        return result;
      },
      detector_config);
  host.attach_failure_detector(detector);
  host.set_fallback_policy(runtime::FallbackPolicy::kHostExecute);
  host.set_shadow_device(driver::make_device(compile_calc(1), 1));
  detector.start();

  const std::size_t half = cases.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    ArgValues args = sim::make_args(spec);
    args[0][0] = cases[i].op;
    args[1][0] = cases[i].a;
    args[2][0] = cases[i].b;
    host.send(Message(1, 0, 1, 1), args);
    ASSERT_TRUE(transport.run_until([&] { return real_results.size() > i; }, 10e9))
        << "timed out waiting for op " << i;
  }

  server.inject_crash();
  ASSERT_TRUE(transport.run_until([&] { return !detector.up(); }, 10e9))
      << "detector never declared the crashed daemon DOWN";

  for (std::size_t i = half; i < cases.size(); ++i) {
    ArgValues args = sim::make_args(spec);
    args[0][0] = cases[i].op;
    args[1][0] = cases[i].a;
    args[2][0] = cases[i].b;
    // Host execution loops the response back synchronously.
    host.send(Message(1, 0, 1, 1), args);
    ASSERT_EQ(real_results.size(), i + 1);
  }
  detector.stop();
  server.stop();
  serving.join();

  EXPECT_EQ(real_results, sim_results);
  EXPECT_EQ(static_cast<std::uint64_t>(host.fallback_host_executed), cases.size() - half);
}

// --- one device step on every path ------------------------------------------

/// One request of the cross-path table. A short request packs only `op`
/// and `a` (the host registers a truncated layout for it), so the device
/// zero-fills the rest and re-encodes the full layout.
struct StepCase {
  std::uint8_t comp;
  std::uint64_t op, a, b;
  bool short_payload = false;
};

const std::vector<StepCase>& step_cases() {
  static const std::vector<StepCase> cases = {
      {1, apps::kCalcAdd, 20, 22},
      {1, apps::kCalcSub, 100, 58},
      {1, apps::kCalcAnd, 0xF0F0, 0xFF00},
      {1, apps::kCalcOr, 0xF0F0, 0x0F0F},
      {1, apps::kCalcXor, 0xFFFF, 0x00FF},
      {1, 0xEE, 1, 2},                  // no such opcode: the kernel drops
      {9, apps::kCalcAdd, 1, 2},        // no kernel for comp 9: passes through
      {1, apps::kCalcAdd, 7, 5, true},  // last: it re-registers comp 1
  };
  return cases;
}

/// What a host observes of one response: the header fields unpack exposes
/// (src, dst, comp, device) and the argument bytes in the host's layout.
using Observed =
    std::tuple<std::uint16_t, std::uint16_t, int, std::uint16_t, std::vector<std::uint8_t>>;

/// The DeviceStats fields every path must agree on.
std::vector<std::uint64_t> step_counts(const sim::DeviceStats& stats) {
  return {stats.packets_processed, stats.kernels_executed, stats.no_kernel,
          stats.drops_action, stats.multicasts};
}

/// Sends the table from host 1 one request at a time, calling `settle`
/// after each send until that request is answered or dropped.
std::vector<Observed> drive_step_cases(HostRuntime& host, const KernelSpec& spec,
                                       const std::function<void()>& settle) {
  std::vector<Observed> observed;
  host.register_spec(1, spec);
  host.register_spec(9, spec);
  host.on_receive([&](const Message& message, ArgValues& args) {
    observed.emplace_back(message.src, message.dst, message.comp, message.device,
                          sim::encode_args(*host.spec_for(message.comp), args));
  });
  for (const StepCase& c : step_cases()) {
    if (c.short_payload) {
      KernelSpec short_spec = spec;
      short_spec.args.resize(2);
      host.register_spec(1, short_spec);
    }
    ArgValues args = sim::make_args(*host.spec_for(c.comp));
    args[0][0] = c.op;
    args[1][0] = c.a;
    if (!c.short_payload) args[2][0] = c.b;
    host.send(Message(1, 1, c.comp, 1), args);
    settle();
  }
  host.on_receive(nullptr);
  return observed;
}

TEST(DeviceStep, FabricDaemonAndFallbackAgree) {
  const KernelSpec spec = compile_calc(1).specs.at(1);

  std::vector<Observed> fabric_seen;
  std::vector<std::uint64_t> fabric_counts;
  {
    sim::Fabric fabric(3);
    fabric.add_device(driver::make_device(compile_calc(1), 1));
    fabric.connect(sim::host_ref(1), sim::device_ref(1));
    HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
    fabric_seen = drive_step_cases(host, spec, [&] { fabric.run(); });
    fabric_counts = step_counts(fabric.device(1)->stats);
  }

  // An in-process daemon over loopback UDP, polled from this thread.
  std::vector<Observed> swd_seen;
  std::vector<std::uint64_t> swd_counts;
  {
    SwdServer server(driver::make_device(compile_calc(1), 1), SwdOptions{});
    ASSERT_TRUE(server.valid()) << server.error();
    UdpTransport::Options transport_options;
    transport_options.peer_port = server.udp_port();
    UdpTransport transport(transport_options);
    ASSERT_TRUE(transport.valid()) << transport.error();
    HostRuntime host(transport, 1);
    std::uint64_t sent = 0;
    swd_seen = drive_step_cases(host, spec, [&] {
      ++sent;
      const std::uint64_t answered = host.received.value();
      for (int i = 0; i < 500 && server.packets_received.value() < sent; ++i) {
        server.poll_once(10);
      }
      // A dropped request never answers; the wait is then the full 50 ms.
      transport.run_until([&] { return host.received.value() > answered; }, 50e6);
    });
    swd_counts = step_counts(server.device().stats);
  }

  // The host fallback: the device crashed and was declared DOWN, so every
  // send runs on the shadow device.
  std::vector<Observed> fallback_seen;
  std::vector<std::uint64_t> fallback_counts;
  {
    sim::Fabric fabric(3);
    fabric.add_device(driver::make_device(compile_calc(1), 1));
    fabric.connect(sim::host_ref(1), sim::device_ref(1));
    HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
    DeviceConnection connection(fabric, 1);
    runtime::FailureDetector::Config config;
    config.interval_ns = 1000.0;
    config.miss_threshold = 2;
    runtime::FailureDetector detector(
        host.transport(),
        [&] {
          runtime::FailureDetector::ProbeResult result;
          runtime::PingInfo info;
          result.reachable = connection.ping_e(info).ok();
          result.generation = info.generation;
          return result;
        },
        config);
    host.attach_failure_detector(detector);
    host.set_fallback_policy(runtime::FallbackPolicy::kHostExecute);
    auto shadow_device = driver::make_device(compile_calc(1), 1);
    const sim::SwitchDevice& shadow = *shadow_device;
    host.set_shadow_device(std::move(shadow_device));
    detector.start();
    fabric.run(1500.0);
    fabric.crash_device(1);
    fabric.run(4500.0);
    ASSERT_FALSE(detector.up());
    fallback_seen = drive_step_cases(host, spec, [] {});
    fallback_counts = step_counts(shadow.stats);
    EXPECT_EQ(host.fallback_host_executed.value(), step_cases().size());
    detector.stop();
  }

  // Everything but the dropped request is answered.
  ASSERT_EQ(fabric_seen.size(), step_cases().size() - 1);
  EXPECT_EQ(swd_seen, fabric_seen);
  EXPECT_EQ(fallback_seen, fabric_seen);
  // processed, executed, no_kernel, drops_action, multicasts
  EXPECT_EQ(fabric_counts, (std::vector<std::uint64_t>{7, 7, 1, 1, 0}));
  EXPECT_EQ(swd_counts, fabric_counts);
  EXPECT_EQ(fallback_counts, fabric_counts);
}

TEST(SimTransport, PartitionedLinkDropsButNeverBlocks) {
  driver::CompileResult compiled = compile_calc(1);
  const KernelSpec spec = compiled.specs.at(1);
  sim::Fabric fabric(3);
  fabric.add_device(driver::make_device(std::move(compiled), 1));
  HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
  host.register_spec(1, spec);
  fabric.connect(sim::host_ref(1), sim::device_ref(1));
  bool answered = false;
  host.on_receive([&](const Message&, ArgValues&) { answered = true; });

  fabric.set_link_partitioned(sim::host_ref(1), sim::device_ref(1), true);
  ArgValues args = sim::make_args(spec);
  args[0][0] = apps::kCalcAdd;
  args[1][0] = 1;
  args[2][0] = 2;
  host.send(Message(1, 0, 1, 1), args);
  fabric.run();  // terminates: the cut link drops, nothing waits forever
  EXPECT_FALSE(answered);
  EXPECT_EQ(static_cast<std::uint64_t>(fabric.packets_dropped_partition), 1u);

  // Healing the partition restores service on the same fabric.
  fabric.set_link_partitioned(sim::host_ref(1), sim::device_ref(1), false);
  host.send(Message(1, 0, 1, 1), args);
  fabric.run();
  EXPECT_TRUE(answered);
}

}  // namespace
}  // namespace netcl::net
