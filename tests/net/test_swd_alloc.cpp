// SwdServer::poll_once makes no heap allocation per packet once warm: the
// ingress ring, the device step, the egress queue and the multicast
// fan-out all reuse their storage.
//
// A binary of its own: its counting operator new replaces the global one
// for every test in the executable. The hosts are plain sockets on this
// thread. They send a round of requests first, then only the daemon's
// poll_once turns are counted, then the hosts drain their answers.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/control.hpp"
#include "net/swd_server.hpp"
#include "net/wire.hpp"
#include "runtime/message.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace netcl::net {
namespace {

using runtime::Message;
using sim::ArgValues;
using Bytes = std::vector<std::uint8_t>;

/// A host: a non-blocking UDP socket on loopback that sends wire bytes to
/// the daemon and throws its answers away.
class HostSocket {
 public:
  explicit HostSocket(std::uint16_t daemon_port) : daemon_(loopback(daemon_port)) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    const sockaddr_in local = loopback(0);
    if (fd_ >= 0 && ::bind(fd_, reinterpret_cast<const sockaddr*>(&local), sizeof(local)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~HostSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  HostSocket(const HostSocket&) = delete;
  HostSocket& operator=(const HostSocket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void send(const Bytes& wire) const {
    ::sendto(fd_, wire.data(), wire.size(), 0, reinterpret_cast<const sockaddr*>(&daemon_),
             sizeof(daemon_));
  }
  void drain() {
    std::uint8_t buffer[2048];
    while (::recv(fd_, buffer, sizeof(buffer), 0) >= 0) ++received_;
  }
  /// Answers drained so far.
  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  static sockaddr_in loopback(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return addr;
  }

  int fd_ = -1;
  sockaddr_in daemon_;
  std::uint64_t received_ = 0;
};

/// One host's share of a round: the wire bytes it sends.
struct Sender {
  HostSocket* host;
  std::vector<Bytes> wires;
};

struct Round {
  std::vector<Sender> senders;
  /// Datagrams the daemon sends for the round.
  std::uint64_t answers = 0;
};

/// Sends the round, then polls the daemon until it has sent every answer;
/// returns the allocations made inside poll_once.
std::uint64_t serve(SwdServer& server, const Round& round) {
  for (const Sender& sender : round.senders) {
    for (const Bytes& wire : sender.wires) sender.host->send(wire);
  }
  const std::uint64_t target = server.packets_sent.value() + round.answers;
  std::uint64_t allocations = 0;
  for (int turn = 0; turn < 1000 && server.packets_sent.value() < target; ++turn) {
    const std::uint64_t before = g_allocations.load();
    server.poll_once(10);
    allocations += g_allocations.load() - before;
  }
  EXPECT_EQ(server.packets_sent.value(), target) << "the daemon did not answer the round";
  for (const Sender& sender : round.senders) sender.host->drain();
  return allocations;
}

constexpr int kWarmRounds = 4;
constexpr int kCountedRounds = 16;

/// Serves kWarmRounds rounds uncounted, then kCountedRounds, cycling
/// through `rounds`, and returns the allocations of the counted ones.
std::uint64_t allocations_once_warm(SwdServer& server, std::span<const Round> rounds) {
  for (int i = 0; i < kWarmRounds; ++i) (void)serve(server, rounds[i % rounds.size()]);
  std::uint64_t allocations = 0;
  for (int i = 0; i < kCountedRounds; ++i) {
    allocations += serve(server, rounds[i % rounds.size()]);
  }
  return allocations;
}

driver::CompileResult compile(const apps::AppSource& app) {
  driver::CompileOptions options;
  options.device_id = 1;
  options.defines = app.defines;
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  return compiled;
}

Bytes wire(const Message& message, const KernelSpec& spec, const ArgValues& args) {
  return serialize_packet(runtime::pack(message, spec, args));
}

TEST(SwdAllocations, CalcRequestsNoneOnceWarm) {
  driver::CompileResult compiled = compile(apps::calc_source());
  const KernelSpec spec = compiled.specs.at(1);
  SwdServer server(driver::make_device(std::move(compiled), 1), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  HostSocket host(server.udp_port());
  ASSERT_TRUE(host.valid());

  // 32 requests outstanding, all answered to their sender.
  Round round;
  round.senders.push_back({&host, {}});
  for (std::uint64_t i = 0; i < 32; ++i) {
    ArgValues args = sim::make_args(spec);
    args[0][0] = 1 + i % 5;  // cycle through the five calc opcodes
    args[1][0] = 1000 + i;
    args[2][0] = 7 * i;
    round.senders[0].wires.push_back(wire(Message(1, 0, 1, 1), spec, args));
  }
  round.answers = 32;
  const std::uint64_t allocations = allocations_once_warm(server, {&round, 1});
  EXPECT_EQ(allocations, 0u) << allocations << " allocations in "
                             << kCountedRounds * round.answers << " packets";
}

TEST(SwdAllocations, CacheHitsMissesAndPassThroughNoneOnceWarm) {
  driver::CompileResult compiled = compile(apps::cache_source(128, 16));
  const KernelSpec spec = compiled.specs.at(1);
  SwdServer server(driver::make_device(std::move(compiled), 1), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  // Keys below 8 are cached lines; the hot-key report is off, so every
  // GET makes exactly one answer.
  sim::SwitchDevice& device = server.device();
  ASSERT_TRUE(device.managed_write("thresh", {}, 0xFFFFFFFFu));
  for (std::uint64_t key = 0; key < 8; ++key) {
    ASSERT_TRUE(device.lookup_insert("KeyIndex", key, key, key));
    ASSERT_TRUE(device.lookup_insert("WordMask", key, key, 0xFFFF));
    ASSERT_TRUE(device.managed_write("Valid", {key}, 1));
  }
  HostSocket client(server.udp_port());
  HostSocket storage(server.udp_port());
  ASSERT_TRUE(client.valid() && storage.valid());

  // The client's GETs: half hit (answered by the daemon), half miss
  // (forwarded to the storage host). The storage host's responses carry
  // to = 0, so they cross the daemon a second time as pass-through.
  Round round;
  round.senders.push_back({&storage, {}});
  round.senders.push_back({&client, {}});
  for (std::uint64_t i = 0; i < 32; ++i) {
    ArgValues args = sim::make_args(spec);
    args[0][0] = apps::kGetReq;
    args[1][0] = i % 2 == 0 ? i % 8 : 1000 + i;
    round.senders[1].wires.push_back(wire(Message(1, 2, 1, 1), spec, args));
    args[0][0] = apps::kCacheResponse;
    round.senders[0].wires.push_back(wire(Message(2, 1, 1, 0), spec, args));
  }
  round.answers = 64;
  const std::uint64_t allocations = allocations_once_warm(server, {&round, 1});
  EXPECT_EQ(allocations, 0u) << allocations << " allocations in "
                             << kCountedRounds * round.answers << " packets";
  // Every even GET hit and was answered by the daemon itself.
  constexpr std::uint64_t kRounds = kWarmRounds + kCountedRounds;
  EXPECT_EQ(storage.received(), 16 * kRounds);
  EXPECT_EQ(client.received(), (16 + 32) * kRounds);
}

TEST(SwdAllocations, AggMulticastFanOutNoneOnceWarm) {
  constexpr int kWorkers = 4;
  constexpr int kSlots = 8;
  constexpr int kSlotSize = 32;
  driver::CompileResult compiled = compile(apps::agg_source(kWorkers, 64, kSlotSize));
  const KernelSpec spec = compiled.specs.at(1);
  SwdServer server(driver::make_device(std::move(compiled), 1), SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::vector<std::unique_ptr<HostSocket>> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(std::make_unique<HostSocket>(server.udp_port()));
    ASSERT_TRUE(workers.back()->valid());
  }
  ByteWriter group;
  group.u64(1);  // client id
  group.u64(1);  // request id
  group.u8(static_cast<std::uint8_t>(ControlOp::kSetMulticastGroup));
  group.u16(static_cast<std::uint16_t>(apps::kAggMulticastGroup));
  group.u16(kWorkers);
  for (std::uint16_t member = 1; member <= kWorkers; ++member) group.u16(member);
  ASSERT_EQ(server.handle_control(group.bytes()).at(0), kControlOk);

  // Every worker contributes to kSlots slots; each slot's last
  // contribution completes it and fans the aggregate out to all four
  // workers. Slots are reused with the version bit alternating per round,
  // as SwitchML chains them, so there is one round of packets per version.
  auto make_round = [&](int version) {
    Round round;
    for (int w = 0; w < kWorkers; ++w) {
      round.senders.push_back({workers[static_cast<std::size_t>(w)].get(), {}});
      for (int slot = 0; slot < kSlots; ++slot) {
        ArgValues args = sim::make_args(spec);
        args[0][0] = static_cast<std::uint64_t>(version);
        args[1][0] = static_cast<std::uint64_t>(slot);
        args[2][0] = static_cast<std::uint64_t>(version * 64 + slot);
        args[3][0] = 1ULL << w;
        args[4][0] = static_cast<std::uint64_t>(w);
        for (int i = 0; i < kSlotSize; ++i) {
          args[5][static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(slot * 100 + i + w);
        }
        round.senders.back().wires.push_back(
            wire(Message(static_cast<std::uint16_t>(w + 1), 0, 1, 1), spec, args));
      }
    }
    round.answers = kSlots * kWorkers;
    return round;
  };
  const Round rounds[] = {make_round(0), make_round(1)};
  const std::uint64_t allocations = allocations_once_warm(server, rounds);
  EXPECT_EQ(allocations, 0u) << allocations << " allocations in "
                             << kCountedRounds * kSlots * kWorkers << " multicast datagrams";
  EXPECT_EQ(server.device().stats.multicasts,
            static_cast<std::uint64_t>((kWarmRounds + kCountedRounds) * kSlots));
}

}  // namespace
}  // namespace netcl::net
