#include <gtest/gtest.h>

#include <iterator>
#include <span>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/sim_transport.hpp"
#include "runtime/host.hpp"
#include "sim/fabric.hpp"
#include "support/hashes.hpp"

namespace netcl::sim {
namespace {

using driver::CompileOptions;
using driver::CompileResult;
using driver::compile_netcl;
using driver::make_device;
using runtime::DeviceConnection;
using runtime::HostRuntime;
using runtime::Message;

TEST(PacketCodec, RoundTrip) {
  DiagnosticEngine diags;
  SourceBuffer buffer("t", "_kernel(1) void k(char op, unsigned x, uint64_t y, "
                           "uint32_t _spec(3) *v) {}");
  Program program = analyze_netcl(buffer, diags);
  ASSERT_FALSE(diags.has_errors());
  const KernelSpec spec = make_kernel_spec(*program.kernels()[0]);
  ArgValues args = make_args(spec);
  args[0][0] = 7;
  args[1][0] = 0xDEADBEEF;
  args[2][0] = 0x0123456789ABCDEFULL;
  args[3] = {1, 2, 3};
  const auto wire = encode_args(spec, args);
  EXPECT_EQ(static_cast<int>(wire.size()), spec.byte_size());
  const ArgValues decoded = decode_args(spec, wire);
  EXPECT_EQ(decoded, args);
}

TEST(PacketCodec, TruncatesToWidth) {
  DiagnosticEngine diags;
  SourceBuffer buffer("t", "_kernel(1) void k(uint16_t x) {}");
  Program program = analyze_netcl(buffer, diags);
  const KernelSpec spec = make_kernel_spec(*program.kernels()[0]);
  ArgValues args = {{0x12345678}};
  const ArgValues decoded = decode_args(spec, encode_args(spec, args));
  EXPECT_EQ(decoded[0][0], 0x5678u);
}

TEST(PacketCodec, ShortBufferZeroFills) {
  DiagnosticEngine diags;
  SourceBuffer buffer("t", "_kernel(1) void k(unsigned a, unsigned b) {}");
  Program program = analyze_netcl(buffer, diags);
  const KernelSpec spec = make_kernel_spec(*program.kernels()[0]);
  const std::vector<std::uint8_t> wire = {1, 0, 0, 0};  // only a
  const ArgValues decoded = decode_args(spec, wire);
  EXPECT_EQ(decoded[0][0], 1u);
  EXPECT_EQ(decoded[1][0], 0u);
}

// The word-wide codec against the byte loop it replaced: every argument
// width (bool, 1, 2, 4, 8 bytes), scalar and array arguments, values given
// short or not at all, and every truncation length of the encoded buffer.
std::vector<std::uint8_t> byte_loop_encode(const KernelSpec& spec, const ArgValues& values) {
  std::vector<std::uint8_t> out;
  for (std::size_t a = 0; a < spec.args.size(); ++a) {
    const ArgSpec& arg = spec.args[a];
    const int width = arg.type.bits <= 8 ? 1 : arg.type.bits / 8;
    for (int e = 0; e < arg.count; ++e) {
      const auto element = static_cast<std::size_t>(e);
      const std::uint64_t value = a < values.size() && element < values[a].size()
                                      ? arg.type.truncate(values[a][element])
                                      : 0;
      for (int b = 0; b < width; ++b) out.push_back(static_cast<std::uint8_t>(value >> (8 * b)));
    }
  }
  return out;
}

ArgValues byte_loop_decode(const KernelSpec& spec, std::span<const std::uint8_t> data) {
  ArgValues values;
  std::size_t pos = 0;
  for (const ArgSpec& arg : spec.args) {
    const int width = arg.type.bits <= 8 ? 1 : arg.type.bits / 8;
    std::vector<std::uint64_t>& elements = values.emplace_back();
    for (int e = 0; e < arg.count; ++e) {
      std::uint64_t value = 0;
      for (int b = 0; b < width; ++b, ++pos) {
        if (pos < data.size()) value |= static_cast<std::uint64_t>(data[pos]) << (8 * b);
      }
      elements.push_back(value);
    }
  }
  return values;
}

TEST(PacketCodec, WordCodecMatchesByteLoopAtEveryTruncation) {
  const ScalarType types[] = {kBool, kU8, kI16, kU32, kI32, kU64};
  const int counts[] = {1, 3, 8};
  SplitMix64 rng(0xC0DEC);
  for (int trial = 0; trial < 60; ++trial) {
    KernelSpec spec;
    const auto args = 1 + rng.next_below(5);
    for (std::uint64_t a = 0; a < args; ++a) {
      ArgSpec arg;
      arg.type = types[rng.next_below(std::size(types))];
      arg.count = counts[rng.next_below(std::size(counts))];
      spec.args.push_back(arg);
    }
    // Full-width values (truncated on encode), some arguments given short.
    ArgValues values = make_args(spec);
    for (std::vector<std::uint64_t>& elements : values) {
      for (std::uint64_t& value : elements) value = rng.next();
      if (rng.next_below(4) == 0) elements.resize(rng.next_below(elements.size() + 1));
    }
    if (rng.next_below(8) == 0) values.pop_back();

    std::vector<std::uint8_t> wire = {0xEE, 0xEE};  // reused storage is replaced
    encode_args_into(spec, values, wire);
    const std::vector<std::uint8_t> want_wire = byte_loop_encode(spec, values);
    ASSERT_EQ(wire, want_wire) << "trial " << trial << ": " << spec.to_string();
    ASSERT_EQ(static_cast<int>(wire.size()), spec.byte_size());

    ArgValues decoded = make_args(spec);
    for (std::size_t length = 0; length <= wire.size(); ++length) {
      const std::span<const std::uint8_t> prefix(wire.data(), length);
      decode_args_into(spec, prefix, decoded);
      ASSERT_EQ(decoded, byte_loop_decode(spec, prefix))
          << "trial " << trial << ", " << length << " of " << wire.size() << " bytes";
    }
  }
}

// --- device execution ---------------------------------------------------------

CompileResult compile_ok(const std::string& source, CompileOptions options = {}) {
  CompileResult result = compile_netcl(source, options);
  EXPECT_TRUE(result.ok) << result.errors;
  return result;
}

TEST(Device, ExecuteSimpleKernel) {
  auto compiled = compile_ok("_kernel(1) void k(unsigned x, unsigned &y) { y = x * 2 + 1; }");
  const KernelSpec spec = compiled.specs.at(1);
  auto device = make_device(std::move(compiled), 1);
  ArgValues args = make_args(spec);
  args[0][0] = 20;
  const ComputeOutcome outcome = device->execute(1, args, {});
  EXPECT_TRUE(outcome.executed);
  EXPECT_EQ(outcome.action, ActionKind::Pass);
  EXPECT_EQ(args[1][0], 41u);
}

TEST(Device, BranchesAndActions) {
  auto compiled = compile_ok(R"(
    _kernel(1) void k(unsigned x) {
      if (x > 10) return ncl::reflect();
      if (x > 5) return ncl::send_to_host(9);
      return ncl::drop();
    }
  )");
  auto device = make_device(std::move(compiled), 1);
  ArgValues args = {{20}};
  EXPECT_EQ(device->execute(1, args, {}).action, ActionKind::Reflect);
  args = {{7}};
  ComputeOutcome outcome = device->execute(1, args, {});
  EXPECT_EQ(outcome.action, ActionKind::SendToHost);
  EXPECT_EQ(outcome.target, 9);
  args = {{1}};
  EXPECT_EQ(device->execute(1, args, {}).action, ActionKind::Drop);
}

TEST(Device, StatefulCounter) {
  auto compiled = compile_ok(R"(
    _net_ unsigned counters[16];
    _kernel(1) void k(unsigned idx, unsigned &count) {
      count = ncl::atomic_add_new(&counters[idx & 15], 1);
    }
  )");
  auto device = make_device(std::move(compiled), 1);
  for (unsigned i = 1; i <= 5; ++i) {
    ArgValues args = {{3}, {0}};
    device->execute(1, args, {});
    EXPECT_EQ(args[1][0], i);
  }
  ArgValues args = {{4}, {0}};
  device->execute(1, args, {});
  EXPECT_EQ(args[1][0], 1u);  // distinct slot
  std::uint64_t value = 0;
  EXPECT_TRUE(device->debug_read("counters", {3}, value));
  EXPECT_EQ(value, 5u);
}

TEST(Device, ConditionalAtomicSemantics) {
  auto compiled = compile_ok(R"(
    _net_ unsigned c;
    _kernel(1) void k(unsigned go, unsigned &out) {
      out = ncl::atomic_cond_add_new(&c, go, 10);
    }
  )");
  auto device = make_device(std::move(compiled), 1);
  ArgValues args = {{1}, {0}};
  device->execute(1, args, {});
  EXPECT_EQ(args[1][0], 10u);  // performed: new value
  args = {{0}, {0}};
  device->execute(1, args, {});
  EXPECT_EQ(args[1][0], 10u);  // not performed: old (unchanged) value
  args = {{1}, {0}};
  device->execute(1, args, {});
  EXPECT_EQ(args[1][0], 20u);
}

TEST(Device, LookupAndManagedEntries) {
  auto compiled = compile_ok(R"(
    _managed_ _lookup_ ncl::kv<unsigned, unsigned> cache[16];
    _kernel(1) void k(unsigned key, unsigned &v, char &hit) {
      hit = ncl::lookup(cache, key, v);
      return hit ? ncl::reflect() : ncl::pass();
    }
  )");
  auto device = make_device(std::move(compiled), 1);
  ArgValues args = {{5}, {0}, {0}};
  EXPECT_EQ(device->execute(1, args, {}).action, ActionKind::Pass);
  EXPECT_EQ(args[2][0], 0u);

  // Control-plane insert, as ncl::managed_* would do.
  EXPECT_TRUE(device->lookup_insert("cache", 5, 5, 1234));
  args = {{5}, {0}, {0}};
  EXPECT_EQ(device->execute(1, args, {}).action, ActionKind::Reflect);
  EXPECT_EQ(args[1][0], 1234u);
  EXPECT_EQ(args[2][0], 1u);

  EXPECT_TRUE(device->lookup_remove("cache", 5));
  args = {{5}, {0}, {0}};
  EXPECT_EQ(device->execute(1, args, {}).action, ActionKind::Pass);
}

TEST(Device, NonManagedLookupImmutable) {
  auto compiled = compile_ok(R"(
    _net_ _lookup_ ncl::kv<unsigned, unsigned> t[] = {{1,10}};
    _kernel(1) void k(unsigned key, unsigned &v, char &hit) { hit = ncl::lookup(t, key, v); }
  )");
  auto device = make_device(std::move(compiled), 1);
  EXPECT_FALSE(device->lookup_insert("t", 2, 2, 20));
}

TEST(Device, ManagedMemoryReadWrite) {
  auto compiled = compile_ok(R"(
    _managed_ unsigned thresh;
    _kernel(1) void k(unsigned x, char &over) { over = x > thresh ? 1 : 0; }
  )");
  auto device = make_device(std::move(compiled), 1);
  ArgValues args = {{100}, {0}};
  device->execute(1, args, {});
  EXPECT_EQ(args[1][0], 1u);  // thresh starts at 0

  EXPECT_TRUE(device->managed_write("thresh", {}, 500));
  std::uint64_t value = 0;
  EXPECT_TRUE(device->managed_read("thresh", {}, value));
  EXPECT_EQ(value, 500u);
  args = {{100}, {0}};
  device->execute(1, args, {});
  EXPECT_EQ(args[1][0], 0u);
}

TEST(Device, NetMemoryNotManagedAccessible) {
  auto compiled = compile_ok(R"(
    _net_ unsigned c;
    _kernel(1) void k(unsigned x) { ncl::atomic_add(&c, x); }
  )");
  auto device = make_device(std::move(compiled), 1);
  EXPECT_FALSE(device->managed_write("c", {}, 1));
  std::uint64_t value = 0;
  EXPECT_FALSE(device->managed_read("c", {}, value));
  EXPECT_TRUE(device->debug_read("c", {}, value));
}

TEST(Device, PartitionedArrayControlPlaneAccess) {
  auto compiled = compile_ok(R"(
    _managed_ unsigned cms[3][256];
    _kernel(1) void k(unsigned x, unsigned &a) {
      a = ncl::atomic_add_new(&cms[0][x], 1);
      ncl::atomic_add(&cms[1][x], 1);
      ncl::atomic_add(&cms[2][x], 1);
    }
  )");
  auto device = make_device(std::move(compiled), 1);
  ArgValues args = {{42}, {0}};
  device->execute(1, args, {});
  // The original 2D name resolves through the partition rename.
  std::uint64_t value = 0;
  ASSERT_TRUE(device->managed_read("cms", {1, 42}, value));
  EXPECT_EQ(value, 1u);
  EXPECT_TRUE(device->managed_write("cms", {2, 42}, 99));
  ASSERT_TRUE(device->managed_read("cms", {2, 42}, value));
  EXPECT_EQ(value, 99u);
}

TEST(Device, HashesMatchHostPrediction) {
  auto compiled = compile_ok(R"(
    _kernel(1) void k(unsigned x, unsigned &h16, unsigned &h32) {
      h16 = ncl::crc16(x);
      h32 = ncl::crc32(x);
    }
  )");
  auto device = make_device(std::move(compiled), 1);
  ArgValues args = {{0xCAFE}, {0}, {0}};
  device->execute(1, args, {});
  EXPECT_EQ(args[1][0], crc16_u64(0xCAFE, 4));
  EXPECT_EQ(args[2][0], crc32_u64(0xCAFE, 4));
}

// --- fabric -----------------------------------------------------------------

TEST(FabricTest, HostToHostThroughPlainSwitch) {
  Fabric fabric;
  fabric.add_host(1);
  fabric.add_host(2);
  fabric.add_forwarding_device(1);
  fabric.connect(host_ref(1), device_ref(1));
  fabric.connect(host_ref(2), device_ref(1));

  int received = 0;
  fabric.set_host_handler(2, [&](Fabric&, std::uint16_t, const Packet& packet) {
    ++received;
    EXPECT_EQ(packet.netcl.src, 1);
  });
  Packet packet;
  packet.has_netcl = true;
  packet.netcl.src = 1;
  packet.netcl.dst = 2;
  fabric.send_from_host(1, packet);
  fabric.run();
  EXPECT_EQ(received, 1);
  EXPECT_GT(fabric.now(), 0.0);
}

TEST(FabricTest, MultiHopRouting) {
  Fabric fabric;
  fabric.add_host(1);
  fabric.add_host(2);
  fabric.add_forwarding_device(1);
  fabric.add_forwarding_device(2);
  fabric.add_forwarding_device(3);
  fabric.connect(host_ref(1), device_ref(1));
  fabric.connect(device_ref(1), device_ref(2));
  fabric.connect(device_ref(2), device_ref(3));
  fabric.connect(device_ref(3), host_ref(2));

  int received = 0;
  fabric.set_host_handler(2, [&](Fabric&, std::uint16_t, const Packet&) { ++received; });
  Packet packet;
  packet.has_netcl = true;
  packet.netcl.src = 1;
  packet.netcl.dst = 2;
  fabric.send_from_host(1, packet);
  fabric.run();
  EXPECT_EQ(received, 1);
}

TEST(FabricTest, LossyLinkDropsSome) {
  Fabric fabric(7);
  fabric.add_host(1);
  fabric.add_host(2);
  LinkConfig lossy;
  lossy.loss_probability = 0.5;
  fabric.connect(host_ref(1), host_ref(2), lossy);
  int received = 0;
  fabric.set_host_handler(2, [&](Fabric&, std::uint16_t, const Packet&) { ++received; });
  for (int i = 0; i < 200; ++i) {
    Packet packet;
    packet.has_netcl = true;
    packet.netcl.src = 1;
    packet.netcl.dst = 2;
    fabric.send_from_host(1, packet);
  }
  fabric.run();
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
  EXPECT_EQ(received + static_cast<int>(fabric.packets_dropped_loss), 200);
}

TEST(FabricTest, DuplicatingLinkDeliversCopies) {
  Fabric fabric(7);
  fabric.add_host(1);
  fabric.add_host(2);
  LinkConfig flaky;
  flaky.duplicate_probability = 1.0;
  fabric.connect(host_ref(1), host_ref(2), flaky);
  int received = 0;
  fabric.set_host_handler(2, [&](Fabric&, std::uint16_t, const Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    Packet packet;
    packet.has_netcl = true;
    packet.netcl.src = 1;
    packet.netcl.dst = 2;
    fabric.send_from_host(1, packet);
  }
  fabric.run();
  EXPECT_EQ(received, 20);
  EXPECT_EQ(fabric.packets_duplicated, 10u);
}

TEST(FabricTest, ReorderingLinkSwapsArrivals) {
  Fabric fabric(1234);
  fabric.add_host(1);
  fabric.add_host(2);
  LinkConfig jittery;
  jittery.reorder_probability = 0.5;
  // Jitter far above the back-to-back spacing, so delayed packets are
  // overtaken by later sends.
  jittery.reorder_jitter_ns = 1e6;
  fabric.connect(host_ref(1), host_ref(2), jittery);
  std::vector<int> order;
  fabric.set_host_handler(2, [&](Fabric&, std::uint16_t, const Packet& packet) {
    order.push_back(packet.payload[0]);
  });
  for (int i = 0; i < 50; ++i) {
    Packet packet;
    packet.has_netcl = true;
    packet.netcl.src = 1;
    packet.netcl.dst = 2;
    packet.payload = {static_cast<std::uint8_t>(i)};
    packet.netcl.len = 1;
    fabric.send_from_host(1, packet);
  }
  fabric.run();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_GT(fabric.packets_reordered, 0u);
  int inversions = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) ++inversions;
  }
  EXPECT_GT(inversions, 0);
}

TEST(FabricTest, BandwidthSerializesPackets) {
  // Two equal packets over a slow link: the second arrives one
  // serialization later.
  Fabric fabric;
  fabric.add_host(1);
  fabric.add_host(2);
  LinkConfig slow;
  slow.gbps = 1.0;  // 1 bit per ns
  slow.latency_ns = 0.0;
  fabric.connect(host_ref(1), host_ref(2), slow);
  std::vector<double> arrivals;
  fabric.set_host_handler(2, [&](Fabric& f, std::uint16_t, const Packet&) {
    arrivals.push_back(f.now());
  });
  for (int i = 0; i < 2; ++i) {
    Packet packet;
    packet.has_netcl = true;
    packet.netcl.src = 1;
    packet.netcl.dst = 2;
    fabric.send_from_host(1, packet);
  }
  fabric.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const double wire_ns = (14 + 20 + 8 + 12) * 8.0;  // header-only packet at 1 Gbps
  EXPECT_DOUBLE_EQ(arrivals[0], wire_ns);
  EXPECT_DOUBLE_EQ(arrivals[1], 2 * wire_ns);
}

// --- end-to-end: the paper's Figure 4/6 cache flow ----------------------------

TEST(EndToEnd, InNetworkCacheHitAndMiss) {
  auto compiled = compile_ok(R"(
#define GET_REQ 1
_net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42},{2,42},{3,42},{4,42}};
_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v, char &hit) {
  if (op == GET_REQ) {
    hit = ncl::lookup(cache, k, v);
    if (hit) return ncl::reflect();
  }
}
)");
  const KernelSpec spec = compiled.specs.at(1);

  Fabric fabric;
  HostRuntime client(std::make_unique<net::SimTransport>(fabric, 1), 1);
  HostRuntime server(std::make_unique<net::SimTransport>(fabric, 2), 2);
  client.register_spec(1, spec);
  server.register_spec(1, spec);
  fabric.add_device(make_device(std::move(compiled), 1));
  fabric.connect(host_ref(1), device_ref(1));
  fabric.connect(host_ref(2), device_ref(1));

  int client_got = 0;
  int server_got = 0;
  std::uint64_t client_value = 0;
  client.on_receive([&](const Message&, ArgValues& args) {
    ++client_got;
    client_value = args[2][0];
  });
  server.on_receive([&](const Message&, ArgValues& args) {
    ++server_got;
    EXPECT_EQ(args[3][0], 0u);  // miss reached the server
  });

  // Hit: key 2 is cached; the switch reflects the answer.
  ArgValues args = make_args(spec);
  args[0][0] = 1;  // GET
  args[1][0] = 2;  // key
  client.send(Message(1, 2, 1, 1), args);
  fabric.run();
  EXPECT_EQ(client_got, 1);
  EXPECT_EQ(server_got, 0);
  EXPECT_EQ(client_value, 42u);

  // Miss: key 9 goes through to the KVS server.
  args = make_args(spec);
  args[0][0] = 1;
  args[1][0] = 9;
  client.send(Message(1, 2, 1, 1), args);
  fabric.run();
  EXPECT_EQ(client_got, 1);
  EXPECT_EQ(server_got, 1);
}

TEST(EndToEnd, MulticastToGroup) {
  auto compiled = compile_ok(R"(
    _kernel(1) void k(unsigned x) { return ncl::multicast(42); }
  )");
  const KernelSpec spec = compiled.specs.at(1);
  Fabric fabric;
  HostRuntime h1(std::make_unique<net::SimTransport>(fabric, 1), 1);
  HostRuntime h2(std::make_unique<net::SimTransport>(fabric, 2), 2);
  HostRuntime h3(std::make_unique<net::SimTransport>(fabric, 3), 3);
  h1.register_spec(1, spec);
  h2.register_spec(1, spec);
  h3.register_spec(1, spec);
  fabric.add_device(make_device(std::move(compiled), 1));
  for (std::uint16_t h : {1, 2, 3}) fabric.connect(host_ref(h), device_ref(1));
  fabric.set_multicast_group(1, 42, {host_ref(1), host_ref(2), host_ref(3)});

  int deliveries = 0;
  for (HostRuntime* host : {&h1, &h2, &h3}) {
    host->on_receive([&](const Message&, ArgValues&) { ++deliveries; });
  }
  h1.send(Message(1, 2, 1, 1), make_args(spec));
  fabric.run();
  EXPECT_EQ(deliveries, 3);
}

TEST(EndToEnd, SendToDeviceChain) {
  // Computation 1 has kernels on devices 1 and 2: device 1 forwards to
  // device 2, device 2 reflects to the source (multi-device, §IV).
  auto compiled1 = compile_ok(R"(
    _kernel(1) _at(1) void hop(unsigned &mark) { mark = 11; return ncl::send_to_device(2); }
    _kernel(1) _at(2) void done(unsigned &mark) { mark = mark + 100; return ncl::reflect_long(); }
  )",
                              [] {
                                CompileOptions o;
                                o.device_id = 1;
                                return o;
                              }());
  auto compiled2 = compile_ok(R"(
    _kernel(1) _at(1) void hop(unsigned &mark) { mark = 11; return ncl::send_to_device(2); }
    _kernel(1) _at(2) void done(unsigned &mark) { mark = mark + 100; return ncl::reflect_long(); }
  )",
                              [] {
                                CompileOptions o;
                                o.device_id = 2;
                                return o;
                              }());
  const KernelSpec spec = compiled1.specs.at(1);

  Fabric fabric;
  HostRuntime client(std::make_unique<net::SimTransport>(fabric, 1), 1);
  HostRuntime server(std::make_unique<net::SimTransport>(fabric, 4), 4);
  client.register_spec(1, spec);
  server.register_spec(1, spec);
  fabric.add_device(make_device(std::move(compiled1), 1));
  fabric.add_device(make_device(std::move(compiled2), 2));
  fabric.connect(host_ref(1), device_ref(1));
  fabric.connect(device_ref(1), device_ref(2));
  fabric.connect(host_ref(4), device_ref(2));

  std::uint64_t mark = 0;
  int client_got = 0;
  client.on_receive([&](const Message&, ArgValues& args) {
    ++client_got;
    mark = args[0][0];
  });
  client.send(Message(1, 4, 1, 1), make_args(spec));
  fabric.run();
  EXPECT_EQ(client_got, 1);
  EXPECT_EQ(mark, 111u);  // both kernels ran, in order
}

TEST(EndToEnd, ShortPayloadArrivesWithReencodedLength) {
  // A CALC request carrying only `op` and `a`: the device zero-fills the
  // rest, computes, and re-encodes the full argument layout. The length
  // field must follow the payload it now describes.
  const apps::AppSource app = apps::calc_source();
  CompileOptions options;
  options.defines = app.defines;
  auto compiled = compile_ok(app.source, options);
  const KernelSpec spec = compiled.specs.at(1);
  Fabric fabric;
  fabric.add_device(make_device(std::move(compiled), 1));
  fabric.connect(host_ref(1), device_ref(1));
  std::vector<Packet> arrived;
  fabric.set_host_handler(1, [&](Fabric&, std::uint16_t, const Packet& packet) {
    arrived.push_back(packet);
  });

  Packet packet;
  packet.has_netcl = true;
  packet.netcl.src = 1;
  packet.netcl.to = 1;
  packet.netcl.comp = 1;
  packet.payload = {apps::kCalcAdd, 7, 0, 0, 0};
  packet.netcl.len = static_cast<std::uint16_t>(packet.payload.size());
  fabric.send_from_host(1, packet);
  fabric.run();

  ASSERT_EQ(arrived.size(), 1u);
  EXPECT_EQ(arrived[0].payload.size(), static_cast<std::size_t>(spec.byte_size()));
  EXPECT_EQ(arrived[0].netcl.len, arrived[0].payload.size());
  EXPECT_EQ(decode_args(spec, arrived[0].payload)[3][0], 7u);  // result = 7 + 0
}

}  // namespace
}  // namespace netcl::sim
