// A new application written against the NetCL API (not from the paper):
// in-network flow telemetry. The switch keeps per-flow packet counters and
// a heavy-hitter set; probes addressed to the device read back statistics
// without touching any end host. Demonstrates: multiple kernels on one
// device, range-match lookup memory, rand-based sampling, and managed
// counters read over the control plane.
#include <cstdio>

#include "driver/compiler.hpp"
#include "net/sim_transport.hpp"
#include "runtime/host.hpp"

using namespace netcl;

static const char* kDeviceCode = R"(
#define PROBE 7

_managed_ unsigned flow_packets[4096];
_managed_ unsigned flow_bytes[4096];
_net_ unsigned total;

// Classify packet sizes into buckets with a range lookup.
_net_ _lookup_ ncl::rv<unsigned, unsigned> size_class[] = {
  {{0, 127}, 0}, {{128, 511}, 1}, {{512, 1023}, 2}, {{1024, 9000}, 3}
};
_net_ unsigned size_histogram[4];

// Computation 1: per-packet accounting, executed on the data path.
_kernel(1) _at(1) void account(unsigned flow, unsigned bytes, char &sampled) {
  unsigned idx = ncl::crc16(flow) & 4095;
  ncl::atomic_add(&flow_packets[idx], 1);
  ncl::atomic_add(&flow_bytes[idx], bytes);
  ncl::atomic_inc(&total);
  unsigned bucket = 0;
  if (ncl::lookup(size_class, bytes, bucket)) {
    ncl::atomic_add(&size_histogram[bucket & 3], 1);
  }
  // Sample roughly 1/16 of packets toward the collector.
  sampled = ncl::rand<u8>() < 16 ? 1 : 0;
  return ncl::pass();
}

// Computation 2: telemetry probe — the switch answers directly.
_kernel(2) _at(1) void probe(unsigned flow, unsigned &packets) {
  packets = flow_packets[ncl::crc16(flow) & 4095];
  return ncl::reflect();
}
)";

int main() {
  driver::CompileOptions options;
  options.device_id = 1;
  driver::CompileResult compiled = driver::compile_netcl(kDeviceCode, options);
  if (!compiled.ok) {
    std::fprintf(stderr, "compile failed:\n%s\n", compiled.errors.c_str());
    return 1;
  }
  std::printf("telemetry kernels compiled: %d stages, %d P4 LoC\n",
              compiled.allocation.stages_used, compiled.p4.loc());

  const KernelSpec account_spec = compiled.specs.at(1);
  const KernelSpec probe_spec = compiled.specs.at(2);
  sim::Fabric fabric;
  runtime::HostRuntime sender(std::make_unique<net::SimTransport>(fabric, 1), 1);
  runtime::HostRuntime sink(std::make_unique<net::SimTransport>(fabric, 2), 2);
  runtime::HostRuntime collector(std::make_unique<net::SimTransport>(fabric, 3), 3);
  for (runtime::HostRuntime* host : {&sender, &sink, &collector}) {
    host->register_spec(1, account_spec);
    host->register_spec(2, probe_spec);
  }
  fabric.add_device(driver::make_device(std::move(compiled), 1));
  for (std::uint16_t h : {1, 2, 3}) fabric.connect(sim::host_ref(h), sim::device_ref(1));

  // Traffic: 3 flows with different rates and sizes.
  int sampled = 0;
  sink.on_receive([&](const runtime::Message&, sim::ArgValues& args) {
    if (args[2][0] != 0) ++sampled;
  });
  SplitMix64 rng(11);
  const unsigned flows[3] = {101, 202, 303};
  const unsigned rates[3] = {200, 60, 20};
  for (int f = 0; f < 3; ++f) {
    for (unsigned i = 0; i < rates[f]; ++i) {
      sim::ArgValues args = sim::make_args(account_spec);
      args[0][0] = flows[f];
      args[1][0] = 64 + rng.next_below(1400);
      sender.send(runtime::Message(1, 2, 1, 1), args);
    }
  }
  fabric.run();
  std::printf("forwarded %u packets; %d sampled toward the collector\n", 280u, sampled);

  // Probe flow statistics straight from the switch (computation 2).
  collector.on_receive([&](const runtime::Message&, sim::ArgValues& args) {
    std::printf("  probe: flow %llu -> %llu packets (answered by the switch)\n",
                static_cast<unsigned long long>(args[0][0]),
                static_cast<unsigned long long>(args[1][0]));
  });
  for (const unsigned flow : flows) {
    sim::ArgValues args = sim::make_args(probe_spec);
    args[0][0] = flow;
    collector.send(runtime::Message(3, 2, 2, 1), args);
  }
  fabric.run();

  // Control plane: read the size histogram and totals.
  runtime::DeviceConnection connection(fabric, 1);
  std::uint64_t count = 0;
  std::printf("size histogram (via debug/control plane):");
  for (std::uint64_t b = 0; b < 4; ++b) {
    fabric.device(1)->debug_read("size_histogram", {b}, count);
    std::printf(" [%llu]=%llu", static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(count));
  }
  std::uint64_t bytes = 0;
  if (const runtime::Error err = connection.managed_read_e(
          "flow_bytes", bytes, {static_cast<std::uint64_t>(crc16_u64(101, 4) & 4095)});
      !err.ok()) {
    std::fprintf(stderr, "managed_read failed: %s\n", err.to_string().c_str());
    return 1;
  }
  std::printf("\nflow 101 accumulated %llu bytes (ncl::managed_read)\n",
              static_cast<unsigned long long>(bytes));
  return 0;
}
