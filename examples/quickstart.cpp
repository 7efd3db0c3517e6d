// Quickstart: the paper's running example (Figures 4 and 6) end to end.
//
// A key-value store server sits behind a programmable switch. The NetCL
// kernel caches hot keys in the switch: GET requests for cached keys are
// answered by the network itself (reflect), misses continue to the server.
//
// This walks the full NetCL workflow: write device code, compile it for a
// device (ncc), deploy onto a simulated switch, wire a topology, and talk
// to it with the host runtime's message API.
#include <cstdio>

#include "driver/compiler.hpp"
#include "net/sim_transport.hpp"
#include "runtime/host.hpp"

using namespace netcl;

// Device code: a read-only in-network cache with a count-min sketch for
// hot-key detection (paper Fig. 4, verbatim modulo the GET_REQ define).
static const char* kDeviceCode = R"(
#define CMS_HASHES 3
#define THRESH 128
#define GET_REQ 1

_managed_ unsigned cms[CMS_HASHES][65536];

_net_ void sketch(unsigned k, unsigned &hot) {
  unsigned c[CMS_HASHES];
  c[0] = ncl::atomic_sadd_new(&cms[0][ncl::xor16(k)], 1);
  c[1] = ncl::atomic_sadd_new(&cms[1][ncl::crc32<16>(k)], 1);
  c[2] = ncl::atomic_sadd_new(&cms[2][ncl::crc16(k)], 1);
  for (auto i = 1; i < CMS_HASHES; ++i)
    if (c[i] < c[0]) c[0] = c[i];
  hot = c[0] > THRESH ? c[0] : 0;
}

_net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42}, {2,42},
                                                      {3,42}, {4,42}};

_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v,
                             char &hit, unsigned &hot) {
  if (op == GET_REQ) {
    hit = ncl::lookup(cache, k, v);
    return hit ? ncl::reflect() : sketch(k, hot);
  }
}
)";

int main() {
  // 1. Compile for device 1 (this is what `ncc --device 1` does).
  driver::CompileOptions options;
  options.device_id = 1;
  driver::CompileResult compiled = driver::compile_netcl(kDeviceCode, options);
  if (!compiled.ok) {
    std::fprintf(stderr, "compile failed:\n%s\n", compiled.errors.c_str());
    return 1;
  }
  std::printf("compiled: %d NetCL LoC -> %d P4 LoC, %d pipeline stages\n", compiled.netcl_loc,
              compiled.p4.loc(), compiled.allocation.stages_used);

  // 2. Build the topology: client (host 1) and KVS server (host 2) attached
  //    to the switch (device 1).
  const KernelSpec spec = compiled.specs.at(1);
  sim::Fabric fabric;
  runtime::HostRuntime client(std::make_unique<net::SimTransport>(fabric, 1), 1);
  runtime::HostRuntime server(std::make_unique<net::SimTransport>(fabric, 2), 2);
  client.register_spec(1, spec);
  server.register_spec(1, spec);
  fabric.add_device(driver::make_device(std::move(compiled), 1));
  fabric.connect(sim::host_ref(1), sim::device_ref(1));
  fabric.connect(sim::host_ref(2), sim::device_ref(1));

  // 3. Server: answers cache misses.
  server.on_receive([&](const runtime::Message& message, sim::ArgValues& args) {
    std::printf("  [server] miss for key %llu (hot=%llu), answering\n",
                static_cast<unsigned long long>(args[1][0]),
                static_cast<unsigned long long>(args[4][0]));
    sim::ArgValues reply = args;
    reply[2][0] = 1000 + args[1][0];  // the authoritative value
    server.send(runtime::Message(2, message.src, 1, 0), reply);
  });

  // 4. Client: query a cached key (2) and an uncached key (9).
  client.on_receive([&](const runtime::Message&, sim::ArgValues& args) {
    std::printf("  [client] key %llu -> value %llu (%s), rtt %.0f ns\n",
                static_cast<unsigned long long>(args[1][0]),
                static_cast<unsigned long long>(args[2][0]),
                args[3][0] != 0 ? "cache hit" : "server", fabric.now());
  });

  for (const unsigned key : {2u, 9u}) {
    sim::ArgValues args = sim::make_args(spec);
    args[0][0] = 1;  // GET_REQ
    args[1][0] = key;
    std::printf("[client] GET %u through device 1\n", key);
    client.send(runtime::Message(1, 2, 1, 1), args);
    fabric.run();
  }

  // 5. The cms threshold is _managed_ memory: read a counter from the host
  //    side over the control plane.
  runtime::DeviceConnection connection(fabric, 1);
  std::uint64_t count = 0;
  if (const runtime::Error err =
          connection.managed_read_e("cms", count, {0, xor16_u64(9, 4)});
      !err.ok()) {
    std::fprintf(stderr, "[host] managed_read failed: %s\n", err.to_string().c_str());
    return 1;
  }
  std::printf("[host] cms[0][...] for the missed key is now %llu (via ncl::managed_read)\n",
              static_cast<unsigned long long>(count));
  return 0;
}
