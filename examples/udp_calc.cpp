// CALC over real loopback UDP: the same kernel, host code, and packets as
// the simulated run, but carried by UdpTransport and served by the
// netcl-swd daemon engine instead of the discrete-event fabric.
//
//   udp_calc [--ops N] [--connect HOST:PORT] [--control-port P]
//            [--timeout-ms T] [--telemetry] [--trace-out FILE]
//
// With no --connect, an SwdServer runs in-process on a background thread
// (ephemeral ports). With --connect, the data plane points at an already
// running daemon, e.g.:
//
//   netcl-swd examples/kernels/calc.ncl --port 9700 --control-port 9701 &
//   udp_calc --connect 127.0.0.1:9700 --control-port 9701
//
// --timeout-ms (default 2000) bounds the wait for each operation's
// response; an unreachable daemon therefore fails fast with a clear
// diagnostic and exit code 1 instead of hanging.
//
// --telemetry turns on in-band telemetry (ISSUE 4): every request carries
// the INT flag, the daemon appends per-hop stamps, and the responses are
// folded into end-to-end spans. The daemon clock is aligned to the host
// transport clock with one bracketed control-plane PING (the daemon's
// control port — known for the embedded daemon, --control-port otherwise).
// --trace-out writes the merged host+device Chrome-trace JSON and implies
// --telemetry.
//
// Every operation is executed twice — once through the simulated fabric,
// once over UDP — and the reflected payloads must be byte-identical.
// Exit 0 on full agreement, 1 otherwise.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/factory.hpp"
#include "net/sim_transport.hpp"
#include "net/swd_server.hpp"
#include "net/udp_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runtime/host.hpp"
#include "sim/fabric.hpp"

namespace {

struct Op {
  std::uint64_t code, a, b;
};

netcl::driver::CompileResult compile_calc() {
  netcl::apps::AppSource app = netcl::apps::calc_source();
  netcl::driver::CompileOptions options;
  options.device_id = 1;
  options.defines = app.defines;
  return netcl::driver::compile_netcl(app.source, options);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netcl;

  int num_ops = 32;
  int timeout_ms = 2000;
  std::string connect_host;
  std::uint16_t connect_port = 0;
  std::uint16_t control_port = 0;
  bool telemetry = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ops" && i + 1 < argc) {
      num_ops = std::atoi(argv[++i]);
    } else if (arg == "--telemetry") {
      telemetry = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
      telemetry = true;
    } else if (arg == "--control-port" && i + 1 < argc) {
      control_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      timeout_ms = std::atoi(argv[++i]);
      if (timeout_ms <= 0) {
        std::fprintf(stderr, "--timeout-ms wants a positive integer\n");
        return 1;
      }
    } else if (arg == "--connect" && i + 1 < argc) {
      const std::string target = argv[++i];
      const std::size_t colon = target.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect wants HOST:PORT, got '%s'\n", target.c_str());
        return 1;
      }
      connect_host = target.substr(0, colon);
      connect_port = static_cast<std::uint16_t>(std::atoi(target.c_str() + colon + 1));
    } else {
      std::fprintf(stderr,
                   "usage: udp_calc [--ops N] [--connect HOST:PORT] [--control-port P] "
                   "[--timeout-ms T] [--telemetry] [--trace-out FILE]\n");
      return arg == "--help" || arg == "-h" ? 0 : 1;
    }
  }

  driver::CompileResult compiled = compile_calc();
  if (!compiled.ok) {
    std::fprintf(stderr, "compile failed:\n%s", compiled.errors.c_str());
    return 1;
  }
  const KernelSpec spec = compiled.specs.at(1);

  SplitMix64 rng(7);
  std::vector<Op> ops;
  for (int i = 0; i < num_ops; ++i) {
    ops.push_back({1 + rng.next_below(5), rng.next() & 0xFFFFFFFF, rng.next() & 0xFFFFFFFF});
  }

  // --- reference run through the simulated fabric ---------------------------
  std::vector<std::vector<std::uint8_t>> sim_results;
  {
    driver::CompileResult sim_compiled = compile_calc();
    sim::Fabric fabric(7);
    fabric.add_device(driver::make_device(std::move(sim_compiled), 1));
    runtime::HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
    host.register_spec(1, spec);
    fabric.connect(sim::host_ref(1), sim::device_ref(1));
    host.on_receive([&](const runtime::Message&, sim::ArgValues& args) {
      sim_results.push_back(sim::encode_args(spec, args));
    });
    for (const Op& op : ops) {
      sim::ArgValues args = sim::make_args(spec);
      args[0][0] = op.code;
      args[1][0] = op.a;
      args[2][0] = op.b;
      host.send(runtime::Message(1, 0, 1, 1), args);
    }
    fabric.run();
  }
  if (sim_results.size() != ops.size()) {
    std::fprintf(stderr, "simulated run answered %zu of %zu ops\n", sim_results.size(),
                 ops.size());
    return 1;
  }

  // --- the same ops over real UDP -------------------------------------------
  std::unique_ptr<net::SwdServer> server;
  std::thread serving;
  if (connect_host.empty()) {
    server = std::make_unique<net::SwdServer>(driver::make_device(std::move(compiled), 1),
                                              net::SwdOptions{});
    if (!server->valid()) {
      std::fprintf(stderr, "embedded daemon: %s\n", server->error().c_str());
      return 1;
    }
    connect_host = "127.0.0.1";
    connect_port = server->udp_port();
    if (control_port == 0) control_port = server->control_port();
    serving = std::thread([&] { server->run(); });
    std::printf("embedded netcl-swd: udp %u, control %u\n", server->udp_port(),
                server->control_port());
  }

  // The URI factory (ISSUE 5) is the one place transports are built; the
  // same string with a sim:// scheme would route through the fabric.
  std::string transport_error;
  std::unique_ptr<net::Transport> transport_ptr = net::make_transport(
      "udp://" + connect_host + ":" + std::to_string(connect_port), {}, &transport_error);
  if (transport_ptr == nullptr) {
    std::fprintf(stderr, "udp transport: %s\n", transport_error.c_str());
    if (server != nullptr) {
      server->stop();
      serving.join();
    }
    return 1;
  }
  auto& transport = static_cast<net::UdpTransport&>(*transport_ptr);
  int rc = 0;

  // Telemetry (ISSUE 4): run-local tracer/collector; the run is untouched
  // when telemetry is off.
  obs::Tracer trace;
  obs::MetricsRegistry telemetry_metrics("udp_calc.telemetry");
  std::unique_ptr<obs::SpanCollector> collector;
  if (telemetry && rc == 0) {
    if (!trace_out.empty()) trace.enable();
    collector = std::make_unique<obs::SpanCollector>(trace, telemetry_metrics);
    if (control_port != 0) {
      // Bracketed PINGs align the daemon's stamp clock to the host
      // transport clock; the midpoint estimator's error is bounded by half
      // the round trip, so take the best (smallest-RTT) of a few exchanges
      // — the first one pays for connection setup.
      runtime::DeviceConnection control(connect_host, control_port);
      obs::ClockAlignment best;
      double best_rtt_ns = 0.0;
      for (int probe = 0; control.valid() && probe < 5; ++probe) {
        runtime::PingInfo info;
        const double ping_send_ns = transport.now_ns();
        // Typed form (ISSUE 5): a failed heartbeat says why it failed.
        if (const runtime::Error err = control.ping_e(info); !err.ok()) {
          std::fprintf(stderr, "udp_calc: clock-alignment ping failed: %s\n",
                       err.to_string().c_str());
          break;
        }
        const double ping_recv_ns = transport.now_ns();
        const double rtt_ns = ping_recv_ns - ping_send_ns;
        if (!best.valid || rtt_ns < best_rtt_ns) {
          best = obs::align_clocks(ping_send_ns, ping_recv_ns,
                                   static_cast<double>(info.device_clock_ns));
          best_rtt_ns = rtt_ns;
        }
      }
      if (best.valid) {
        collector->set_clock_offset(control.device_id(), best.offset_ns);
        std::printf("clock alignment: device %u offset %+.0f ns (best rtt %.0f ns)\n",
                    control.device_id(), best.offset_ns, best_rtt_ns);
      } else {
        std::fprintf(stderr,
                     "telemetry: control ping to %s:%u failed; device spans keep "
                     "their own clockbase\n",
                     connect_host.c_str(), control_port);
      }
    } else {
      std::fprintf(stderr,
                   "telemetry: no control port known (pass --control-port with "
                   "--connect); device spans keep their own clockbase\n");
    }
  }

  std::vector<std::vector<std::uint8_t>> udp_results;
  if (rc == 0) {
    runtime::HostRuntime host(transport, 1);
    host.register_spec(1, spec);
    if (collector != nullptr) host.enable_telemetry(collector.get());
    host.on_receive([&](const runtime::Message&, sim::ArgValues& args) {
      udp_results.push_back(sim::encode_args(spec, args));
    });
    for (std::size_t i = 0; i < ops.size() && rc == 0; ++i) {
      sim::ArgValues args = sim::make_args(spec);
      args[0][0] = ops[i].code;
      args[1][0] = ops[i].a;
      args[2][0] = ops[i].b;
      host.send(runtime::Message(1, 0, 1, 1), args);
      // One op in flight at a time keeps result order deterministic.
      if (!transport.run_until([&] { return udp_results.size() > i; },
                               static_cast<double>(timeout_ms) * 1e6)) {
        if (i == 0) {
          // Nothing ever answered: almost certainly no daemon at the
          // address, not a lossy network. Fail fast and say so.
          std::fprintf(stderr,
                       "no response from daemon at %s:%u within %d ms — is netcl-swd "
                       "running there? (see --timeout-ms)\n",
                       connect_host.c_str(), connect_port, timeout_ms);
        } else {
          std::fprintf(stderr, "timed out after %d ms waiting for op %zu of %zu\n",
                       timeout_ms, i + 1, ops.size());
        }
        rc = 1;
      }
    }
  }

  if (server != nullptr) {
    server->stop();
    serving.join();
  }

  if (rc == 0) {
    const bool identical = udp_results == sim_results;
    std::printf("ops        : %d\n", num_ops);
    std::printf("udp answers: %zu\n", udp_results.size());
    std::printf("byte-identical to simulated fabric: %s\n", identical ? "yes" : "NO");
    if (!identical) rc = 1;
  }
  if (collector != nullptr) {
    std::printf("telemetry spans: %llu\n",
                static_cast<unsigned long long>(collector->spans()));
    if (!trace_out.empty()) {
      if (trace.write(trace_out)) {
        std::printf("trace written  : %s\n", trace_out.c_str());
      } else {
        std::fprintf(stderr, "could not write trace to %s\n", trace_out.c_str());
        rc = 1;
      }
    }
  }

  std::printf("\n--- transport metrics (obs::dump) ---\n%s", obs::dump_string().c_str());
  return rc;
}
