// netcl-swd: the NetCL software device daemon.
//
//   netcl-swd [options] <source.ncl> [<source2.ncl> ...]
//     --device <id>        serve as device id (default 1)
//     --port <p>           UDP data-plane port (default 0 = kernel-assigned)
//     --control-port <p>   TCP control-plane port (default 0 = kernel-assigned)
//     -D NAME=VALUE        predefine an integer macro
//     --max-seconds <s>    exit after s wall-clock seconds (CI hard stop)
//     --max-tenants <n>    cap co-resident tenants (default 0 = unlimited)
//     --generation <g>     report generation g in PONGs (default: derived
//                          from the wall clock, so restarts are detectable)
//     --idle-timeout <s>   reap control connections idle for s seconds
//                          (default 300; 0 disables)
//     --metrics-port <p>   serve a Prometheus text scrape endpoint on this
//                          plain-TCP port (0 = kernel-assigned; off when
//                          the flag is absent)
//     --tenant-rate <pps>  police each tenant's data-plane traffic to this
//                          many packets/second (default 0 = unpoliced)
//     --tenant-burst <n>   token-bucket depth in packets (default: one
//                          second's worth, i.e. --tenant-rate)
//     --ingress-queue <n>  bounded drop-oldest ingress queue capacity
//                          (default 1024)
//     --read-deadline <s>  reap control connections stalled mid-frame, and
//                          connections whose reply is not read, after s
//                          seconds (slowloris defence; default 10,
//                          0 disables)
//     --profile[=hz]       continuous sampling CPU profiler (ISSUE 9);
//                          default 99 Hz. SIGUSR1 or the kProfileDump
//                          control op writes profile_netcl-swd_<n>.folded
//                          next to the flight dumps
//     --slo T:P99NS:AVAIL  per-tenant SLO objective (repeatable): tenant T
//                          must serve packets under P99NS ns with AVAIL
//                          availability (e.g. 1:50000:0.999). Exported as
//                          netcl_slo_* series; fast burn triggers a
//                          flight-recorder postmortem
//     --quiet              suppress the shutdown stats line
//
// Multi-tenant serving (ISSUE 7): each positional source compiles
// independently and loads as its own tenant (ids 1, 2, ... in argument
// order) through admission control, so the co-resident aggregate is
// guaranteed to fit the stage budget. More kernels can be loaded, swapped,
// and unloaded at runtime over the control plane (netcl-ctl / kLoadKernel).
//
// SIGUSR2 writes a flight-recorder postmortem (flightdump_netcl-swd_*.jsonl
// + .trace.json, into $NETCL_FLIGHT_DIR or the working directory); the
// kFlightDump control op ships the same events to a host instead.
//
// On startup it prints one parseable ready line followed by one line per
// resident tenant:
//
//   netcl-swd: device <id> ready (udp <port>, control <port>) [<admission summary>]
//   netcl-swd:   tenant <t> '<name>': <s> stages, worst <resource row>
//
// Exit codes: 0 clean shutdown (signal or --max-seconds), 1 compile/input/
// admission/socket failure, 2 usage error.
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>

#include "driver/compiler.hpp"
#include "net/swd_server.hpp"
#include "obs/flightrec.hpp"
#include "obs/profiler.hpp"

namespace {

netcl::net::SwdServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

void print_usage() {
  std::cerr << "usage: netcl-swd [--device N] [--port P] [--control-port P]\n"
               "                 [-D NAME=VALUE] [--max-seconds S] [--max-tenants N]\n"
               "                 [--generation G] [--idle-timeout S] [--metrics-port P]\n"
               "                 [--tenant-rate PPS] [--tenant-burst N] [--ingress-queue N]\n"
               "                 [--read-deadline S] [--profile[=HZ]] [--slo T:P99NS:AVAIL]\n"
               "                 [--quiet] <source.ncl> [<source2.ncl> ...]\n";
}

bool parse_number(const std::string& flag, const std::string& text, std::uint64_t& out) {
  try {
    std::size_t used = 0;
    out = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return true;
  } catch (const std::exception&) {
    std::cerr << "netcl-swd: invalid number '" << text << "' for " << flag << "\n";
    return false;
  }
}

/// Parses a --slo value "tenant:p99_ns:availability", e.g. "1:50000:0.999".
/// The latency threshold may be 0 (availability-only objective).
bool parse_slo(const std::string& text, netcl::sim::TenantId& tenant,
               netcl::obs::SloObjective& objective) {
  const std::size_t first = text.find(':');
  const std::size_t second = first == std::string::npos ? std::string::npos
                                                        : text.find(':', first + 1);
  if (first == std::string::npos || second == std::string::npos) return false;
  try {
    std::size_t used = 0;
    const std::string tenant_text = text.substr(0, first);
    tenant = static_cast<netcl::sim::TenantId>(std::stoul(tenant_text, &used));
    if (used != tenant_text.size()) return false;
    const std::string latency_text = text.substr(first + 1, second - first - 1);
    objective.latency_threshold_ns = std::stod(latency_text, &used);
    if (used != latency_text.size()) return false;
    const std::string avail_text = text.substr(second + 1);
    objective.availability_target = std::stod(avail_text, &used);
    if (used != avail_text.size()) return false;
  } catch (const std::exception&) {
    return false;
  }
  return objective.latency_threshold_ns >= 0.0 && objective.availability_target > 0.0 &&
         objective.availability_target < 1.0;
}

/// "examples/kernels/calc.ncl" -> "calc" (the operator-facing tenant name).
std::string tenant_name(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base.resize(dot);
  return base.empty() ? path : base;
}

}  // namespace

int main(int argc, char** argv) {
  netcl::driver::CompileOptions options;
  netcl::net::SwdOptions swd;
  swd.verbose = true;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t value = 0;
    if (arg == "--device" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      options.device_id = static_cast<int>(value);
    } else if (arg == "--port" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.udp_port = static_cast<std::uint16_t>(value);
    } else if (arg == "--control-port" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.control_port = static_cast<std::uint16_t>(value);
    } else if (arg == "--max-seconds" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.max_seconds = static_cast<double>(value);
    } else if (arg == "--max-tenants" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.max_tenants = static_cast<std::size_t>(value);
    } else if (arg == "--generation" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.generation = static_cast<std::uint32_t>(value);
    } else if (arg == "--idle-timeout" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.idle_timeout_seconds = static_cast<double>(value);
    } else if (arg == "--metrics-port" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.metrics_port = static_cast<int>(static_cast<std::uint16_t>(value));
    } else if (arg == "--tenant-rate" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.tenant_rate_pps = static_cast<double>(value);
    } else if (arg == "--tenant-burst" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.tenant_burst = static_cast<double>(value);
    } else if (arg == "--ingress-queue" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.ingress_queue_capacity = static_cast<std::size_t>(value);
    } else if (arg == "--read-deadline" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      swd.read_deadline_seconds = static_cast<double>(value);
    } else if (arg == "--profile" || arg.rfind("--profile=", 0) == 0) {
      if (arg == "--profile") {
        swd.profile_hz = netcl::obs::Profiler::kDefaultHz;
      } else {
        if (!parse_number("--profile", arg.substr(10), value) || value == 0) {
          if (value == 0) std::cerr << "netcl-swd: --profile rate must be > 0\n";
          return 2;
        }
        swd.profile_hz = static_cast<int>(value);
      }
    } else if (arg == "--slo" && i + 1 < argc) {
      netcl::sim::TenantId tenant = 0;
      netcl::obs::SloObjective objective;
      if (!parse_slo(argv[++i], tenant, objective)) {
        std::cerr << "netcl-swd: invalid --slo '" << argv[i]
                  << "' (want TENANT:P99_NS:AVAILABILITY, availability in (0,1))\n";
        return 2;
      }
      swd.slo_objectives[tenant] = objective;
    } else if (arg == "-D" && i + 1 < argc) {
      const std::string define = argv[++i];
      const std::size_t eq = define.find('=');
      if (eq == std::string::npos) {
        options.defines[define] = 1;
      } else {
        if (!parse_number("-D", define.substr(eq + 1), value)) return 2;
        options.defines[define.substr(0, eq)] = value;
      }
    } else if (arg == "--quiet") {
      swd.verbose = false;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      // Each positional source becomes its own tenant; loading the same
      // file twice would just collide on computation ids at admission time,
      // so reject it up front with a clearer message (ISSUE 7).
      for (const std::string& seen : paths) {
        if (seen == arg) {
          std::cerr << "netcl-swd: duplicate source '" << arg
                    << "' (each positional source loads once, as its own tenant)\n";
          return 2;
        }
      }
      paths.push_back(arg);
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      print_usage();
      return 2;
    }
  }

  if (paths.empty()) {
    print_usage();
    return 2;
  }
  if (swd.max_tenants != 0 && paths.size() > swd.max_tenants) {
    std::cerr << "netcl-swd: " << paths.size() << " sources but --max-tenants "
              << swd.max_tenants << "\n";
    return 2;
  }

  // One device, one tenant per source, every load admission-controlled —
  // the same path runtime kLoadKernel requests take.
  const auto device_id = static_cast<std::uint16_t>(options.device_id);
  auto device = std::make_unique<netcl::sim::SwitchDevice>(device_id);
  device->set_max_tenants(swd.max_tenants);
  device->set_stage_limits(options.limits, options.base_stages);
  netcl::sim::TenantId next_tenant = 1;
  for (const std::string& path : paths) {
    std::ifstream file(path);
    if (!file) {
      std::cerr << "netcl-swd: cannot open '" << path << "'\n";
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();
    netcl::driver::CompileResult compiled =
        netcl::driver::compile_netcl(text.str(), options);
    if (!compiled.ok) {
      std::cerr << "netcl-swd: compile failed for '" << path << "':\n" << compiled.errors;
      return 1;
    }
    netcl::sim::ProgramArtifact artifact =
        netcl::driver::make_artifact(std::move(compiled), tenant_name(path));
    if (netcl::runtime::Error err = device->load_program(next_tenant, std::move(artifact))) {
      std::cerr << "netcl-swd: cannot load '" << path << "' as tenant " << next_tenant
                << ": " << err.message << "\n";
      return 1;
    }
    ++next_tenant;
  }

  // Runtime kernel loads (kLoadKernel) compile with the same options the
  // command line established (-D defines, stage limits, target).
  swd.compiler = netcl::driver::artifact_compiler(options);

  netcl::net::SwdServer server(std::move(device), swd);
  if (!server.valid()) {
    std::cerr << "netcl-swd: " << server.error() << "\n";
    return 1;
  }

  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Flight recorder (ISSUE 6): label this process's event stream, and let
  // SIGUSR2 request a postmortem dump (written by the poll loop, into
  // $NETCL_FLIGHT_DIR or the working directory).
  netcl::obs::FlightRecorder::instance().set_process_label("netcl-swd");
  netcl::obs::FlightRecorder::install_signal_handler();
  // Profiler (ISSUE 9): SIGUSR1 requests a folded-stack profile dump the
  // same way SIGUSR2 requests a flight dump. Installed even without
  // --profile so the signal is never fatal; the dump just reports 0 Hz.
  netcl::obs::Profiler::install_signal_handler();

  std::cout << "netcl-swd: device " << device_id << " ready (udp " << server.udp_port()
            << ", control " << server.control_port();
  if (server.metrics_port() != 0) std::cout << ", metrics " << server.metrics_port();
  std::cout << ") [" << server.device().admission().summary() << "]" << std::endl;
  for (const netcl::sim::TenantInfo& info : server.device().tenant_table()) {
    std::cout << "netcl-swd:   tenant " << info.id << " '" << info.name << "': "
              << info.stages_used << (info.stages_used == 1 ? " stage" : " stages")
              << ", worst " << info.usage << std::endl;
  }
  if (swd.profile_hz > 0) {
    std::cout << "netcl-swd: profiling at " << swd.profile_hz
              << " Hz (SIGUSR1 or kProfileDump writes .folded)" << std::endl;
  }
  for (const auto& [tenant, objective] : swd.slo_objectives) {
    std::cout << "netcl-swd:   slo tenant " << tenant << ": p99 "
              << objective.latency_threshold_ns << " ns, availability "
              << objective.availability_target << std::endl;
  }
  server.run();
  return 0;
}
