// netcl-ctl: operator CLI for a running netcl-swd daemon's kernel
// lifecycle (ISSUE 7). Talks the TCP control protocol; the daemon does the
// compiling, so this binary ships source bytes, not artifacts.
//
//   netcl-ctl [--host H] --control-port P load <tenant> <source.ncl>
//             [--name NAME] [--replace] [-D NAME=VALUE]
//   netcl-ctl [--host H] --control-port P unload <tenant>
//   netcl-ctl [--host H] --control-port P list
//   netcl-ctl [--host H] --control-port P profile [--text] [--no-file]
//
// `profile` asks the daemon for a folded-stack CPU profile (ISSUE 9): by
// default the daemon writes profile_netcl-swd_<n>.folded next to its
// flight dumps; --text streams the folded stacks to stdout instead
// (pipe into flamegraph.pl), and --no-file skips the daemon-side write.
//
// `load --replace` performs the daemon half of a hitless swap: the resident
// tenant's program is replaced without disturbing co-resident tenants
// (hosts replay their journals via DeviceConnection::resync afterwards).
//
// Exit codes: 0 success, 1 transport failure (daemon unreachable / timed
// out), 2 usage error, 3 the daemon rejected the operation (admission over
// budget, compile diagnostics, unknown tenant — the typed error body is
// printed in full).
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "net/control.hpp"

namespace {

void print_usage() {
  std::cerr
      << "usage: netcl-ctl [--host H] --control-port P load <tenant> <source.ncl>\n"
         "                 [--name NAME] [--replace] [-D NAME=VALUE]\n"
         "       netcl-ctl [--host H] --control-port P unload <tenant>\n"
         "       netcl-ctl [--host H] --control-port P list\n"
         "       netcl-ctl [--host H] --control-port P profile [--text] [--no-file]\n";
}

bool parse_number(const std::string& flag, const std::string& text, std::uint64_t& out) {
  try {
    std::size_t used = 0;
    out = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return true;
  } catch (const std::exception&) {
    std::cerr << "netcl-ctl: invalid number '" << text << "' for " << flag << "\n";
    return false;
  }
}

int exit_code_for(const netcl::runtime::Error& err) {
  return err.kind == netcl::runtime::ErrorKind::kRejected ? 3 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t control_port = 0;
  std::string command;
  std::vector<std::string> operands;
  std::string name;
  bool replace = false;
  bool profile_text = false;
  bool profile_no_file = false;
  std::map<std::string, std::uint64_t> defines;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t value = 0;
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--control-port" && i + 1 < argc) {
      if (!parse_number(arg, argv[++i], value)) return 2;
      control_port = static_cast<std::uint16_t>(value);
    } else if (arg == "--name" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--replace") {
      replace = true;
    } else if (arg == "--text") {
      profile_text = true;
    } else if (arg == "--no-file") {
      profile_no_file = true;
    } else if (arg == "-D" && i + 1 < argc) {
      const std::string define = argv[++i];
      const std::size_t eq = define.find('=');
      if (eq == std::string::npos) {
        defines[define] = 1;
      } else {
        if (!parse_number("-D", define.substr(eq + 1), value)) return 2;
        defines[define.substr(0, eq)] = value;
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      if (command.empty()) {
        command = arg;
      } else {
        operands.push_back(arg);
      }
    } else {
      std::cerr << "netcl-ctl: unknown option '" << arg << "'\n";
      print_usage();
      return 2;
    }
  }

  if (control_port == 0 || command.empty()) {
    print_usage();
    return 2;
  }

  netcl::net::ControlClient client(host, control_port);
  if (const netcl::runtime::Error err = client.connect_now()) {
    std::cerr << "netcl-ctl: cannot connect to " << host << ":" << control_port << ": "
              << err.message << "\n";
    return 1;
  }

  if (command == "load") {
    if (operands.size() != 2) {
      print_usage();
      return 2;
    }
    std::uint64_t tenant = 0;
    if (!parse_number("tenant", operands[0], tenant)) return 2;
    std::ifstream file(operands[1]);
    if (!file) {
      std::cerr << "netcl-ctl: cannot open '" << operands[1] << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << file.rdbuf();
    if (name.empty()) {
      const std::size_t slash = operands[1].find_last_of('/');
      name = slash == std::string::npos ? operands[1] : operands[1].substr(slash + 1);
    }
    std::uint16_t stages = 0;
    std::string summary;
    const netcl::runtime::Error err =
        client.load_kernel(static_cast<std::uint32_t>(tenant), name, text.str(), defines,
                           replace, &stages, &summary);
    if (err) {
      std::cerr << "netcl-ctl: " << (replace ? "swap" : "load") << " rejected: "
                << err.message << "\n";
      return exit_code_for(err);
    }
    std::cout << "netcl-ctl: tenant " << tenant << " " << (replace ? "swapped" : "loaded")
              << " '" << name << "' (" << stages << (stages == 1 ? " stage" : " stages")
              << "); " << summary << "\n";
    return 0;
  }

  if (command == "unload") {
    if (operands.size() != 1) {
      print_usage();
      return 2;
    }
    std::uint64_t tenant = 0;
    if (!parse_number("tenant", operands[0], tenant)) return 2;
    const netcl::runtime::Error err = client.unload_kernel(static_cast<std::uint32_t>(tenant));
    if (err) {
      std::cerr << "netcl-ctl: unload rejected: " << err.message << "\n";
      return exit_code_for(err);
    }
    std::cout << "netcl-ctl: tenant " << tenant << " unloaded\n";
    return 0;
  }

  if (command == "list") {
    if (!operands.empty()) {
      print_usage();
      return 2;
    }
    std::vector<netcl::sim::TenantInfo> kernels;
    if (const netcl::runtime::Error err = client.list_kernels(kernels)) {
      std::cerr << "netcl-ctl: list failed: " << err.message << "\n";
      return exit_code_for(err);
    }
    if (kernels.empty()) {
      std::cout << "no resident tenants\n";
      return 0;
    }
    for (const netcl::sim::TenantInfo& info : kernels) {
      std::cout << "tenant " << info.id << " '" << info.name << "': "
                << info.stages_used << (info.stages_used == 1 ? " stage" : " stages")
                << ", computations [";
      for (std::size_t i = 0; i < info.computations.size(); ++i) {
        if (i > 0) std::cout << ", ";
        std::cout << info.computations[i];
      }
      std::cout << "], worst " << info.usage << ", packets "
                << info.stats.packets_processed << ", kernels " << info.stats.kernels_executed
                << ", drops " << info.stats.drops_action << "\n";
    }
    return 0;
  }

  if (command == "profile") {
    if (!operands.empty()) {
      print_usage();
      return 2;
    }
    std::uint8_t flags = 0;
    if (!profile_no_file) flags |= netcl::net::kProfileWriteFile;
    if (profile_text) flags |= netcl::net::kProfileReturnText;
    netcl::net::ControlClient::ProfileDumpResult result;
    if (const netcl::runtime::Error err = client.profile_dump(flags, result)) {
      std::cerr << "netcl-ctl: profile dump failed: " << err.message << "\n";
      return exit_code_for(err);
    }
    // With --text the folded stacks go to stdout (flamegraph.pl-ready);
    // the human summary moves to stderr so the pipe stays clean.
    std::ostream& info = profile_text ? std::cerr : std::cout;
    if (result.hz == 0) {
      info << "netcl-ctl: profiler is off (start the daemon with --profile)\n";
    }
    info << "netcl-ctl: " << result.samples << " samples, " << result.distinct_stacks
         << " distinct stacks at " << result.hz << " Hz";
    if (!result.path.empty()) info << ", wrote " << result.path;
    info << "\n";
    if (profile_text) std::cout << result.folded;
    return 0;
  }

  std::cerr << "netcl-ctl: unknown command '" << command << "'\n";
  print_usage();
  return 2;
}
