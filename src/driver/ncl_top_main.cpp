// ncl-top: live terminal dashboard over a netcl-swd --metrics-port
// Prometheus scrape endpoint (ISSUE 4).
//
//   ncl-top --port 9464 [--host 127.0.0.1] [--interval 1.0] [--once]
//           [--control-port P]
//
// Each tick scrapes the endpoint with a plain HTTP/1.0 GET, parses the
// text exposition, and redraws: every series' current value plus its rate
// since the previous scrape (counters only — gauges show value alone).
// --once scrapes a single time, prints without screen control, and exits
// nonzero if the scrape failed or was not well-formed Prometheus text —
// which is what the CI smoke step runs.
//
// Panels above the raw series listing (each renders only when its series
// exist): per-tenant execution stats with per-interval packet/shed rates
// (ISSUE 7/9), malformed-source attribution with rates (ISSUE 8), the
// per-tenant SLO panel (error-budget bar + multi-window burn rates +
// burn-state arrows, from the netcl_slo_* series; ISSUE 9), and
// interpolated latency quantiles computed from _bucket series the same
// way obs::Histogram::quantile interpolates (ISSUE 9).
//
// With --control-port, pressing `d` fetches the daemon's flight-recorder
// events over the kFlightDump control op and writes a clock-aligned
// postmortem (flightdump_ncl-top_*.jsonl + .trace.json) on the operator's
// machine (ISSUE 6); `q` quits. A persistent control connection also
// feeds a hot-frames panel each tick (kProfileDump, text-only) whenever
// the daemon runs with --profile.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <termios.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/control.hpp"
#include "obs/flightrec.hpp"

namespace {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// netcl-swd control-plane port; enables the `d` flight-dump keybinding.
  std::uint16_t control_port = 0;
  double interval_s = 1.0;
  bool once = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: ncl-top --port <metrics-port> [--host <ipv4>] "
               "[--interval <seconds>] [--once] [--control-port <port>]\n");
}

/// Puts the controlling terminal into non-canonical, no-echo mode for the
/// interactive keybindings ('d' = flight dump, 'q' = quit) and restores it
/// on destruction. A non-tty stdin (CI pipes) leaves everything alone.
class RawTerminal {
 public:
  RawTerminal() {
    if (::isatty(STDIN_FILENO) != 1) return;
    if (::tcgetattr(STDIN_FILENO, &saved_) != 0) return;
    termios raw = saved_;
    raw.c_lflag &= ~static_cast<tcflag_t>(ICANON | ECHO);
    raw.c_cc[VMIN] = 0;
    raw.c_cc[VTIME] = 0;
    active_ = ::tcsetattr(STDIN_FILENO, TCSANOW, &raw) == 0;
  }
  ~RawTerminal() {
    if (active_) ::tcsetattr(STDIN_FILENO, TCSANOW, &saved_);
  }
  RawTerminal(const RawTerminal&) = delete;
  RawTerminal& operator=(const RawTerminal&) = delete;

 private:
  termios saved_{};
  bool active_ = false;
};

/// Waits up to `timeout_s` for one keypress; returns it, or 0 on timeout.
char poll_key(double timeout_s) {
  pollfd pfd{STDIN_FILENO, POLLIN, 0};
  const int timeout_ms = static_cast<int>(std::max(timeout_s, 0.0) * 1000.0);
  if (::poll(&pfd, 1, timeout_ms) <= 0 || (pfd.revents & POLLIN) == 0) return 0;
  char key = 0;
  return ::read(STDIN_FILENO, &key, 1) == 1 ? key : 0;
}

/// The `d` keybinding: fetch the daemon's recent flight events over the
/// control plane and write a merged, clock-aligned postmortem locally.
void flight_dump(const Options& options) {
  if (options.control_port == 0) {
    std::fprintf(stderr, "ncl-top: flight dump needs --control-port\n");
    return;
  }
  netcl::net::ControlClient client(options.host, options.control_port);
  netcl::net::ControlClient::FlightDumpResult result;
  if (const netcl::runtime::Error err = client.flight_dump(0, result)) {
    std::fprintf(stderr, "ncl-top: kFlightDump request to %s:%u failed: %s\n",
                 options.host.c_str(), options.control_port, err.to_string().c_str());
    return;
  }
  netcl::obs::FlightStream daemon;
  daemon.process = "netcl-swd";
  daemon.offset_ns = result.offset_ns;
  daemon.events = std::move(result.events);
  const std::string base =
      netcl::obs::FlightRecorder::instance().trigger_dump("keypress", {daemon});
  if (base.empty()) {
    std::fprintf(stderr, "ncl-top: flight dump suppressed (rate limit)\n");
  } else {
    std::fprintf(stderr, "ncl-top: wrote %s.jsonl and %s.trace.json (%zu daemon events)\n",
                 base.c_str(), base.c_str(), daemon.events.size());
  }
}

/// Sleeps one refresh interval while watching stdin for keybindings.
/// Returns false when the user pressed `q`. Non-tty stdin (pipes, CI)
/// degrades to a plain sleep so EOF never busy-loops.
bool wait_for_tick(const Options& options) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(options.interval_s);
  if (::isatty(STDIN_FILENO) != 1) {
    std::this_thread::sleep_until(deadline);
    return true;
  }
  for (;;) {
    const double remaining =
        std::chrono::duration<double>(deadline - std::chrono::steady_clock::now()).count();
    if (remaining <= 0.0) return true;
    const char key = poll_key(remaining);
    if (key == 'q') return false;
    if (key == 'd') flight_dump(options);
  }
}

/// One blocking HTTP/1.0 GET; returns false on any socket failure. `body`
/// receives everything past the header block.
bool scrape(const Options& options, std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request = "GET /metrics HTTP/1.0\r\nHost: " + options.host + "\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) < 0) {
    ::close(fd);
    return false;
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos || response.compare(0, 5, "HTTP/") != 0) return false;
  body = response.substr(split + 4);
  return true;
}

struct Series {
  double value = 0.0;
  bool counter = false;  // from the preceding # TYPE line
};

/// Parses the exposition into series-name -> value. False when a
/// non-comment line is not "name[{labels}] value".
bool parse(const std::string& body, std::map<std::string, Series>& out) {
  std::map<std::string, bool> family_is_counter;
  std::size_t pos = 0;
  bool saw_sample = false;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE <family> <type>"
      if (line.compare(0, 7, "# TYPE ") == 0) {
        const std::size_t space = line.find(' ', 7);
        if (space != std::string::npos) {
          family_is_counter[line.substr(7, space - 7)] =
              line.compare(space + 1, std::string::npos, "counter") == 0;
        }
      }
      continue;
    }
    const std::size_t value_at = line.rfind(' ');
    if (value_at == std::string::npos || value_at == 0) return false;
    const std::string name = line.substr(0, value_at);
    char* parsed_end = nullptr;
    const double value = std::strtod(line.c_str() + value_at + 1, &parsed_end);
    if (parsed_end == line.c_str() + value_at + 1) return false;
    std::string family = name.substr(0, name.find('{'));
    Series series;
    series.value = value;
    series.counter = family_is_counter[family];
    out[name] = series;
    saw_sample = true;
  }
  return saw_sample;
}

/// Extracts a label value from a series name ("...{...,tenant=\"2\",...}").
/// Empty when the label is absent.
std::string label_value(const std::string& series, const std::string& label) {
  const std::string needle = label + "=\"";
  const std::size_t at = series.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  const std::size_t end = series.find('"', begin);
  return end == std::string::npos ? "" : series.substr(begin, end - begin);
}

/// Delta of one series since the previous scrape, clamped non-negative
/// (restarts reset counters); 0 when the series is new.
double series_delta(const std::map<std::string, Series>& prev, const std::string& name,
                    double now_value) {
  const auto it = prev.find(name);
  return it == prev.end() ? 0.0 : std::max(0.0, now_value - it->second.value);
}

/// The per-tenant view (ISSUE 7): netcl-swd mirrors each tenant's execution
/// stats into series carrying a tenant label; fold them into one row per
/// tenant above the raw series listing. Per-interval rates (ISSUE 9) sit
/// next to the cumulative totals so a live flood is visible without mental
/// subtraction.
void render_tenants(const std::map<std::string, Series>& now,
                    const std::map<std::string, Series>& prev, double dt_s) {
  // tenant id -> metric suffix ("packets_processed") -> (value, delta).
  std::map<std::string, std::map<std::string, std::pair<double, double>>> tenants;
  for (const auto& [name, series] : now) {
    const std::string tenant = label_value(name, "tenant");
    if (tenant.empty()) continue;
    const std::size_t brace = name.find('{');
    std::string family = name.substr(0, brace);
    const std::string prefix = "netcl_tenant_";
    if (family.compare(0, prefix.size(), prefix) == 0) family.erase(0, prefix.size());
    tenants[tenant][family] = {series.value, series_delta(prev, name, series.value)};
  }
  if (tenants.empty()) return;
  std::printf("%-8s %7s %12s %10s %12s %10s %10s %10s %10s\n", "tenant", "stages",
              "packets", "pkts/s", "kernels", "drops", "mcasts", "shed", "shed/s");
  for (const auto& [tenant, metrics] : tenants) {
    auto metric = [&](const char* key) {
      const auto it = metrics.find(key);
      return it == metrics.end() ? 0.0 : it->second.first;
    };
    auto rate = [&](const char* key) {
      const auto it = metrics.find(key);
      return it == metrics.end() || dt_s <= 0.0 ? 0.0 : it->second.second / dt_s;
    };
    // "shed" = packets this tenant lost to overload control (ISSUE 8):
    // its own policer budget plus drop-oldest queue overflow.
    std::printf("%-8s %7.0f %12.0f %10.1f %12.0f %10.0f %10.0f %10.0f %10.1f\n",
                tenant.c_str(), metric("stages_used"), metric("packets_processed"),
                rate("packets_processed"), metric("kernels_executed"),
                metric("drops_action"), metric("multicasts"),
                metric("shed_policer") + metric("shed_queue"),
                rate("shed_policer") + rate("shed_queue"));
  }
  std::printf("\n");
}

/// Hostile-traffic attribution (ISSUE 8): the daemon mirrors its top
/// malformed-datagram sources into series carrying a `source` label.
void render_malformed_sources(const std::map<std::string, Series>& now,
                              const std::map<std::string, Series>& prev, double dt_s) {
  std::map<std::string, std::pair<double, double>> sources;  // value, delta
  for (const auto& [name, series] : now) {
    const std::string source = label_value(name, "source");
    if (!source.empty()) {
      sources[source] = {series.value, series_delta(prev, name, series.value)};
    }
  }
  if (sources.empty()) return;
  std::printf("%-24s %12s %12s\n", "malformed source", "datagrams", "dgrams/s");
  for (const auto& [source, counts] : sources) {
    std::printf("%-24s %12.0f %12.1f\n", source.c_str(), counts.first,
                dt_s > 0.0 ? counts.second / dt_s : 0.0);
  }
  std::printf("\n");
}

/// The per-tenant SLO panel (ISSUE 9): error-budget bar, burn-state
/// arrows, and the short/long/slow burn rates, all straight from the
/// netcl_slo_* series the daemon exports.
void render_slo(const std::map<std::string, Series>& now) {
  struct Row {
    double budget = 1.0;
    double state = 0.0;
    double p99 = 0.0;
    double objective_ns = 0.0;
    double objective_avail = 0.0;
    std::map<std::string, double> burn;  // window name -> burn rate
  };
  std::map<std::string, Row> rows;
  for (const auto& [name, series] : now) {
    if (name.compare(0, 10, "netcl_slo_") != 0) continue;
    const std::string tenant = label_value(name, "tenant");
    if (tenant.empty()) continue;
    Row& row = rows[tenant];
    const std::string family = name.substr(0, name.find('{'));
    if (family == "netcl_slo_budget_remaining") row.budget = series.value;
    else if (family == "netcl_slo_state") row.state = series.value;
    else if (family == "netcl_slo_observed_p99_ns") row.p99 = series.value;
    else if (family == "netcl_slo_objective_latency_ns") row.objective_ns = series.value;
    else if (family == "netcl_slo_objective_availability") row.objective_avail = series.value;
    else if (family == "netcl_slo_burn_rate") row.burn[label_value(name, "window")] = series.value;
  }
  if (rows.empty()) return;
  std::printf("%-8s %-10s %-18s %22s %12s %16s\n", "tenant", "slo", "budget",
              "burn short/long/slow", "p99 ns", "objective");
  for (const auto& [tenant, row] : rows) {
    // kOk / kSlowBurn / kFastBurn as exported by the slo.state gauge.
    const char* state = row.state >= 2.0 ? "FAST ^^" : row.state >= 1.0 ? "slow ^" : "ok";
    char bar[16];
    const int filled = static_cast<int>(std::max(0.0, std::min(1.0, row.budget)) * 10.0);
    for (int i = 0; i < 10; ++i) bar[i] = i < filled ? '#' : '-';
    bar[10] = '\0';
    auto burn = [&](const char* window) {
      const auto it = row.burn.find(window);
      return it == row.burn.end() ? 0.0 : it->second;
    };
    char objective[48];
    std::snprintf(objective, sizeof(objective), "%.0fns @ %.5g", row.objective_ns,
                  row.objective_avail);
    std::printf("%-8s %-10s [%s] %3.0f%% %7.1f/%6.1f/%6.1f %12.0f %16s\n", tenant.c_str(),
                state, bar, row.budget * 100.0, burn("short"), burn("long"), burn("slow"),
                row.p99, objective);
  }
  std::printf("\n");
}

/// Interpolated quantiles from the cumulative _bucket series (ISSUE 9) —
/// the scrape-side mirror of obs::Histogram::quantile: rank into the
/// bucket, then linear interpolation between the bucket's bounds. Only
/// *_ns histograms are shown (the latency families).
void render_quantiles(const std::map<std::string, Series>& now) {
  struct Dist {
    std::vector<std::pair<double, double>> cum;  // (ceiling, cumulative); +Inf last
  };
  std::map<std::string, Dist> dists;
  for (const auto& [name, series] : now) {
    const std::size_t at = name.find("_bucket{");
    if (at == std::string::npos) continue;
    const std::string base = name.substr(0, at);
    if (base.size() < 3 || base.compare(base.size() - 3, 3, "_ns") != 0) continue;
    const std::string le = label_value(name, "le");
    if (le.empty()) continue;
    std::string key = base.substr(6);  // strip "netcl_"
    const std::string registry = label_value(name, "registry");
    const std::string tenant = label_value(name, "tenant");
    if (!registry.empty()) key += " [" + registry + (tenant.empty() ? "" : "/t" + tenant) + "]";
    const double ceiling =
        le == "+Inf" ? std::numeric_limits<double>::infinity() : std::atof(le.c_str());
    dists[key].cum.push_back({ceiling, series.value});
  }
  if (dists.empty()) return;
  bool header = false;
  for (auto& [key, dist] : dists) {
    std::sort(dist.cum.begin(), dist.cum.end());
    const double total = dist.cum.empty() ? 0.0 : dist.cum.back().second;
    if (total <= 0.0) continue;
    auto quantile = [&](double q) {
      const double rank = q * total;
      double lo = 0.0;
      double below = 0.0;
      for (const auto& [ceiling, cumulative] : dist.cum) {
        if (cumulative >= rank && cumulative > below) {
          // The +Inf bucket has no upper bound to interpolate toward;
          // clamp to the last finite ceiling like Histogram::quantile
          // clamps to max().
          if (ceiling == std::numeric_limits<double>::infinity()) return lo;
          return lo + (rank - below) / (cumulative - below) * (ceiling - lo);
        }
        below = cumulative;
        if (ceiling != std::numeric_limits<double>::infinity()) lo = ceiling;
      }
      return lo;
    };
    if (!header) {
      std::printf("%-44s %12s %12s %12s %10s\n", "latency (interpolated)", "p50", "p90",
                  "p99", "count");
      header = true;
    }
    std::printf("%-44s %12.0f %12.0f %12.0f %10.0f\n", key.c_str(), quantile(0.50),
                quantile(0.90), quantile(0.99), total);
  }
  if (header) std::printf("\n");
}

/// The hot-path panel (ISSUE 9): asks the daemon for its folded-stack
/// profile over the persistent control connection (text-only — no file is
/// written) and shows the hottest leaf frames. Silent when the daemon
/// runs without --profile.
void render_hot_frames(netcl::net::ControlClient& client) {
  netcl::net::ControlClient::ProfileDumpResult result;
  if (!client.profile_dump(netcl::net::kProfileReturnText, result).ok()) return;
  if (result.hz == 0 || result.folded.empty()) return;
  std::map<std::string, double> leaves;
  double total = 0.0;
  std::size_t pos = 0;
  while (pos < result.folded.size()) {
    std::size_t end = result.folded.find('\n', pos);
    if (end == std::string::npos) end = result.folded.size();
    const std::string line = result.folded.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    const double count = std::atof(line.c_str() + space + 1);
    const std::size_t semi = line.rfind(';', space - 1);
    const std::string leaf =
        line.substr(semi == std::string::npos ? 0 : semi + 1,
                    space - (semi == std::string::npos ? 0 : semi + 1));
    leaves[leaf] += count;
    total += count;
  }
  if (total <= 0.0) return;
  std::vector<std::pair<double, std::string>> ranked;
  ranked.reserve(leaves.size());
  for (const auto& [leaf, count] : leaves) ranked.emplace_back(count, leaf);
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("hot frames (%llu samples @ %u Hz, %llu stacks)\n",
              static_cast<unsigned long long>(result.samples), result.hz,
              static_cast<unsigned long long>(result.distinct_stacks));
  const std::size_t top = std::min<std::size_t>(5, ranked.size());
  for (std::size_t i = 0; i < top; ++i) {
    std::printf("  %5.1f%% %-70s\n", ranked[i].first / total * 100.0,
                ranked[i].second.c_str());
  }
  std::printf("\n");
}

void render(const std::map<std::string, Series>& now, const std::map<std::string, Series>& prev,
            double dt_s, const Options& options, netcl::net::ControlClient* control) {
  if (!options.once) std::printf("\033[2J\033[H");
  const char* keys = options.once ? ""
                     : options.control_port != 0 ? ", q quit / d flight-dump"
                                                 : ", q to quit";
  std::printf("ncl-top — %s:%u  (%zu series%s)\n", options.host.c_str(), options.port,
              now.size(), keys);
  render_tenants(now, prev, dt_s);
  render_malformed_sources(now, prev, dt_s);
  render_slo(now);
  render_quantiles(now);
  if (control != nullptr) render_hot_frames(*control);
  std::printf("%-64s %14s %12s\n", "series", "value", "rate/s");
  for (const auto& [name, series] : now) {
    char rate[32] = "";
    if (series.counter && dt_s > 0.0) {
      const auto it = prev.find(name);
      if (it != prev.end()) {
        std::snprintf(rate, sizeof(rate), "%.1f",
                      std::max(0.0, (series.value - it->second.value) / dt_s));
      }
    }
    std::printf("%-64s %14.0f %12s\n", name.c_str(), series.value, rate);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) {
        usage();
        return 2;
      }
      options.port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) {
        usage();
        return 2;
      }
      options.host = v;
    } else if (arg == "--interval") {
      const char* v = next();
      if (v == nullptr) {
        usage();
        return 2;
      }
      options.interval_s = std::atof(v);
    } else if (arg == "--control-port") {
      const char* v = next();
      if (v == nullptr) {
        usage();
        return 2;
      }
      options.control_port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (arg == "--once") {
      options.once = true;
    } else {
      usage();
      return 2;
    }
  }
  if (options.port == 0) {
    usage();
    return 2;
  }
  netcl::obs::FlightRecorder::instance().set_process_label("ncl-top");
  std::unique_ptr<RawTerminal> raw_terminal;
  if (!options.once) raw_terminal = std::make_unique<RawTerminal>();
  // Persistent control connection for the hot-frames panel; the `d`
  // flight-dump keybinding keeps its own short-lived connection.
  std::unique_ptr<netcl::net::ControlClient> control;
  if (options.control_port != 0) {
    control = std::make_unique<netcl::net::ControlClient>(options.host, options.control_port);
  }

  std::map<std::string, Series> prev;
  auto prev_at = std::chrono::steady_clock::now();
  for (;;) {
    std::string body;
    if (!scrape(options, body)) {
      std::fprintf(stderr, "ncl-top: scrape of %s:%u failed\n", options.host.c_str(),
                   options.port);
      if (options.once) return 1;
      if (!wait_for_tick(options)) return 0;
      continue;
    }
    std::map<std::string, Series> now;
    if (!parse(body, now)) {
      std::fprintf(stderr, "ncl-top: response is not well-formed Prometheus text\n");
      if (options.once) return 1;
      if (!wait_for_tick(options)) return 0;
      continue;
    }
    const auto now_at = std::chrono::steady_clock::now();
    render(now, prev, std::chrono::duration<double>(now_at - prev_at).count(), options,
           control.get());
    if (options.once) return 0;
    prev = std::move(now);
    prev_at = now_at;
    if (!wait_for_tick(options)) return 0;
  }
}
