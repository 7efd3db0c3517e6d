#include "apps/cache.hpp"

#include <cstdio>
#include <cstdlib>

#include "apps/sources.hpp"
#include "net/sim_transport.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runtime/host.hpp"

namespace netcl::apps {

using runtime::DeviceConnection;
using runtime::Error;
using runtime::HostRuntime;
using runtime::Message;
using sim::ArgValues;

namespace {

std::uint64_t value_word(int key, int word) {
  return static_cast<std::uint64_t>(key) * 100 + static_cast<std::uint64_t>(word);
}

}  // namespace

CacheResult run_cache(const CacheConfig& config) {
  CacheResult result;
  AppSource app = cache_source(config.capacity, config.val_words);

  driver::CompileOptions options;
  options.device_id = 1;
  options.defines = app.defines;
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  if (!compiled.ok) {
    result.error = compiled.errors;
    return result;
  }
  const KernelSpec spec = compiled.specs.at(1);
  result.stages_used = compiled.allocation.stages_used;
  if (config.stages_override > 0) {
    compiled.allocation.stages_used = config.stages_override;
  }

  sim::Fabric fabric(config.seed);
  HostRuntime client(std::make_unique<net::SimTransport>(fabric, 1), 1);
  HostRuntime server(std::make_unique<net::SimTransport>(fabric, 2), 2);
  client.register_spec(1, spec);
  server.register_spec(1, spec);
  fabric.add_device(driver::make_device(std::move(compiled), 1));

  // Telemetry (ISSUE 4): run-local tracer/collector; nothing is touched
  // when telemetry is off, keeping seeded runs byte-identical.
  const bool telemetry = config.telemetry || !config.trace_out.empty();
  obs::Tracer trace;
  obs::MetricsRegistry telemetry_metrics("cache.telemetry");
  std::unique_ptr<obs::SpanCollector> collector;
  if (telemetry) {
    if (!config.trace_out.empty()) trace.enable();
    collector = std::make_unique<obs::SpanCollector>(trace, telemetry_metrics);
    client.enable_telemetry(collector.get());
    server.enable_telemetry(collector.get());
  }

  sim::LinkConfig link;
  link.gbps = config.link_gbps;
  link.latency_ns = config.link_latency_ns;
  fabric.connect(sim::host_ref(1), sim::device_ref(1), link);
  fabric.connect(sim::host_ref(2), sim::device_ref(1), link);

  // The storage controller populates the cache over the control plane. The
  // typed forms (ISSUE 5) make a bad memory name or table key loud instead
  // of a silent false.
  DeviceConnection controller(fabric, 1);
  auto must = [](const Error& err) {
    if (!err.ok()) {
      std::fprintf(stderr, "cache: control-plane populate failed: %s\n",
                   err.to_string().c_str());
      std::abort();
    }
  };
  must(controller.managed_write_e("thresh", config.hot_threshold));
  const std::uint32_t full_mask =
      config.val_words >= 32 ? 0xFFFFFFFFu : (1u << config.val_words) - 1;
  for (int key = 0; key < config.cached_keys; ++key) {
    const auto idx = static_cast<std::uint64_t>(key);
    must(controller.insert_e("KeyIndex", static_cast<std::uint64_t>(key), idx));
    must(controller.insert_e("WordMask", static_cast<std::uint64_t>(key), full_mask));
    for (int word = 0; word < config.val_words; ++word) {
      must(controller.managed_write_e("Values", value_word(key, word),
                                      {static_cast<std::uint64_t>(word), idx}));
    }
    must(controller.managed_write_e("Valid", 1, {idx}));
  }

  // KVS server: answer misses after a fixed processing delay; count hot
  // reports.
  server.on_receive([&](const Message& message, ArgValues& args) {
    if (args[0][0] != static_cast<std::uint64_t>(kGetReq)) return;
    if (args[4][0] != 0) ++result.hot_reports;
    const auto key = static_cast<int>(args[1][0]);
    ArgValues reply = args;
    reply[0][0] = kCacheResponse;
    for (int word = 0; word < config.val_words; ++word) {
      reply[2][static_cast<std::size_t>(word)] = value_word(key, word) & 0xFFFFFFFF;
    }
    const std::uint16_t requester = message.src;
    fabric.schedule(config.server_think_ns, [&, reply, requester](sim::Fabric&) {
      // Respond directly to the requester; no computation on the way back.
      server.send(Message(2, requester, 1, 0), reply);
    });
  });

  // Client: closed-loop queries.
  struct ClientState {
    int sent = 0;
    double sent_time_ns = 0.0;
    int current_key = 0;
    int completed = 0;
    double total_ns = 0.0;
    double hit_ns = 0.0;
    double miss_ns = 0.0;
    int hits = 0;
    int misses = 0;
    bool value_error = false;
  } state;
  SplitMix64 rng(config.seed * 7919 + 1);

  auto send_next = [&]() {
    state.current_key = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(config.total_keys)));
    ArgValues args = sim::make_args(spec);
    args[0][0] = kGetReq;
    args[1][0] = static_cast<std::uint64_t>(state.current_key);
    state.sent_time_ns = fabric.now();
    ++state.sent;
    client.send(Message(1, 2, 1, 1), args);
  };

  client.on_receive([&](const Message&, ArgValues& args) {
    const bool was_hit = args[3][0] != 0;
    const double rtt = fabric.now() - state.sent_time_ns;
    state.total_ns += rtt;
    if (was_hit) {
      ++state.hits;
      state.hit_ns += rtt;
    } else {
      ++state.misses;
      state.miss_ns += rtt;
    }
    for (int word = 0; word < config.val_words; ++word) {
      if (args[2][static_cast<std::size_t>(word)] !=
          (value_word(state.current_key, word) & 0xFFFFFFFF)) {
        state.value_error = true;
      }
    }
    if (++state.completed < config.queries) send_next();
  });

  send_next();
  fabric.run(60e9);

  if (state.completed != config.queries || state.value_error) {
    result.error = state.value_error ? "value mismatch in cache responses"
                                     : "client did not complete all queries";
    return result;
  }
  result.ok = true;
  result.mean_response_ns = state.total_ns / state.completed;
  result.mean_hit_response_ns = state.hits > 0 ? state.hit_ns / state.hits : 0.0;
  result.mean_miss_response_ns = state.misses > 0 ? state.miss_ns / state.misses : 0.0;
  result.hit_rate = static_cast<double>(state.hits) / state.completed;
  std::uint64_t device_hits = 0;
  if (sim::SwitchDevice* device = fabric.device(1)) {
    device->debug_read("Hits", {}, device_hits);
  }
  result.device_hits = device_hits;
  if (collector != nullptr) {
    result.telemetry_spans = collector->spans();
    if (!config.trace_out.empty()) trace.write(config.trace_out);
  }
  return result;
}

}  // namespace netcl::apps
