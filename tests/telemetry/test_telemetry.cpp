// In-band telemetry (ISSUE 4): trailer codec, default-off wire identity,
// sim-vs-swd stamp equivalence, clock alignment under skew, metric-name
// hygiene, the Prometheus exposition, and the netcl-swd scrape endpoint.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "apps/cache.hpp"
#include "apps/calc.hpp"
#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/control.hpp"
#include "net/sim_transport.hpp"
#include "net/swd_server.hpp"
#include "net/udp_transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runtime/host.hpp"
#include "sim/fabric.hpp"
#include "sim/telemetry.hpp"

namespace netcl {
namespace {

using runtime::HostRuntime;
using runtime::Message;
using sim::ArgValues;
using sim::TelemetryHop;
using sim::TelemetryRecord;

// --- trailer codec ------------------------------------------------------------

TelemetryHop sample_hop(std::uint16_t device) {
  TelemetryHop hop;
  hop.device_id = device;
  hop.generation = 7;
  hop.ingress_ns = 0x0102030405060708ULL;
  hop.egress_ns = 0x0102030405060999ULL;
  hop.queue_depth = 3;
  hop.stage_ops = 12;
  return hop;
}

TEST(TelemetryTrailer, RoundTrip) {
  TelemetryRecord record;
  record.requested = true;
  ASSERT_TRUE(stamp_hop(record, sample_hop(1)));
  ASSERT_TRUE(stamp_hop(record, sample_hop(2)));

  std::vector<std::uint8_t> bytes;
  append_trailer(bytes, record);
  EXPECT_EQ(bytes.size(), sim::trailer_bytes(2));

  TelemetryRecord decoded;
  ASSERT_TRUE(parse_trailer(bytes, decoded));
  EXPECT_TRUE(decoded.requested);
  EXPECT_EQ(decoded.hops, record.hops);
}

TEST(TelemetryTrailer, EmptyRecordRoundTrips) {
  TelemetryRecord record;
  record.requested = true;
  std::vector<std::uint8_t> bytes;
  append_trailer(bytes, record);
  EXPECT_EQ(bytes.size(), 1u);

  TelemetryRecord decoded;
  ASSERT_TRUE(parse_trailer(bytes, decoded));
  EXPECT_TRUE(decoded.hops.empty());
}

TEST(TelemetryTrailer, RejectsTruncatedAndOversized) {
  TelemetryRecord record;
  record.requested = true;
  ASSERT_TRUE(stamp_hop(record, sample_hop(1)));
  std::vector<std::uint8_t> bytes;
  append_trailer(bytes, record);

  TelemetryRecord decoded;
  // Empty input.
  EXPECT_FALSE(parse_trailer(std::span<const std::uint8_t>{}, decoded));
  // Truncated: one byte short of the declared hop.
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(parse_trailer(cut, decoded));
  // Oversized: trailing slack after the declared hop.
  std::vector<std::uint8_t> slack = bytes;
  slack.push_back(0xAB);
  EXPECT_FALSE(parse_trailer(slack, decoded));
  // Hop count above the cap.
  std::vector<std::uint8_t> flood(sim::trailer_bytes(sim::kMaxTelemetryHops + 1), 0);
  flood[0] = static_cast<std::uint8_t>(sim::kMaxTelemetryHops + 1);
  EXPECT_FALSE(parse_trailer(flood, decoded));
}

TEST(TelemetryTrailer, StampStopsAtMaxHops) {
  TelemetryRecord record;
  record.requested = true;
  for (std::size_t i = 0; i < sim::kMaxTelemetryHops; ++i) {
    EXPECT_TRUE(stamp_hop(record, sample_hop(static_cast<std::uint16_t>(i))));
  }
  EXPECT_FALSE(stamp_hop(record, sample_hop(99)));
  EXPECT_EQ(record.hops.size(), sim::kMaxTelemetryHops);
}

// --- default-off wire identity ------------------------------------------------

TEST(TelemetryWire, OffIsByteIdenticalToPreTelemetryLayout) {
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

  // The pre-INT datagram layout, byte for byte: magic | header | payload.
  const std::vector<std::uint8_t> golden = {
      'N', 'C', 'L', 1,           // magic + version
      3,   0,                     // src (LE)
      9,   0,                     // dst
      2,   0,                     // from
      7,   0,                     // to
      5,                          // comp
      0xA0,                       // flags — telemetry bit NOT set
      5,   0,                     // len
      1,   2, 3, 4, 0xFF,         // payload
  };
  EXPECT_EQ(net::serialize_packet(packet), golden);

  // Even a stale flag bit is masked off while telemetry is unrequested, so
  // a receiver never sees the flag without a trailer.
  packet.netcl.flags = 0xA0 | sim::kFlagTelemetry;
  EXPECT_EQ(net::serialize_packet(packet), golden);
}

TEST(TelemetryWire, RequestedCarriesTrailerAndRoundTrips) {
  sim::Packet packet;
  packet.has_netcl = true;
  packet.netcl.comp = 1;
  packet.payload = {9, 9};
  packet.netcl.len = 2;
  packet.telemetry.requested = true;
  ASSERT_TRUE(stamp_hop(packet.telemetry, sample_hop(4)));

  const std::vector<std::uint8_t> bytes = net::serialize_packet(packet);
  EXPECT_EQ(bytes.size(), net::kWireHeaderBytes + 2 + sim::trailer_bytes(1));

  sim::Packet decoded;
  ASSERT_TRUE(net::deserialize_packet(bytes, decoded));
  EXPECT_TRUE(decoded.telemetry.requested);
  EXPECT_EQ(decoded.telemetry.hops, packet.telemetry.hops);

  // A datagram whose flag promises a trailer that is then truncated is
  // rejected whole — no partial stamps.
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 3);
  EXPECT_FALSE(net::deserialize_packet(cut, decoded));
}

// --- telemetry-off passivity (seeded regression) ------------------------------

TEST(TelemetryPassivity, CalcResultsIdenticalWithAndWithoutTelemetry) {
  apps::CalcConfig plain;
  plain.operations = 48;
  const apps::CalcResult base = apps::run_calc(plain);
  ASSERT_TRUE(base.ok) << base.error;

  // Same seed, telemetry on: stamps ride the packets but must not change
  // what the kernels compute or when the simulator delivers.
  apps::CalcConfig instrumented = plain;
  instrumented.telemetry = true;
  const apps::CalcResult on = apps::run_calc(instrumented);
  ASSERT_TRUE(on.ok) << on.error;

  EXPECT_EQ(on.answered, base.answered);
  EXPECT_EQ(on.correct, base.correct);
  EXPECT_EQ(on.dropped_unknown, base.dropped_unknown);
  EXPECT_EQ(base.telemetry_spans, 0u);
  EXPECT_EQ(on.telemetry_spans, static_cast<std::uint64_t>(on.answered));
}

TEST(TelemetryPassivity, CacheTimingIdenticalWithAndWithoutTelemetry) {
  apps::CacheConfig plain;
  plain.total_keys = 32;
  plain.cached_keys = 16;
  plain.queries = 64;
  const apps::CacheResult base = apps::run_cache(plain);
  ASSERT_TRUE(base.ok) << base.error;

  // A second telemetry-off run is bit-for-bit deterministic.
  const apps::CacheResult repeat = apps::run_cache(plain);
  ASSERT_TRUE(repeat.ok) << repeat.error;
  EXPECT_EQ(repeat.mean_response_ns, base.mean_response_ns);
  EXPECT_EQ(repeat.hit_rate, base.hit_rate);

  apps::CacheConfig instrumented = plain;
  instrumented.telemetry = true;
  const apps::CacheResult on = apps::run_cache(instrumented);
  ASSERT_TRUE(on.ok) << on.error;

  // Telemetry-on answers are identical; timing shifts only by the INT
  // trailer's wire bytes (the link model honestly pays for the extra ~31
  // bytes per stamped packet, as real INT does), so allow well under 1%.
  EXPECT_EQ(on.hit_rate, base.hit_rate);
  EXPECT_NEAR(on.mean_response_ns, base.mean_response_ns,
              0.01 * base.mean_response_ns);
  EXPECT_GT(on.telemetry_spans, 0u);
}

// --- sim vs swd stamp equivalence ---------------------------------------------

driver::CompileResult compile_calc(std::uint16_t device_id) {
  apps::AppSource app = apps::calc_source();
  driver::CompileOptions options;
  options.device_id = device_id;
  options.defines = app.defines;
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  return compiled;
}

TEST(TelemetryEquivalence, SimAndSwdStampTheSameShape) {
  // Same kernel, same op, two engines: the simulated switch on the fabric
  // clock and the daemon on its wall clock must stamp the same number of
  // hops, for the same device, with the same kernel work tally.
  driver::CompileResult sim_compiled = compile_calc(1);
  const KernelSpec spec = sim_compiled.specs.at(1);

  // Sim side.
  {
    sim::Fabric fabric(3);
    fabric.add_device(driver::make_device(std::move(sim_compiled), 1));
    HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
    host.register_spec(1, spec);
    fabric.connect(sim::host_ref(1), sim::device_ref(1));
    obs::Tracer trace;
    obs::MetricsRegistry metrics("test.sim.telemetry");
    obs::SpanCollector collector(trace, metrics);
    host.enable_telemetry(&collector);
    host.on_receive([&](const Message&, ArgValues&) {});
    ArgValues args = sim::make_args(spec);
    args[0][0] = apps::kCalcAdd;
    args[1][0] = 20;
    args[2][0] = 22;
    host.send(Message(1, 0, 1, 1), args);
    fabric.run();
    ASSERT_EQ(collector.spans(), 1u);
    // One device on the path → one hop folded into the collector.
    ASSERT_EQ(metrics.counter("int_hops").value(), 1u);
  }

  // swd side.
  driver::CompileResult swd_compiled = compile_calc(1);
  net::SwdServer server(driver::make_device(std::move(swd_compiled), 1),
                        net::SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });
  {
    net::UdpTransport::Options transport_options;
    transport_options.peer_port = server.udp_port();
    net::UdpTransport transport(transport_options);
    ASSERT_TRUE(transport.valid()) << transport.error();
    HostRuntime host(transport, 1);
    host.register_spec(1, spec);
    obs::Tracer trace;
    obs::MetricsRegistry metrics("test.swd.telemetry");
    obs::SpanCollector collector(trace, metrics);
    host.enable_telemetry(&collector);
    bool done = false;
    host.on_receive([&](const Message&, ArgValues&) { done = true; });
    ArgValues args = sim::make_args(spec);
    args[0][0] = apps::kCalcAdd;
    args[1][0] = 20;
    args[2][0] = 22;
    host.send(Message(1, 0, 1, 1), args);
    ASSERT_TRUE(transport.run_until([&] { return done; }, 10e9));
    ASSERT_EQ(collector.spans(), 1u);
    ASSERT_EQ(metrics.counter("int_hops").value(), 1u);
  }
  server.stop();
  serving.join();
  EXPECT_EQ(server.telemetry_stamps.value(), 1u);
}

TEST(TelemetryEquivalence, SwdStampsAreOrderedOnTheDaemonClock) {
  driver::CompileResult compiled = compile_calc(1);
  const KernelSpec spec = compiled.specs.at(1);
  net::SwdOptions swd_options;
  swd_options.generation = 42;
  net::SwdServer server(driver::make_device(std::move(compiled), 1), swd_options);
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  // Speak the wire directly so the response trailer is inspectable.
  net::UdpTransport::Options transport_options;
  transport_options.peer_port = server.udp_port();
  net::UdpTransport transport(transport_options);
  ASSERT_TRUE(transport.valid()) << transport.error();
  sim::Packet response;
  bool got = false;
  transport.set_receiver([&](const sim::Packet& packet) {
    response = packet;
    got = true;
  });

  sim::Packet request;
  request.has_netcl = true;
  request.netcl.src = 1;
  request.netcl.from = 1;
  request.netcl.to = 1;
  request.netcl.comp = 1;
  ArgValues args = sim::make_args(spec);
  args[0][0] = apps::kCalcAdd;
  args[1][0] = 1;
  args[2][0] = 2;
  request.payload = sim::encode_args(spec, args);
  request.netcl.len = static_cast<std::uint16_t>(request.payload.size());
  request.telemetry.requested = true;
  transport.send(std::move(request));
  ASSERT_TRUE(transport.run_until([&] { return got; }, 10e9));

  ASSERT_TRUE(response.telemetry.requested);
  ASSERT_EQ(response.telemetry.hops.size(), 1u);
  const TelemetryHop& hop = response.telemetry.hops[0];
  EXPECT_EQ(hop.device_id, 1);
  EXPECT_GE(hop.egress_ns, hop.ingress_ns);
  EXPECT_GT(hop.stage_ops, 0u);  // the calc kernel did real work
  EXPECT_EQ(hop.generation, 42u);

  server.stop();
  serving.join();
}

// --- clock alignment ----------------------------------------------------------

TEST(ClockAlignment, MidpointRecoversOffsetWithinHalfRtt) {
  // Host clock = device clock + 5000 ns (the device booted "later").
  // A symmetric exchange: send at 10000, device reads its clock at host
  // time 10500 (device clock 5500), reply lands at 11000.
  const obs::ClockAlignment alignment = obs::align_clocks(10000.0, 11000.0, 5500.0);
  ASSERT_TRUE(alignment.valid);
  EXPECT_NEAR(alignment.offset_ns, 5000.0, (11000.0 - 10000.0) / 2.0);
  // With a perfectly symmetric exchange the estimate is exact.
  EXPECT_DOUBLE_EQ(alignment.offset_ns, 5000.0);
}

TEST(ClockAlignment, AsymmetryErrorIsBoundedByHalfRtt) {
  // Same true offset (5000), but the device read its clock immediately on
  // receive (host time 10100, device 5100) while the reply crawled back.
  const obs::ClockAlignment alignment = obs::align_clocks(10000.0, 12000.0, 5100.0);
  ASSERT_TRUE(alignment.valid);
  EXPECT_LE(std::abs(alignment.offset_ns - 5000.0), (12000.0 - 10000.0) / 2.0);
}

TEST(ClockAlignment, RejectsNegativeWindow) {
  EXPECT_FALSE(obs::align_clocks(2000.0, 1000.0, 0.0).valid);
}

TEST(ClockAlignment, CollectorClampsResidualSkewIntoTheSpanWindow) {
  obs::Tracer trace;
  trace.enable();
  obs::MetricsRegistry metrics("test.clamp.telemetry");
  obs::SpanCollector collector(trace, metrics);
  collector.set_clock_offset(3, 1000.0);
  EXPECT_DOUBLE_EQ(collector.clock_offset(3), 1000.0);
  EXPECT_DOUBLE_EQ(collector.clock_offset(99), 0.0);  // unknown → fabric clock

  obs::SpanSample sample;
  sample.host_id = 1;
  sample.computation = 1;
  sample.send_ns = 10000.0;
  sample.recv_ns = 20000.0;
  TelemetryHop hop;
  hop.device_id = 3;
  hop.ingress_ns = 50000;  // aligned: 51000 — far past the window
  hop.egress_ns = 60000;
  sample.hops.push_back(hop);
  collector.record_span(sample);

  EXPECT_EQ(metrics.counter("int_clock_clamped").value(), 1u);
  // The emitted hop event is clamped into [send, recv], keeping the merged
  // trace monotonic even under bad alignment.
  bool found = false;
  for (const obs::TraceEvent& event : trace.events()) {
    if (event.pid < obs::SpanCollector::kDevicePidBase) continue;
    found = true;
    EXPECT_GE(event.ts_us, sample.send_ns / 1e3);
    EXPECT_LE(event.ts_us + event.dur_us, sample.recv_ns / 1e3);
  }
  EXPECT_TRUE(found);
}

TEST(ClockAlignment, NegativeSkewAlignsHopsWithoutClamping) {
  // The device clock runs AHEAD of the host (it "booted earlier"): send at
  // 10000, device reads 15500 at host-midpoint 10500, reply at 11000 →
  // offset −5000. The estimator must come out negative, and the collector
  // must land negatively-shifted hops inside the span window without
  // touching the clamp path.
  const obs::ClockAlignment alignment = obs::align_clocks(10000.0, 11000.0, 15500.0);
  ASSERT_TRUE(alignment.valid);
  EXPECT_DOUBLE_EQ(alignment.offset_ns, -5000.0);

  obs::Tracer trace;
  trace.enable();
  obs::MetricsRegistry metrics("test.negskew.telemetry");
  obs::SpanCollector collector(trace, metrics);
  collector.set_clock_offset(3, alignment.offset_ns);

  obs::SpanSample sample;
  sample.host_id = 1;
  sample.computation = 1;
  sample.send_ns = 10000.0;
  sample.recv_ns = 11000.0;
  TelemetryHop hop;
  hop.device_id = 3;
  hop.ingress_ns = 15200;  // aligned: 10200, inside [send, recv]
  hop.egress_ns = 15800;   // aligned: 10800
  sample.hops.push_back(hop);
  collector.record_span(sample);

  EXPECT_EQ(metrics.counter("int_clock_clamped").value(), 0u);
  bool found = false;
  for (const obs::TraceEvent& event : trace.events()) {
    if (event.pid < obs::SpanCollector::kDevicePidBase) continue;
    found = true;
    EXPECT_DOUBLE_EQ(event.ts_us, 10200.0 / 1e3);
    EXPECT_DOUBLE_EQ(event.dur_us, (10800.0 - 10200.0) / 1e3);
  }
  EXPECT_TRUE(found);
}

// --- metric-name hygiene and retained-store merge -----------------------------

TEST(MetricHygiene, InvalidCharactersAreSanitizedAtRegistration) {
  EXPECT_TRUE(obs::valid_metric_name("round_trip_ns"));
  EXPECT_TRUE(obs::valid_metric_name("comp1.sent"));
  EXPECT_FALSE(obs::valid_metric_name("has space"));
  EXPECT_FALSE(obs::valid_metric_name("br{ace}"));
  EXPECT_FALSE(obs::valid_metric_name("quo\"te"));
  EXPECT_FALSE(obs::valid_metric_name(""));

  EXPECT_EQ(obs::sanitize_metric_name("has space"), "has_space");
  EXPECT_EQ(obs::sanitize_metric_name("br{ace}"), "br_ace_");
  EXPECT_EQ(obs::sanitize_metric_name(""), "_");

  obs::MetricsRegistry registry("test.hygiene");
  registry.counter("bad name{x}").inc(2);
  // The metric lives under the sanitized name; re-registering either
  // spelling lands on the same counter.
  EXPECT_EQ(registry.counter("bad_name_x_").value(), 2u);
  registry.counter("bad name{x}").inc();
  EXPECT_EQ(registry.counter("bad_name_x_").value(), 3u);
}

TEST(MetricHygiene, RetiredRegistriesMergeAdditively) {
  const std::string name = "test.retained.merge";
  {
    obs::MetricsRegistry first(name);
    first.counter("events").inc(3);
    first.histogram("lat_ns").record(100.0);
    first.gauge("level").set(1.0);
  }
  {
    obs::MetricsRegistry second(name);
    second.counter("events").inc(4);
    second.histogram("lat_ns").record(300.0);
    second.gauge("level").set(2.0);
  }
  const auto snapshot = obs::snapshot_all();
  const auto it = snapshot.find(name);
  ASSERT_NE(it, snapshot.end());
  // Counters and histograms sum across incarnations; gauges keep the last
  // written value.
  EXPECT_EQ(it->second.counters.at("events"), 7u);
  EXPECT_EQ(it->second.histograms.at("lat_ns").count(), 2u);
  EXPECT_DOUBLE_EQ(it->second.histograms.at("lat_ns").sum(), 400.0);
  EXPECT_DOUBLE_EQ(it->second.gauges.at("level"), 2.0);
}

// --- Prometheus exposition ----------------------------------------------------

TEST(Prometheus, MetricNamesArePrefixedAndLegal) {
  EXPECT_EQ(obs::prometheus_metric_name("round_trip_ns"), "netcl_round_trip_ns");
  EXPECT_EQ(obs::prometheus_metric_name("comp1.sent"), "netcl_comp1_sent");
  EXPECT_EQ(obs::prometheus_metric_name("dropped.no-route"), "netcl_dropped_no_route");
}

TEST(Prometheus, ExpositionIsWellFormed) {
  std::map<std::string, obs::RegistrySnapshot> snapshot;
  snapshot["swd1"].counters["packets_received"] = 5;
  snapshot["swd1"].counters["packets_sent"] = 5;
  snapshot["udp"].counters["packets_received"] = 5;
  snapshot["swd1"].gauges["device.generation"] = 2.0;
  obs::Histogram latency;
  latency.record(100.0);
  latency.record(5000.0);
  snapshot["host1"].histograms["round_trip_ns"] = latency;

  const std::string text = obs::prometheus_string(snapshot);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  // Counter family: TYPE line, _total suffix, registry label.
  EXPECT_NE(text.find("# TYPE netcl_packets_received_total counter"), std::string::npos);
  EXPECT_NE(text.find("netcl_packets_received_total{registry=\"swd1\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("netcl_packets_received_total{registry=\"udp\"} 5"),
            std::string::npos);
  // Gauge keeps its name.
  EXPECT_NE(text.find("# TYPE netcl_device_generation gauge"), std::string::npos);
  // Histogram: cumulative buckets with an +Inf bound, _sum and _count.
  EXPECT_NE(text.find("# TYPE netcl_round_trip_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("netcl_round_trip_ns_bucket{registry=\"host1\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("netcl_round_trip_ns_count{registry=\"host1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("netcl_round_trip_ns_sum{registry=\"host1\"} 5100"),
            std::string::npos);
  // The aggregate traffic line a scraper can assert without knowing
  // registry names: both packets_received counters summed.
  EXPECT_NE(text.find("\nnetcl_packets_total 10\n"), std::string::npos);
  // Build identity (ISSUE 6): the same sha every BENCH_*.json is stamped
  // with, as a constant gauge with git_sha/version labels.
  EXPECT_NE(text.find("# TYPE netcl_build_info gauge"), std::string::npos);
  EXPECT_NE(text.find("netcl_build_info{git_sha=\"" +
                      std::string(obs::netcl_git_sha()) + "\",version=\"" +
                      obs::kNetclVersion + "\"} 1"),
            std::string::npos);

  // Every non-comment line is "name[{labels}] value" with a parseable
  // value — the 0.0.4 grammar a scraper depends on.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* parse_end = nullptr;
    std::strtod(line.c_str() + space + 1, &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
    const std::string series = line.substr(0, space);
    EXPECT_EQ(series.rfind("netcl_", 0), 0u) << line;
  }
}

TEST(Prometheus, HistogramBucketsAreCumulative) {
  std::map<std::string, obs::RegistrySnapshot> snapshot;
  obs::Histogram h;
  h.record(1.0);   // bucket [1,2)
  h.record(100.0); // bucket [64,128)
  snapshot["r"].histograms["h"] = h;
  const std::string text = obs::prometheus_string(snapshot);

  // The le="128" bucket (ceiling of [64,128)) must already include the
  // earlier sample — cumulative, not per-bucket.
  EXPECT_NE(text.find("netcl_h_bucket{registry=\"r\",le=\"128\"} 2"), std::string::npos);
}

TEST(Prometheus, ScrapeDuringConcurrentWritesStaysWellFormed) {
  // A writer thread hammers a live registry while the exposition renders
  // repeatedly. Counter/gauge loads are individually atomic (relaxed), so
  // a scrape mid-write sees a torn *set* of values — benign by design —
  // but every rendered document must still honor the 0.0.4 grammar.
  obs::MetricsRegistry registry("test.scrape.race");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      registry.counter("race_events").inc();
      registry.gauge("race_level").set(static_cast<double>(i % 1000));
      registry.histogram("race_ns").record(static_cast<double>(i % 4096));
      ++i;
    }
  });

  // Don't start judging until the writer is actually running — the 50
  // scrapes can otherwise complete before the thread is first scheduled.
  while (registry.counter("race_events").value() == 0) {
    std::this_thread::yield();
  }

  for (int scrape = 0; scrape < 50; ++scrape) {
    const std::string text = obs::prometheus_string(obs::snapshot_all());
    ASSERT_FALSE(text.empty());
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      const std::string line = text.substr(start, end - start);
      start = end + 1;
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      char* parse_end = nullptr;
      std::strtod(line.c_str() + space + 1, &parse_end);
      ASSERT_EQ(*parse_end, '\0') << line;
    }
  }
  stop.store(true);
  writer.join();
  // The writer made visible progress while we scraped.
  EXPECT_GT(registry.counter("race_events").value(), 0u);
}

// --- the scrape endpoint ------------------------------------------------------

std::string http_get(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const char request[] = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request, sizeof request - 1, 0),
            static_cast<ssize_t>(sizeof request - 1));
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsEndpoint, ServesPrometheusOverHttpAndControlPlane) {
  driver::CompileResult compiled = compile_calc(1);
  const KernelSpec spec = compiled.specs.at(1);
  net::SwdOptions options;
  options.metrics_port = 0;  // kernel-assigned
  net::SwdServer server(driver::make_device(std::move(compiled), 1), options);
  ASSERT_TRUE(server.valid()) << server.error();
  ASSERT_NE(server.metrics_port(), 0);
  std::thread serving([&] { server.run(); });

  // Drive one packet so packets_received is nonzero.
  {
    net::UdpTransport::Options transport_options;
    transport_options.peer_port = server.udp_port();
    net::UdpTransport transport(transport_options);
    ASSERT_TRUE(transport.valid()) << transport.error();
    HostRuntime host(transport, 1);
    host.register_spec(1, spec);
    bool done = false;
    host.on_receive([&](const Message&, ArgValues&) { done = true; });
    ArgValues args = sim::make_args(spec);
    args[0][0] = apps::kCalcAdd;
    args[1][0] = 2;
    args[2][0] = 3;
    host.send(Message(1, 0, 1, 1), args);
    ASSERT_TRUE(transport.run_until([&] { return done; }, 10e9));
  }

  // HTTP scrape.
  const std::string response = http_get(server.metrics_port());
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  EXPECT_NE(body.find("# TYPE"), std::string::npos);
  // Exact counts include retained registries from earlier tests in this
  // process, so assert presence and positivity, not a specific value.
  const std::size_t received_at =
      body.find("netcl_packets_received_total{registry=\"swd1\"} ");
  ASSERT_NE(received_at, std::string::npos);
  EXPECT_GT(std::strtod(body.c_str() + received_at +
                            std::strlen("netcl_packets_received_total{registry=\"swd1\"} "),
                        nullptr),
            0.0);
  const std::size_t aggregate_at = body.find("\nnetcl_packets_total ");
  ASSERT_NE(aggregate_at, std::string::npos);
  EXPECT_GT(std::strtod(body.c_str() + aggregate_at +
                            std::strlen("\nnetcl_packets_total "),
                        nullptr),
            0.0);
  EXPECT_NE(body.find("netcl_device_generation"), std::string::npos);

  // The same body over the control plane (kMetricsText) — for hosts that
  // already hold a control connection and for tests without HTTP.
  net::ControlClient control("127.0.0.1", server.control_port());
  std::string via_control;
  ASSERT_TRUE(control.metrics_text(via_control).ok());
  EXPECT_NE(via_control.find("netcl_packets_received_total"), std::string::npos);

  // PONG carries the daemon clock for alignment.
  std::uint16_t device_id = 0;
  std::uint32_t generation = 0;
  std::uint64_t device_clock_ns = 0;
  ASSERT_TRUE(control.ping(device_id, generation, device_clock_ns).ok());
  EXPECT_EQ(device_id, 1);
  EXPECT_GT(device_clock_ns, 0u);
  EXPECT_EQ(server.metrics_scrapes.value(), 1u);

  server.stop();
  serving.join();
}

}  // namespace
}  // namespace netcl
