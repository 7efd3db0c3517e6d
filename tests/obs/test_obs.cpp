#include <gtest/gtest.h>

#include <string>

#include "driver/compiler.hpp"
#include "net/sim_transport.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "runtime/host.hpp"

namespace netcl::obs {
namespace {

// --- histogram bucket math ---------------------------------------------------

TEST(Histogram, BucketMath) {
  // Bucket i holds [2^i, 2^(i+1)); bucket 0 additionally absorbs [0, 1).
  EXPECT_EQ(Histogram::bucket_for(0.0), 0);
  EXPECT_EQ(Histogram::bucket_for(0.5), 0);
  EXPECT_EQ(Histogram::bucket_for(1.0), 0);
  EXPECT_EQ(Histogram::bucket_for(1.99), 0);
  EXPECT_EQ(Histogram::bucket_for(2.0), 1);
  EXPECT_EQ(Histogram::bucket_for(3.99), 1);
  EXPECT_EQ(Histogram::bucket_for(4.0), 2);
  EXPECT_EQ(Histogram::bucket_for(1024.0), 10);
  EXPECT_EQ(Histogram::bucket_for(1e30), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_for(-5.0), 0);

  EXPECT_DOUBLE_EQ(Histogram::bucket_floor(0), 0.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_floor(1), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_floor(10), 1024.0);
}

TEST(Histogram, RecordAndSummaryStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.record(3.0);
  h.record(5.0);
  h.record(1000.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1008.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 336.0);
}

TEST(Histogram, BucketCountsPerSample) {
  Histogram h;
  h.record(3.0);    // bucket 1: [2, 4)
  h.record(5.0);    // bucket 2: [4, 8)
  h.record(5.5);    // bucket 2
  h.record(900.0);  // bucket 9: [512, 1024)
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

TEST(Histogram, PercentilesClampedToObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(100.0);
  // All mass in one bucket: every percentile must be the observed value.
  EXPECT_DOUBLE_EQ(h.percentile(0), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
}

TEST(Histogram, PercentileOrdering) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const double p50 = h.percentile(50);
  const double p90 = h.percentile(90);
  const double p99 = h.percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  // Within a power-of-two bucket, interpolation keeps p50 near the middle.
  EXPECT_GT(p50, 256.0);
  EXPECT_LT(p50, 1000.0);
}

TEST(Histogram, QuantileMatchesPercentile) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  // percentile(p) is quantile(p/100) by definition.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), h.percentile(50));
  EXPECT_DOUBLE_EQ(h.quantile(0.99), h.percentile(99));
}

TEST(Histogram, QuantileErrorBoundedOnUniformDistribution) {
  // Uniform 1..4096: the exact q-quantile is q * 4096. Power-of-two
  // buckets put at most one octave of mass in a bucket, and linear
  // interpolation inside the bucket keeps the estimate within the
  // bucket's span — a 2x worst-case multiplicative error, much tighter
  // in practice for smooth distributions.
  Histogram h;
  for (int i = 1; i <= 4096; ++i) h.record(static_cast<double>(i));
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    const double exact = q * 4096.0;
    const double estimate = h.quantile(q);
    EXPECT_GE(estimate, exact / 2.0) << "q=" << q;
    EXPECT_LE(estimate, exact * 2.0) << "q=" << q;
    // Uniform mass fills each bucket evenly, so interpolation should land
    // within 30% of the exact answer (loose; guards regressions to a
    // bucket-upper-bound readout, which would sit at a power of two).
    EXPECT_NEAR(estimate, exact, exact * 0.3) << "q=" << q;
  }
}

TEST(Histogram, QuantileErrorBoundedOnBimodalDistribution) {
  // 90% of mass at ~10, 10% at ~1000: p50 must sit in the low mode, p99
  // in the high mode — the shape that exposes mean-based shortcuts.
  Histogram h;
  for (int i = 0; i < 900; ++i) h.record(10.0);
  for (int i = 0; i < 100; ++i) h.record(1000.0);
  EXPECT_GE(h.quantile(0.5), 8.0);
  EXPECT_LE(h.quantile(0.5), 16.0);  // within 10's bucket [8, 16)
  EXPECT_GE(h.quantile(0.95), 512.0);
  EXPECT_LE(h.quantile(0.95), 1000.0);  // clamped to observed max
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);  // no samples -> 0
  Histogram one;
  one.record(42.0);
  // A single sample answers every quantile exactly.
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 42.0);
  // Out-of-range q clamps rather than reading past the buckets.
  EXPECT_DOUBLE_EQ(one.quantile(-1.0), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(2.0), 42.0);
}

TEST(Histogram, MergeIsAdditive) {
  Histogram a;
  Histogram b;
  a.record(2.0);
  a.record(4.0);
  b.record(1024.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 1030.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 1024.0);
  EXPECT_EQ(a.bucket_count(10), 1u);
}

// --- JSON validation helper --------------------------------------------------

TEST(Json, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(is_valid_json("{}"));
  EXPECT_TRUE(is_valid_json(R"({"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":"x\n"})"));
  EXPECT_FALSE(is_valid_json(""));
  EXPECT_FALSE(is_valid_json("{"));
  EXPECT_FALSE(is_valid_json(R"({"a":1,})"));
  EXPECT_FALSE(is_valid_json("{'a':1}"));
  EXPECT_FALSE(is_valid_json("{} extra"));
}

// --- metrics registry and dump ----------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistogramsAreStable) {
  MetricsRegistry reg("test_stable");
  Counter& c = reg.counter("events");
  ++c;
  c.inc(4);
  EXPECT_EQ(reg.counter("events").value(), 5u);
  // The implicit conversion keeps pre-obs call sites compiling.
  const std::uint64_t as_int = c;
  EXPECT_EQ(as_int, 5u);
  reg.gauge("occupancy").set(42.5);
  EXPECT_DOUBLE_EQ(reg.gauge("occupancy").value(), 42.5);
  reg.histogram("lat").record(7.0);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
}

TEST(MetricsRegistry, DumpStringIsValidJson) {
  MetricsRegistry reg("test_dump");
  reg.counter("packets").inc(3);
  reg.gauge("stages").set(4);
  reg.histogram("rtt_ns").record(1500.0);
  const std::string json = dump_string();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"test_dump\""), std::string::npos);
  EXPECT_NE(json.find("\"packets\":3"), std::string::npos);
  EXPECT_NE(json.find("\"rtt_ns\""), std::string::npos);
}

TEST(MetricsRegistry, DestroyedRegistriesAreRetainedAndMerged) {
  {
    MetricsRegistry reg("test_retained");
    reg.counter("runs").inc(2);
    reg.histogram("lat").record(10.0);
  }
  {
    // Same name again: values must merge additively, not overwrite.
    MetricsRegistry reg("test_retained");
    reg.counter("runs").inc(3);
    reg.histogram("lat").record(20.0);
  }
  const std::string json = dump_string();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"runs\":5"), std::string::npos) << json;
}

// --- tracer ------------------------------------------------------------------

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer;  // disabled by default
  ASSERT_FALSE(tracer.enabled());
  {
    TraceSpan span(tracer, "test", "should_not_appear");
    EXPECT_FALSE(span.active());
    span.arg("k", "v");  // must be a no-op, not a crash
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Trace, EnabledTracerRecordsCompleteEvents) {
  Tracer tracer;
  tracer.enable();
  {
    TraceSpan span(tracer, "cat", "outer");
    span.arg("answer", "42");
    TraceSpan inner(tracer, "cat", "inner");
  }
  ASSERT_EQ(tracer.events().size(), 2u);
  // Inner destructs first, so it is recorded first.
  EXPECT_EQ(tracer.events()[0].name, "inner");
  EXPECT_EQ(tracer.events()[1].name, "outer");
  EXPECT_EQ(tracer.events()[1].args.size(), 1u);
  EXPECT_GE(tracer.events()[1].dur_us, tracer.events()[0].dur_us);
}

TEST(Trace, ChromeJsonIsWellFormed) {
  Tracer tracer;
  tracer.enable();
  {
    TraceSpan span(tracer, "cat", "with \"quotes\" and \\slashes\\");
    span.arg("path", "a\\b\"c");
  }
  const std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// --- compile report ----------------------------------------------------------

TEST(CompileReport, JsonAndTextRendering) {
  CompileReport report;
  report.ok = true;
  report.netcl_loc = 10;
  report.p4_loc = 200;
  report.stages_used = 4;
  report.add_pass("simplify", 0.001, 100, 80);
  report.add_pass("dce", 0.002, 80, 60);
  report.diagnostics.push_back("warning: something");
  EXPECT_DOUBLE_EQ(report.total_pass_seconds(), 0.003);
  EXPECT_EQ(report.passes[0].delta(), -20);
  const std::string json = report.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"simplify\""), std::string::npos);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("simplify"), std::string::npos);
  EXPECT_NE(text.find("dce"), std::string::npos);
}

TEST(CompileReport, PopulatedByDriver) {
  driver::CompileOptions options;
  options.device_id = 1;
  driver::CompileResult result = driver::compile_netcl(R"(
_kernel(1) _at(1) void echo(uint32_t a, uint32_t &b) {
  b = a + 1;
  return ncl::reflect();
}
)",
                                                       options);
  ASSERT_TRUE(result.ok) << result.errors;
  EXPECT_TRUE(result.report.ok);
  EXPECT_FALSE(result.report.passes.empty());
  EXPECT_GT(result.report.stages_used, 0);
  EXPECT_TRUE(is_valid_json(result.report.to_json())) << result.report.to_json();
  // Per-pass IR sizes were filled in (the module is never empty here).
  bool saw_insts = false;
  for (const auto& pass : result.report.passes) {
    if (pass.insts_before > 0) saw_insts = true;
  }
  EXPECT_TRUE(saw_insts);
}

// --- end-to-end: deterministic counters for a round-trip workload ------------

TEST(EndToEnd, CalcRoundTripCounters) {
  driver::CompileOptions options;
  options.device_id = 1;
  driver::CompileResult compiled = driver::compile_netcl(R"(
_kernel(1) _at(1) void echo(uint32_t a, uint32_t &b) {
  b = a + 1;
  return ncl::reflect();
}
)",
                                                         options);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  const KernelSpec spec = compiled.specs.at(1);

  constexpr int kQueries = 32;
  sim::Fabric fabric;
  runtime::HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
  host.register_spec(1, spec);
  fabric.add_device(driver::make_device(std::move(compiled), 1));
  fabric.connect(sim::host_ref(1), sim::device_ref(1));
  runtime::DeviceConnection control(fabric, 1);
  ASSERT_TRUE(control.valid());

  int answered = 0;
  host.on_receive([&](const runtime::Message&, sim::ArgValues& args) {
    EXPECT_EQ(args[1][0], static_cast<std::uint64_t>(answered) + 1);
    ++answered;
  });
  for (int i = 0; i < kQueries; ++i) {
    sim::ArgValues args = sim::make_args(spec);
    args[0][0] = static_cast<std::uint64_t>(i);
    host.send(runtime::Message(1, 2, 1, 1), args);
  }
  fabric.run();

  // N sends, N receives, zero drops anywhere.
  EXPECT_EQ(answered, kQueries);
  EXPECT_EQ(host.sent, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(host.received, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(host.dropped_unregistered_send, 0u);
  EXPECT_EQ(host.dropped_no_receiver, 0u);
  EXPECT_EQ(host.dropped_unknown_computation, 0u);
  EXPECT_EQ(fabric.packets_dropped_loss, 0u);
  EXPECT_EQ(fabric.packets_dropped_action, 0u);

  // Round-trip latency histogram: one sample per answered query, in
  // simulated time, so strictly positive.
  EXPECT_EQ(host.round_trip_ns.count(), static_cast<std::uint64_t>(kQueries));
  EXPECT_GT(host.round_trip_ns.min(), 0.0);
  EXPECT_EQ(host.pack_ns.count(), static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(host.unpack_ns.count(), static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(host.metrics().counter("comp1.sent").value(),
            static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(host.metrics().counter("comp1.received").value(),
            static_cast<std::uint64_t>(kQueries));

  // Device telemetry over the control plane.
  sim::DeviceStats stats;
  ASSERT_TRUE(control.stats_e(stats).ok());
  EXPECT_EQ(stats.packets_processed, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(stats.kernels_executed, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(stats.no_kernel, 0u);
  EXPECT_EQ(stats.drops_action, 0u);
  ASSERT_FALSE(stats.stage_executions.empty());
  std::uint64_t stage_total = 0;
  for (const std::uint64_t n : stats.stage_executions) stage_total += n;
  EXPECT_GT(stage_total, 0u);
}

TEST(EndToEnd, DropAccounting) {
  sim::Fabric fabric;
  runtime::HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
  // Send with no registered spec: counted, not silently swallowed.
  host.send(runtime::Message(1, 2, 7, 1), {});
  EXPECT_EQ(host.dropped_unregistered_send, 1u);
  EXPECT_EQ(host.sent, 0u);
}

}  // namespace
}  // namespace netcl::obs
