// Flight recorder (ISSUE 6): lock-free ring semantics, wrap accounting,
// postmortem files, recorder-off wire identity, the kFlightDump control
// op, and the partition / retry-exhaustion anomaly trails.
//
// The recorder is a deliberately leaked process singleton, so every test
// works in deltas (counts before vs after) rather than absolute sizes,
// and re-enables recording on entry in case an earlier test disabled it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/control.hpp"
#include "net/sim_transport.hpp"
#include "net/swd_server.hpp"
#include "net/wire.hpp"
#include "obs/flightrec.hpp"
#include "obs/json.hpp"
#include "runtime/failure.hpp"
#include "runtime/host.hpp"
#include "runtime/retransmit.hpp"
#include "scoped_flight_dir.hpp"
#include "sim/fabric.hpp"

namespace netcl {
namespace {

using obs::FlightEvent;
using obs::FlightKind;
using obs::FlightRecorder;

std::uint64_t count_kind(const std::vector<FlightEvent>& events, FlightKind kind) {
  std::uint64_t count = 0;
  for (const FlightEvent& event : events) {
    if (event.kind == static_cast<std::uint16_t>(kind)) ++count;
  }
  return count;
}

/// Unique-ish scratch path under the build tree for postmortem output.
std::string scratch_base(const std::string& tag) {
  return "flightrec_test_" + tag;
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(FlightRecorder, RecordsEventsInTimestampOrder) {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  const std::uint64_t marker = 0xF11E57A7;
  obs::flight(FlightKind::kBatchSend, marker, 1);
  obs::flight(FlightKind::kBatchRecv, marker, 2);
  obs::flight(FlightKind::kPollCycle, marker, 3);

  const std::vector<FlightEvent> events = recorder.snapshot();
  std::vector<std::uint64_t> order;
  std::uint64_t last_ts = 0;
  for (const FlightEvent& event : events) {
    EXPECT_GE(event.ts_ns, last_ts);  // merged stream is sorted
    last_ts = event.ts_ns;
    if (event.a == marker) order.push_back(event.b);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  const std::uint64_t marker = 0xD15AB1ED;
  recorder.set_enabled(false);
  obs::flight(FlightKind::kBatchSend, marker, 0);
  recorder.set_enabled(true);
  std::uint64_t hits = 0;
  for (const FlightEvent& event : recorder.snapshot()) {
    if (event.a == marker) ++hits;
  }
  EXPECT_EQ(hits, 0u);
}

TEST(FlightRecorder, WrapNeverBlocksAndCountsDrops) {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  (void)recorder.snapshot();  // retire this thread's unread backlog
  const std::uint64_t dropped_before = recorder.dropped_events();

  constexpr std::uint64_t kWrites = 3 * FlightRecorder::kRingCapacity;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    obs::flight(FlightKind::kQueueFlush, i, 0);
  }
  const std::vector<FlightEvent> events = recorder.snapshot();
  // Only the newest capacity's worth survives; the overwritten 2/3 are
  // accounted as drops, and at no point did the writer block or allocate.
  EXPECT_LE(count_kind(events, FlightKind::kQueueFlush), FlightRecorder::kRingCapacity);
  EXPECT_GE(recorder.dropped_events() - dropped_before,
            kWrites - FlightRecorder::kRingCapacity);

  // The newest write is present; the oldest was overwritten.
  std::uint64_t newest = 0;
  bool saw_first = false;
  for (const FlightEvent& event : events) {
    if (event.kind != static_cast<std::uint16_t>(FlightKind::kQueueFlush)) continue;
    newest = std::max(newest, event.a);
    saw_first = saw_first || event.a == 0;
  }
  EXPECT_EQ(newest, kWrites - 1);
  EXPECT_FALSE(saw_first);
}

TEST(FlightRecorder, PostmortemFilesAreValidAndMerged) {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  recorder.set_process_label("test-host");
  obs::flight(FlightKind::kControlRequest, 1, 9);

  // A second stream 1000 ns behind the host clock, as align_clocks would
  // estimate it for a daemon that booted later.
  obs::FlightStream daemon;
  daemon.process = "test-daemon";
  daemon.offset_ns = 1000.0;
  FlightEvent remote{};
  remote.ts_ns = obs::flight_now_ns() - 1000;  // aligned: "now"
  remote.kind = static_cast<std::uint16_t>(FlightKind::kPollCycle);
  remote.a = 0xDAE;
  daemon.events.push_back(remote);

  const std::string base = scratch_base("postmortem");
  ASSERT_TRUE(recorder.write_postmortem(base, {daemon}));

  // JSONL: every line a valid JSON object, both processes present, merged
  // timeline sorted, and the daemon event shifted onto the host clock.
  std::ifstream jsonl(base + ".jsonl");
  ASSERT_TRUE(jsonl.is_open());
  std::string line;
  bool saw_host = false;
  bool saw_daemon = false;
  std::uint64_t lines = 0;
  while (std::getline(jsonl, line)) {
    ++lines;
    EXPECT_TRUE(obs::is_valid_json(line)) << line;
    saw_host = saw_host || line.find("\"test-host\"") != std::string::npos;
    if (line.find("\"test-daemon\"") != std::string::npos) {
      saw_daemon = true;
      const std::uint64_t aligned = remote.ts_ns + 1000;
      EXPECT_NE(line.find("\"ts_ns\":" + std::to_string(aligned)), std::string::npos)
          << line;
    }
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_daemon);

  // Chrome trace: one valid JSON document with a pid lane per process.
  const std::string trace = slurp(base + ".trace.json");
  EXPECT_TRUE(obs::is_valid_json(trace));
  EXPECT_NE(trace.find("process_name"), std::string::npos);
  EXPECT_NE(trace.find("test-daemon"), std::string::npos);
  std::remove((base + ".jsonl").c_str());
  std::remove((base + ".trace.json").c_str());
}

// --- recorder-off wire identity (golden bytes) --------------------------------

TEST(FlightRecorder, WireBytesIdenticalWithRecorderOnAndOff) {
  sim::Packet packet;
  packet.has_netcl = true;
  packet.netcl.src = 3;
  packet.netcl.to = 7;
  packet.netcl.comp = 1;
  packet.payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};
  packet.netcl.len = static_cast<std::uint16_t>(packet.payload.size());

  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  const std::vector<std::uint8_t> with_recorder = net::serialize_packet(packet);
  recorder.set_enabled(false);
  const std::vector<std::uint8_t> without = net::serialize_packet(packet);
  recorder.set_enabled(true);
  // The recorder observes the data plane; it must never alter the wire.
  EXPECT_EQ(with_recorder, without);
}

// --- anomaly trails -----------------------------------------------------------

TEST(FlightRecorder, PartitionLeavesOrderedHeartbeatTrail) {
  const testutil::ScopedFlightDir flight_dir;
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  const std::uint64_t misses_before =
      count_kind(recorder.snapshot(), FlightKind::kHeartbeatMiss);
  const std::uint64_t down_before =
      count_kind(recorder.snapshot(), FlightKind::kDeviceDown);
  const std::uint64_t dumps_before =
      recorder.dumps_written() + recorder.dumps_suppressed();

  sim::Fabric fabric;
  fabric.add_forwarding_device(1);
  net::SimTransport transport(fabric, 1);
  runtime::DeviceConnection connection(fabric, 1);
  runtime::FailureDetector::Config config;
  config.interval_ns = 1000.0;
  config.miss_threshold = 3;
  runtime::FailureDetector detector(
      transport,
      [&connection] {
        runtime::FailureDetector::ProbeResult result;
        runtime::PingInfo info;
        result.reachable = connection.ping_e(info).ok();
        result.generation = info.generation;
        return result;
      },
      config);
  detector.start();
  fabric.run(2500.0);  // two healthy probes
  fabric.crash_device(1);
  fabric.run(5500.0);  // misses at 3000/4000/5000 -> DOWN
  detector.stop();
  fabric.run(20000.0);
  ASSERT_FALSE(detector.up());

  const std::vector<FlightEvent> events = recorder.snapshot();
  EXPECT_EQ(count_kind(events, FlightKind::kHeartbeatMiss) - misses_before, 3u);
  EXPECT_EQ(count_kind(events, FlightKind::kDeviceDown) - down_before, 1u);
  // The trail reads in causal order: every miss precedes the transition
  // (snapshot() sorts by timestamp, so index order is time order).
  std::int64_t last_miss = -1;
  std::int64_t down_at = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == static_cast<std::uint16_t>(FlightKind::kHeartbeatMiss)) {
      last_miss = static_cast<std::int64_t>(i);
    }
    if (events[i].kind == static_cast<std::uint16_t>(FlightKind::kDeviceDown)) {
      down_at = static_cast<std::int64_t>(i);
    }
  }
  ASSERT_GE(down_at, 0);
  EXPECT_LT(last_miss, down_at);
  // The DOWN transition triggered a postmortem (written, or suppressed by
  // the rate limit if a neighboring test dumped within the last 2 s).
  EXPECT_GT(recorder.dumps_written() + recorder.dumps_suppressed(), dumps_before);
}

TEST(FlightRecorder, RetryExhaustionLeavesRetransmitTrail) {
  const testutil::ScopedFlightDir flight_dir;
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  const std::uint64_t retx_before =
      count_kind(recorder.snapshot(), FlightKind::kRetransmit);
  const std::uint64_t exhausted_before =
      count_kind(recorder.snapshot(), FlightKind::kRetriesExhausted);

  sim::Fabric fabric;
  net::SimTransport transport(fabric, 1);
  runtime::RetransmitWindow::Config config;
  config.chunks = 1;
  config.window = 1;
  config.retransmit_ns = 1000.0;
  config.max_retries = 2;
  runtime::RetransmitWindow window(transport, config, [](int, int, bool) {});
  window.start();
  fabric.run();  // never acknowledged: 2 retransmissions, then give_up
  ASSERT_TRUE(window.failed());

  const std::vector<FlightEvent> events = recorder.snapshot();
  EXPECT_EQ(count_kind(events, FlightKind::kRetransmit) - retx_before, 2u);
  EXPECT_EQ(count_kind(events, FlightKind::kRetriesExhausted) - exhausted_before, 1u);
}

// --- the kFlightDump control op -----------------------------------------------

driver::CompileResult compile_calc() {
  apps::AppSource app = apps::calc_source();
  driver::CompileOptions options;
  options.device_id = 1;
  options.defines = app.defines;
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  return compiled;
}

TEST(FlightDump, ControlOpShipsClockAlignedDaemonEvents) {
  FlightRecorder::instance().set_enabled(true);
  net::SwdServer server(driver::make_device(compile_calc(), 1), net::SwdOptions{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  net::ControlClient control("127.0.0.1", server.control_port());
  // Prime the daemon's rings: the control round trips themselves record
  // events on the serving thread (kPollCycle at minimum).
  std::uint16_t device_id = 0;
  std::uint32_t generation = 0;
  std::uint64_t device_clock_ns = 0;
  ASSERT_TRUE(control.ping(device_id, generation, device_clock_ns).ok());

  net::ControlClient::FlightDumpResult result;
  ASSERT_TRUE(control.flight_dump(/*window_seconds=*/0, result).ok());
  server.stop();
  serving.join();

  EXPECT_GT(result.device_clock_now_ns, 0u);
  ASSERT_FALSE(result.events.empty());
  for (const FlightEvent& event : result.events) {
    // Device timestamps are on the daemon clock: behind its "now", and
    // far smaller than the host's raw steady_clock (which counts from
    // boot, not daemon start).
    EXPECT_LE(event.ts_ns, result.device_clock_now_ns);
  }
  EXPECT_GT(count_kind(result.events, FlightKind::kPollCycle), 0u);

  // The midpoint offset maps the daemon's "now" into the host clock's
  // request window (align_clocks bounds the error by half the RTT, which
  // here is a local TCP round trip — comfortably under a second).
  const double aligned_now =
      static_cast<double>(result.device_clock_now_ns) + result.offset_ns;
  const double host_now = static_cast<double>(obs::flight_now_ns());
  EXPECT_NEAR(aligned_now, host_now, 1e9);

  // The merged postmortem carries both processes.
  obs::FlightStream daemon;
  daemon.process = "netcl-swd";
  daemon.offset_ns = result.offset_ns;
  daemon.events = std::move(result.events);
  const std::string base = scratch_base("flightdump");
  ASSERT_TRUE(FlightRecorder::instance().write_postmortem(base, {daemon}));
  const std::string jsonl = slurp(base + ".jsonl");
  EXPECT_NE(jsonl.find("\"netcl-swd\""), std::string::npos);
  EXPECT_NE(jsonl.find("poll_cycle"), std::string::npos);
  std::remove((base + ".jsonl").c_str());
  std::remove((base + ".trace.json").c_str());
}

}  // namespace
}  // namespace netcl
