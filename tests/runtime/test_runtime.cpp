#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/sim_transport.hpp"
#include "runtime/device_runtime.hpp"
#include "runtime/error.hpp"
#include "runtime/failure.hpp"
#include "runtime/host.hpp"
#include "runtime/retransmit.hpp"
#include "support/hashes.hpp"

namespace netcl::runtime {
namespace {

KernelSpec spec_of(const std::string& signature) {
  DiagnosticEngine diags;
  SourceBuffer buffer("t", "_kernel(1) void k(" + signature + ") {}");
  Program program = analyze_netcl(buffer, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render_all();
  return make_kernel_spec(*program.kernels()[0]);
}

TEST(Message, PackSetsHeaderFields) {
  const KernelSpec spec = spec_of("unsigned a, unsigned &b");
  const Message message(3, 9, 1, 4);
  sim::ArgValues args = sim::make_args(spec);
  args[0][0] = 77;
  const sim::Packet packet = pack(message, spec, args);
  EXPECT_TRUE(packet.has_netcl);
  EXPECT_EQ(packet.netcl.src, 3);
  EXPECT_EQ(packet.netcl.dst, 9);
  EXPECT_EQ(packet.netcl.to, 4);
  EXPECT_EQ(packet.netcl.from, 0);  // nothing has computed on it yet
  EXPECT_EQ(packet.netcl.comp, 1);
  EXPECT_EQ(packet.netcl.len, packet.payload.size());
  EXPECT_EQ(static_cast<int>(packet.payload.size()), spec.byte_size());
}

TEST(Message, PackUnpackRoundTrip) {
  const KernelSpec spec = spec_of("char op, uint64_t key, uint32_t _spec(4) *v, char &hit");
  const Message message(1, 2, 1, 1);
  sim::ArgValues args = sim::make_args(spec);
  args[0][0] = 2;
  args[1][0] = 0xA1B2C3D4E5F60708ULL;
  args[2] = {10, 20, 30, 40};
  args[3][0] = 1;
  const sim::Packet packet = pack(message, spec, args);
  const auto [message2, args2] = unpack(packet, spec);
  EXPECT_EQ(message2.src, message.src);
  EXPECT_EQ(message2.dst, message.dst);
  EXPECT_EQ(message2.comp, message.comp);
  EXPECT_EQ(args2, args);
}

TEST(HostRuntime, SendWithoutSpecIsDropped) {
  sim::Fabric fabric;
  HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
  host.send(Message(1, 2, 1, 1), {});
  EXPECT_EQ(host.sent, 0u);
}

TEST(HostRuntime, SrcIsForcedToOwnId) {
  const KernelSpec spec = spec_of("unsigned a");
  sim::Fabric fabric;
  HostRuntime alice(std::make_unique<net::SimTransport>(fabric, 1), 1);
  HostRuntime bob(std::make_unique<net::SimTransport>(fabric, 2), 2);
  alice.register_spec(1, spec);
  bob.register_spec(1, spec);
  fabric.connect(sim::host_ref(1), sim::host_ref(2));
  std::uint16_t seen_src = 0;
  bob.on_receive([&](const Message& m, sim::ArgValues&) { seen_src = m.src; });
  alice.send(Message(/*forged src*/ 42, 2, 1, 0), sim::make_args(spec));
  fabric.run();
  EXPECT_EQ(seen_src, 1);
}

TEST(HostRuntime, ExplicitTransportBehavesLikeFabricCtor) {
  const KernelSpec spec = spec_of("unsigned a");
  sim::Fabric fabric;
  net::SimTransport transport(fabric, 1);
  HostRuntime alice(transport, 1);
  HostRuntime bob(std::make_unique<net::SimTransport>(fabric, 2), 2);
  alice.register_spec(1, spec);
  bob.register_spec(1, spec);
  fabric.connect(sim::host_ref(1), sim::host_ref(2));
  int received = 0;
  bob.on_receive([&](const Message&, sim::ArgValues&) { ++received; });
  alice.send(Message(1, 2, 1, 0), sim::make_args(spec));
  fabric.run();
  EXPECT_EQ(received, 1);
  EXPECT_STREQ(alice.transport().kind(), "sim");
}

TEST(HostRuntime, StaleRoundTripsExpireAtCap) {
  const KernelSpec spec = spec_of("unsigned a");
  sim::Fabric fabric;
  // Host 2 is unreachable: no replies ever.
  HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
  host.register_spec(1, spec);
  for (std::size_t i = 0; i < HostRuntime::kMaxPendingRoundTrips + 3; ++i) {
    host.send(Message(1, 2, 1, 0), sim::make_args(spec));
  }
  EXPECT_EQ(host.sent, HostRuntime::kMaxPendingRoundTrips + 3);
  EXPECT_EQ(host.dropped_stale_round_trip, 3u);
}

// --- RetransmitWindow ---------------------------------------------------------

/// A transport whose clock only moves when the test says so, and which
/// counts the timers pending on it.
class ManualClockTransport final : public net::Transport {
 public:
  [[nodiscard]] const char* kind() const override { return "manual"; }
  void send_batch(std::span<sim::Packet>) override {}
  void schedule(double delay_ns, std::function<void()> callback) override {
    timers_.push_back({now_ns_ + delay_ns, std::move(callback)});
  }
  [[nodiscard]] double now_ns() const override { return now_ns_; }

  [[nodiscard]] std::size_t pending_timers() const { return timers_.size(); }
  /// Moves the clock to `time_ns`, firing every timer due by then at its
  /// own due time, earliest first (ties in scheduling order: min_element
  /// finds the first of equal due times).
  void advance_to(double time_ns) {
    for (;;) {
      const auto next = std::min_element(
          timers_.begin(), timers_.end(),
          [](const Timer& a, const Timer& b) { return a.due_ns < b.due_ns; });
      if (next == timers_.end() || next->due_ns > time_ns) break;
      std::function<void()> callback = std::move(next->callback);
      now_ns_ = next->due_ns;
      timers_.erase(next);
      callback();
    }
    now_ns_ = time_ns;
  }

 private:
  struct Timer {
    double due_ns;
    std::function<void()> callback;
  };
  double now_ns_ = 0.0;
  std::vector<Timer> timers_;
};

TEST(RetransmitWindow, KeepsOneTimerPerSlotHoweverFastChunksComplete) {
  // Every in-flight chunk is acknowledged at once, round after round, far
  // faster than the retransmission timeout: the transport never holds
  // more than one timer per slot, and nothing is retransmitted.
  ManualClockTransport transport;
  RetransmitWindow::Config config;
  config.chunks = 10000;
  config.window = 8;
  config.retransmit_ns = 1000.0;
  RetransmitWindow window(transport, config, [](int, int, bool) {});
  window.start();
  std::size_t most_pending = transport.pending_timers();
  double now = 0.0;
  while (!window.complete()) {
    for (int slot = 0; slot < window.stride(); ++slot) window.acknowledge_slot(slot);
    most_pending = std::max(most_pending, transport.pending_timers());
    // Time moves on, so the timers fire before their slots' deadlines and
    // re-arm.
    now += 10.0;
    transport.advance_to(now);
  }
  EXPECT_EQ(window.completed(), 10000);
  EXPECT_LE(most_pending, static_cast<std::size_t>(window.stride()));
  EXPECT_EQ(window.retransmissions(), 0u);
  transport.advance_to(now + 1e6);
  EXPECT_EQ(transport.pending_timers(), 0u);
  EXPECT_EQ(window.retransmissions(), 0u);
}

TEST(RetransmitWindow, EarlierDeadlineAfterBackoffRetransmitsOnTime) {
  // Chunk 0 backs off to a 4000 ns timeout, then is acknowledged; chunk 1,
  // chained on the same slot, must still be retransmitted after its own
  // 1000 ns, not when the backed-off timer comes due.
  ManualClockTransport transport;
  RetransmitWindow::Config config;
  config.chunks = 2;
  config.window = 1;
  config.retransmit_ns = 1000.0;
  config.backoff_factor = 4.0;
  std::vector<std::pair<int, double>> sends;  // (chunk, send time)
  RetransmitWindow window(transport, config, [&](int chunk, int, bool) {
    sends.emplace_back(chunk, transport.now_ns());
  });
  window.start();
  transport.advance_to(1100.0);  // chunk 0 retransmitted at 1000, next due 5000
  EXPECT_TRUE(window.acknowledge_slot(0));  // chunk 1 sent at 1100, due 2100
  transport.advance_to(6000.0);  // 2100: retransmitted, next due 6100
  const std::vector<std::pair<int, double>> expected = {
      {0, 0.0}, {0, 1000.0}, {1, 1100.0}, {1, 2100.0}};
  EXPECT_EQ(sends, expected);
  EXPECT_EQ(window.retransmissions(), 2u);
  // The superseded timer (due 5000) fired and was ignored; only chunk 1's
  // is pending.
  EXPECT_EQ(transport.pending_timers(), 1u);
  transport.advance_to(6100.0);
  EXPECT_EQ(sends.back(), (std::pair<int, double>{1, 6100.0}));
}

TEST(RetransmitWindow, RetransmitsUntilAcknowledged) {
  sim::Fabric fabric;
  net::SimTransport transport(fabric, 1);
  std::vector<std::pair<int, bool>> sends;  // (chunk, is_retransmission)
  RetransmitWindow::Config config;
  config.chunks = 2;
  config.window = 2;
  config.retransmit_ns = 1000.0;
  RetransmitWindow window(transport, config, [&](int chunk, int slot, bool retx) {
    EXPECT_EQ(slot, chunk % 2);
    sends.emplace_back(chunk, retx);
  });
  window.start();
  ASSERT_EQ(sends.size(), 2u);

  // Timers at 1000/2000/3000 find both chunks unacknowledged and resend.
  fabric.run(3500.0);
  EXPECT_EQ(window.retransmissions(), 6u);
  EXPECT_FALSE(window.complete());

  EXPECT_TRUE(window.acknowledge_slot(0));
  EXPECT_TRUE(window.acknowledge_slot(1));
  EXPECT_FALSE(window.acknowledge_slot(0));  // already retired
  EXPECT_FALSE(window.acknowledge_slot(9));  // off-the-wire slot, ignored
  EXPECT_TRUE(window.complete());

  // Remaining armed timers fire but find the chunks done.
  fabric.run();
  EXPECT_EQ(window.retransmissions(), 6u);
  EXPECT_EQ(sends.size(), 8u);
}

TEST(RetransmitWindow, AcknowledgeAdvancesPerSlotChain) {
  sim::Fabric fabric;
  net::SimTransport transport(fabric, 1);
  std::vector<int> launched;
  RetransmitWindow::Config config;
  config.chunks = 5;
  config.window = 2;
  config.retransmit_ns = 1e12;  // never fires in this test
  RetransmitWindow window(transport, config, [&](int chunk, int, bool) {
    launched.push_back(chunk);
  });
  window.start();
  EXPECT_EQ(window.stride(), 2);
  EXPECT_EQ(launched, (std::vector<int>{0, 1}));
  EXPECT_EQ(window.chunk_for_slot(0), 0);
  EXPECT_EQ(window.version(0), 0);
  EXPECT_EQ(window.version(2), 1);  // chunk 2 reuses slot 0, other version
  EXPECT_EQ(window.version(4), 0);

  window.acknowledge_slot(0);  // retires 0, launches 2
  EXPECT_EQ(window.chunk_for_slot(0), 2);
  window.acknowledge_slot(1);  // retires 1, launches 3
  window.acknowledge_slot(0);  // retires 2, launches 4
  window.acknowledge_slot(0);  // retires 4; nothing left for slot 0
  window.acknowledge_slot(1);  // retires 3
  EXPECT_EQ(launched, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(window.complete());
  EXPECT_EQ(window.completed(), 5);
  EXPECT_EQ(window.retransmissions(), 0u);
}

TEST(RetransmitWindow, GivesUpAfterRetryBudgetWithTypedError) {
  sim::Fabric fabric;
  net::SimTransport transport(fabric, 1);
  int sends = 0;
  RetransmitWindow::Config config;
  config.chunks = 2;
  config.window = 2;
  config.retransmit_ns = 1000.0;
  config.max_retries = 3;
  RetransmitWindow window(transport, config, [&](int, int, bool) { ++sends; });
  int error_calls = 0;
  window.on_error([&](const Error& error) {
    ++error_calls;
    EXPECT_EQ(error.kind, ErrorKind::kRetriesExhausted);
  });
  window.start();
  EXPECT_EQ(sends, 2);

  // Nothing ever acknowledges: each chunk sends 3 retransmissions, then
  // the first exhausted chunk fails the window and drains it.
  fabric.run();
  EXPECT_TRUE(window.failed());
  EXPECT_EQ(window.last_error().kind, ErrorKind::kRetriesExhausted);
  EXPECT_EQ(error_calls, 1);
  EXPECT_LE(window.retransmissions(), 6u);  // ≤ max_retries per chunk
  EXPECT_FALSE(window.complete());
  // Inert afterwards: late responses are ignored, nothing new is sent.
  EXPECT_FALSE(window.acknowledge_slot(0));
  EXPECT_FALSE(window.acknowledge_slot(1));
  const int sends_after_failure = sends;
  fabric.run();
  EXPECT_EQ(sends, sends_after_failure);
}

TEST(RetransmitWindow, BackoffScheduleIsExponentialAndCapped) {
  sim::Fabric fabric;
  net::SimTransport transport(fabric, 1);
  RetransmitWindow::Config config;
  config.chunks = 1;
  config.window = 1;
  config.retransmit_ns = 1000.0;
  config.max_retries = 5;
  config.backoff_factor = 2.0;
  config.backoff_max_ns = 4000.0;
  std::vector<double> send_times;
  RetransmitWindow window(transport, config,
                          [&](int, int, bool) { send_times.push_back(transport.now_ns()); });

  // The closed-form schedule: 1000, 2000, 4000 (cap), 4000, ...
  EXPECT_DOUBLE_EQ(window.retry_delay_ns(0), 1000.0);
  EXPECT_DOUBLE_EQ(window.retry_delay_ns(1), 2000.0);
  EXPECT_DOUBLE_EQ(window.retry_delay_ns(2), 4000.0);
  EXPECT_DOUBLE_EQ(window.retry_delay_ns(3), 4000.0);

  window.start();
  fabric.run();
  EXPECT_TRUE(window.failed());
  // Transmissions at 0, +1000, +2000, +4000, +4000, +4000 on the sim clock.
  ASSERT_EQ(send_times.size(), 6u);
  const std::vector<double> expected = {0.0, 1000.0, 3000.0, 7000.0, 11000.0, 15000.0};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(send_times[i], expected[i]) << "transmission " << i;
  }
}

TEST(RetransmitWindow, DefaultConfigNeverGivesUp) {
  sim::Fabric fabric;
  net::SimTransport transport(fabric, 1);
  RetransmitWindow::Config config;
  config.chunks = 1;
  config.window = 1;
  config.retransmit_ns = 1000.0;
  RetransmitWindow window(transport, config, [](int, int, bool) {});
  window.start();
  fabric.run(100000.0);
  EXPECT_FALSE(window.failed());
  EXPECT_EQ(window.retransmissions(), 100u);  // fixed 1000 ns cadence
}

TEST(RetransmitWindow, TimerAfterDestructionIsNoOp) {
  sim::Fabric fabric;
  net::SimTransport transport(fabric, 1);
  int sends = 0;
  {
    RetransmitWindow::Config config;
    config.chunks = 1;
    config.window = 1;
    config.retransmit_ns = 1000.0;
    RetransmitWindow window(transport, config, [&](int, int, bool) { ++sends; });
    window.start();
    EXPECT_EQ(sends, 1);
    // The retransmission timer is armed on the fabric; the window dies now.
  }
  // The armed timer fires after the window's destruction: the weak token
  // must make it a no-op instead of a use-after-free.
  fabric.run();
  EXPECT_EQ(sends, 1);
}

TEST(DeviceConnection, InvalidDeviceId) {
  sim::Fabric fabric;
  DeviceConnection connection(fabric, 99);
  EXPECT_FALSE(connection.valid());
  // The typed forms name the failure: no device attached → kDisconnected.
  EXPECT_EQ(connection.managed_write_e("x", 1).kind, runtime::ErrorKind::kDisconnected);
  std::uint64_t out = 0;
  EXPECT_EQ(connection.managed_read_e("x", out).kind, runtime::ErrorKind::kDisconnected);
}

// --- failure detection and fallback (ISSUE 3) --------------------------------

driver::CompileResult compile_app(const std::string& source, const DefineMap& defines) {
  driver::CompileOptions options;
  options.device_id = 1;
  options.defines = defines;
  driver::CompileResult compiled = driver::compile_netcl(source, options);
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  return compiled;
}

/// A detector probing device 1 of `fabric` through `connection`.
FailureDetector::ProbeFn probe_of(DeviceConnection& connection) {
  return [&connection] {
    FailureDetector::ProbeResult result;
    runtime::PingInfo info;
    result.reachable = connection.ping_e(info).ok();
    result.generation = info.generation;
    return result;
  };
}

TEST(FailureDetector, DeclaresDownAfterMissThresholdAndRecovers) {
  sim::Fabric fabric;
  fabric.add_forwarding_device(1);
  net::SimTransport transport(fabric, 1);
  DeviceConnection connection(fabric, 1);
  obs::MetricsRegistry metrics("failure_test");
  FailureDetector::Config config;
  config.interval_ns = 1000.0;
  config.miss_threshold = 3;
  FailureDetector detector(transport, probe_of(connection), config, &metrics);
  std::vector<std::pair<FailureDetector::State, bool>> transitions;
  detector.subscribe([&](FailureDetector::State state, bool generation_changed) {
    transitions.emplace_back(state, generation_changed);
  });
  detector.start();

  // Healthy probes at 1000 and 2000 learn the baseline generation.
  fabric.run(2500.0);
  EXPECT_TRUE(detector.up());
  EXPECT_EQ(detector.generation(), 1u);
  EXPECT_TRUE(transitions.empty());

  // Crash: misses at 3000/4000 stay UP, the third at 5000 flips to DOWN.
  fabric.crash_device(1);
  fabric.run(4500.0);
  EXPECT_TRUE(detector.up());
  EXPECT_EQ(detector.consecutive_misses(), 2);
  fabric.run(5500.0);
  EXPECT_FALSE(detector.up());
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0], std::make_pair(FailureDetector::State::kDown, false));
  EXPECT_EQ(metrics.gauge("device_up").value(), 0.0);
  EXPECT_EQ(metrics.counter("failovers").value(), 1u);

  // Power-cycle: the next probe sees the device up with a new generation.
  fabric.restart_device(1);
  fabric.run(6500.0);
  detector.stop();
  fabric.run(20000.0);
  EXPECT_TRUE(detector.up());
  EXPECT_EQ(detector.generation(), 2u);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1], std::make_pair(FailureDetector::State::kUp, true));
  EXPECT_EQ(metrics.counter("recoveries").value(), 1u);
  EXPECT_EQ(metrics.counter("generation_changes").value(), 1u);
  EXPECT_EQ(metrics.histogram("failover_latency_ns").count(), 1u);
  EXPECT_EQ(metrics.gauge("device_up").value(), 1.0);
  // stop() invalidated the heartbeat: no probes ran after 6500.
  EXPECT_EQ(metrics.counter("heartbeats.ok").value() + metrics.counter("heartbeats.missed"),
            6u);
}

TEST(FailureDetector, InPlaceGenerationChangeNotifiesWhileUp) {
  sim::Fabric fabric;
  fabric.add_forwarding_device(1);
  net::SimTransport transport(fabric, 1);
  DeviceConnection connection(fabric, 1);
  FailureDetector::Config config;
  config.interval_ns = 1000.0;
  config.miss_threshold = 3;
  FailureDetector detector(transport, probe_of(connection), config);
  std::vector<bool> generation_flags;
  detector.subscribe([&](FailureDetector::State state, bool generation_changed) {
    EXPECT_EQ(state, FailureDetector::State::kUp);
    generation_flags.push_back(generation_changed);
  });
  detector.start();
  fabric.run(1500.0);
  // Restart faster than a heartbeat interval: never observed DOWN, but the
  // generation jump must still be reported.
  fabric.crash_device(1);
  fabric.restart_device(1);
  fabric.run(2500.0);
  detector.stop();
  fabric.run(5000.0);
  EXPECT_EQ(generation_flags, std::vector<bool>{true});
}

TEST(Fallback, FailFastSurfacesTypedErrorWhileDown) {
  const KernelSpec spec = spec_of("unsigned a, unsigned &b");
  sim::Fabric fabric;
  fabric.add_forwarding_device(1);
  fabric.connect(sim::host_ref(1), sim::device_ref(1));
  HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
  host.register_spec(1, spec);
  DeviceConnection connection(fabric, 1);
  FailureDetector::Config config;
  config.interval_ns = 1000.0;
  config.miss_threshold = 2;
  FailureDetector detector(host.transport(), probe_of(connection), config);
  host.attach_failure_detector(detector);
  host.set_fallback_policy(FallbackPolicy::kFailFast);
  detector.start();

  fabric.crash_device(1);
  fabric.run(2500.0);  // misses at 1000 and 2000 -> DOWN
  ASSERT_FALSE(detector.up());

  Error seen;
  host.on_error([&](const Error& error) { seen = error; });
  host.send(Message(1, 0, 1, 1), sim::make_args(spec));
  EXPECT_EQ(host.sent, 0u);
  EXPECT_EQ(host.fallback_fail_fast, 1u);
  EXPECT_EQ(seen.kind, ErrorKind::kDeviceDown);
  EXPECT_EQ(host.last_error().kind, ErrorKind::kDeviceDown);
  detector.stop();
}

TEST(Fallback, QueueUntilRecoveredFlushesAndResyncs) {
  auto compiled = compile_app(R"(
    _kernel(1) void k(unsigned a, unsigned &b) { b = a + 7; return ncl::reflect(); }
  )",
                              {});
  const KernelSpec spec = compiled.specs.at(1);
  sim::Fabric fabric;
  fabric.add_device(driver::make_device(std::move(compiled), 1));
  fabric.connect(sim::host_ref(1), sim::device_ref(1));
  HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
  host.register_spec(1, spec);
  DeviceConnection connection(fabric, 1);
  FailureDetector::Config config;
  config.interval_ns = 1000.0;
  config.miss_threshold = 2;
  FailureDetector detector(host.transport(), probe_of(connection), config);
  host.attach_failure_detector(detector);
  host.set_fallback_policy(FallbackPolicy::kQueueUntilRecovered);
  int resyncs = 0;
  host.on_resync([&] { ++resyncs; });
  detector.start();

  int received = 0;
  host.on_receive([&](const Message&, sim::ArgValues&) { ++received; });

  // Learn the baseline generation, then crash and detect.
  fabric.run(1500.0);
  fabric.crash_device(1);
  fabric.run(4500.0);
  ASSERT_FALSE(detector.up());

  for (int i = 0; i < 3; ++i) {
    sim::ArgValues args = sim::make_args(spec);
    args[0][0] = static_cast<std::uint64_t>(i);
    host.send(Message(1, 0, 1, 1), args);
  }
  EXPECT_EQ(host.sent, 0u);
  EXPECT_EQ(host.fallback_queued, 3u);
  EXPECT_EQ(received, 0);

  // Recovery flushes the queue (after the resync hook, since the restart
  // changed the generation).
  fabric.restart_device(1);
  fabric.run(10000.0);
  detector.stop();
  fabric.run(20000.0);
  EXPECT_TRUE(detector.up());
  EXPECT_EQ(resyncs, 1);
  EXPECT_EQ(host.fallback_flushed, 3u);
  EXPECT_EQ(host.sent, 3u);
  EXPECT_EQ(received, 3);
}

TEST(Fallback, HostExecuteIsByteIdenticalToUninterruptedRun) {
  apps::AppSource app = apps::calc_source();
  const KernelSpec spec = compile_app(app.source, app.defines).specs.at(1);

  struct Op {
    std::uint64_t code, a, b;
  };
  SplitMix64 rng(11);
  std::vector<Op> ops;
  for (int i = 0; i < 16; ++i) {
    ops.push_back({1 + rng.next_below(5), rng.next() & 0xFFFFFFFF, rng.next() & 0xFFFFFFFF});
  }

  // Runs all ops sequentially (send i+1 once i answered), with a per-op
  // resend timer so ops lost to a crash-before-detection are retried.
  // With crash_at > 0 the device dies mid-run and never comes back; the
  // shadow device must take over.
  auto run = [&](double crash_at_ns) {
    auto compiled = compile_app(app.source, app.defines);
    sim::Fabric fabric(3);
    fabric.add_device(driver::make_device(std::move(compiled), 1));
    fabric.connect(sim::host_ref(1), sim::device_ref(1));
    HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
    host.register_spec(1, spec);
    DeviceConnection connection(fabric, 1);
    FailureDetector::Config config;
    config.interval_ns = 1000.0;
    config.miss_threshold = 2;
    FailureDetector detector(host.transport(), probe_of(connection), config);
    host.attach_failure_detector(detector);
    host.set_fallback_policy(FallbackPolicy::kHostExecute);
    host.set_shadow_device(driver::make_device(compile_app(app.source, app.defines), 1));
    detector.start();

    std::vector<std::vector<std::uint8_t>> results;
    std::function<void(std::size_t)> send_op = [&](std::size_t i) {
      if (results.size() > i) return;
      sim::ArgValues args = sim::make_args(spec);
      args[0][0] = ops[i].code;
      args[1][0] = ops[i].a;
      args[2][0] = ops[i].b;
      host.send(Message(1, 0, 1, 1), args);
      host.transport().schedule(5000.0, [&send_op, &results, i] {
        if (results.size() <= i) send_op(i);
      });
    };
    host.on_receive([&](const Message&, sim::ArgValues& args) {
      results.push_back(sim::encode_args(spec, args));
      if (results.size() < ops.size()) {
        send_op(results.size());
      } else {
        detector.stop();
      }
    });
    if (crash_at_ns > 0.0) {
      fabric.schedule(crash_at_ns, [](sim::Fabric& f) { f.crash_device(1); });
    }
    send_op(0);
    fabric.run(1e9);
    EXPECT_EQ(results.size(), ops.size());
    if (crash_at_ns > 0.0) {
      EXPECT_GT(host.fallback_host_executed, 0u);
    }
    return results;
  };

  const auto uninterrupted = run(0.0);
  const auto crashed = run(4200.0);  // mid-run, between two ops
  ASSERT_EQ(uninterrupted.size(), ops.size());
  EXPECT_EQ(crashed, uninterrupted);
}

TEST(Fallback, HostExecuteCountsDropsAndUnknownComputations) {
  // The shadow device accounts a packet exactly as the device would: a
  // kernel's drop() is a drops_action, a computation with no kernel a
  // no_kernel that still passes through.
  apps::AppSource app = apps::calc_source();
  auto compiled = compile_app(app.source, app.defines);
  const KernelSpec spec = compiled.specs.at(1);
  sim::Fabric fabric(3);
  fabric.add_device(driver::make_device(std::move(compiled), 1));
  fabric.connect(sim::host_ref(1), sim::device_ref(1));
  HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
  host.register_spec(1, spec);
  host.register_spec(9, spec);
  DeviceConnection connection(fabric, 1);
  FailureDetector::Config config;
  config.interval_ns = 1000.0;
  config.miss_threshold = 2;
  FailureDetector detector(host.transport(), probe_of(connection), config);
  host.attach_failure_detector(detector);
  host.set_fallback_policy(FallbackPolicy::kHostExecute);
  auto shadow_device = driver::make_device(compile_app(app.source, app.defines), 1);
  const sim::SwitchDevice& shadow = *shadow_device;
  host.set_shadow_device(std::move(shadow_device));
  detector.start();
  std::vector<int> delivered;
  host.on_receive([&](const Message& message, sim::ArgValues&) {
    delivered.push_back(message.comp);
  });

  fabric.run(1500.0);
  fabric.crash_device(1);
  fabric.run(4500.0);
  ASSERT_FALSE(detector.up());

  sim::ArgValues args = sim::make_args(spec);
  args[0][0] = 0xEE;  // no such opcode: the kernel drops
  host.send(Message(1, 1, 1, 1), args);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(shadow.stats.drops_action, 1u);

  args[0][0] = apps::kCalcAdd;
  host.send(Message(1, 1, 9, 1), args);
  EXPECT_EQ(delivered, std::vector<int>{9});
  EXPECT_EQ(shadow.stats.no_kernel, 1u);
  EXPECT_EQ(host.fallback_host_executed, 2u);
  detector.stop();
}

TEST(DeviceConnection, ResyncReplaysJournalAfterRestart) {
  auto compiled = compile_app(R"(
    _managed_ unsigned thresh;
    _managed_ _lookup_ ncl::kv<uint64_t, uint32_t> route[16];
    _kernel(1) void k(uint64_t key, char &found, uint32_t &val) {
      found = ncl::lookup(route, key, val);
    }
  )",
                              {});
  sim::Fabric fabric;
  fabric.add_device(driver::make_device(std::move(compiled), 1));
  DeviceConnection connection(fabric, 1);
  ASSERT_TRUE(connection.valid());
  ASSERT_TRUE(connection.managed_write_e("thresh", 500).ok());
  ASSERT_TRUE(connection.insert_e("route", 7, 70).ok());
  ASSERT_TRUE(connection.insert_e("route", 8, 80).ok());
  ASSERT_TRUE(connection.remove_e("route", 8).ok());

  // Table contents are only observable the way a packet would see them.
  auto lookup = [&](std::uint64_t key, std::uint64_t& out) {
    sim::ArgValues args = {{key}, {0}, {0}};
    fabric.device(1)->execute(1, args, {});
    out = args[2][0];
    return args[1][0] != 0;
  };

  // A restart wipes the offloaded state...
  fabric.crash_device(1);
  fabric.restart_device(1);
  std::uint64_t value = 0;
  ASSERT_TRUE(connection.managed_read_e("thresh", value).ok());
  EXPECT_EQ(value, 0u);
  EXPECT_FALSE(lookup(7, value));

  // ...and resync() restores exactly the journaled state.
  EXPECT_TRUE(connection.resync_e().ok());
  EXPECT_EQ(connection.resyncs(), 1u);
  ASSERT_TRUE(connection.managed_read_e("thresh", value).ok());
  EXPECT_EQ(value, 500u);
  ASSERT_TRUE(lookup(7, value));
  EXPECT_EQ(value, 70u);
  // The removed key must stay removed.
  EXPECT_FALSE(lookup(8, value));
}

TEST(FailureDetector, ProbeTimerAfterDestructionIsNoOp) {
  sim::Fabric fabric;
  fabric.add_forwarding_device(1);
  net::SimTransport transport(fabric, 1);
  int probes = 0;
  {
    FailureDetector::Config config;
    config.interval_ns = 1000.0;
    FailureDetector detector(
        transport,
        [&] {
          ++probes;
          return FailureDetector::ProbeResult{true, 1};
        },
        config);
    detector.start();
  }
  fabric.run(5000.0);
  EXPECT_EQ(probes, 0);
}

// --- the device runtime action table (Table II semantics) --------------------

struct ActionCase {
  ActionKind action;
  std::uint16_t target;
  std::uint16_t from_before;  // previous computing device (0 = none)
  // expectations:
  bool drop;
  bool multicast;
  std::uint16_t dst_after;
  std::uint16_t to_after;
};

// Without this, gtest names each case by a byte dump of the struct, padding
// included, which can change between builds.
void PrintTo(const ActionCase& c, std::ostream* os) {
  *os << netcl::to_string(c.action) << "(" << c.target << ")";
}

class DeviceRuntimeActions : public ::testing::TestWithParam<ActionCase> {};

TEST_P(DeviceRuntimeActions, RewritesHeader) {
  const ActionCase& c = GetParam();
  sim::NetclHeader header;
  header.src = 1;
  header.dst = 2;
  header.from = c.from_before;
  header.to = 5;  // this device
  const ForwardDecision decision = apply_action(header, c.action, c.target, /*device=*/5);
  EXPECT_EQ(decision.drop, c.drop);
  EXPECT_EQ(decision.multicast, c.multicast);
  EXPECT_EQ(header.from, 5) << "from must always become the computing device";
  if (!c.drop && !c.multicast) {
    EXPECT_EQ(header.dst, c.dst_after);
    EXPECT_EQ(header.to, c.to_after);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table2, DeviceRuntimeActions,
    ::testing::Values(
        // action, target, from_before, drop, mcast, dst_after, to_after
        ActionCase{ActionKind::Drop, 0, 0, true, false, 0, 0},
        ActionCase{ActionKind::Pass, 0, 0, false, false, 2, 0},
        ActionCase{ActionKind::None, 0, 0, false, false, 2, 0},
        ActionCase{ActionKind::SendToHost, 9, 0, false, false, 9, 0},
        ActionCase{ActionKind::SendToDevice, 7, 0, false, false, 2, 7},
        ActionCase{ActionKind::Multicast, 42, 0, false, true, 0, 0},
        // reflect with no previous device: back to the source host
        ActionCase{ActionKind::Reflect, 0, 0, false, false, 1, 0},
        // reflect with a previous computing device: back to that device
        ActionCase{ActionKind::Reflect, 0, 3, false, false, 2, 3},
        // reflect_long: always back to the source host
        ActionCase{ActionKind::ReflectLong, 0, 3, false, false, 1, 0}),
    [](const ::testing::TestParamInfo<ActionCase>& info) {
      return netcl::to_string(info.param.action) + "_from" +
             std::to_string(info.param.from_before);
    });

}  // namespace
}  // namespace netcl::runtime
