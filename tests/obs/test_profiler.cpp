// Sampling CPU profiler (ISSUE 9): capture and symbolization of a busy
// thread, folded-stack grammar, dump files, the SIGUSR1 latch, and the
// kProfileDump control op over a real TCP control connection.
//
// The profiler is a process singleton (like the flight recorder), so
// every test works in deltas and stops the profiler on exit.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/control.hpp"
#include "net/swd_server.hpp"
#include "obs/profiler.hpp"
#include "scoped_flight_dir.hpp"

namespace netcl {

// External linkage + noinline so dladdr can symbolize it from the test
// binary's dynamic symbol table (executables link with
// CMAKE_ENABLE_EXPORTS) and the optimizer cannot fold it into the caller.
__attribute__((noinline)) std::uint64_t profiler_test_busy_loop(std::uint64_t rounds) {
  volatile std::uint64_t acc = 1;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    acc = acc * 2862933555777941757ull + 3037000493ull;
  }
  return acc;
}

namespace {

using obs::Profiler;

/// Burns CPU on the calling thread until the profiler has captured
/// `want_samples` more samples than `baseline` (or a wall-clock deadline
/// passes — CPU-time sampling needs real cycles, not wall time).
std::uint64_t burn_until_sampled(std::uint64_t baseline, std::uint64_t want_samples) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::uint64_t sink = 0;
  while (Profiler::instance().sample_count() < baseline + want_samples &&
         std::chrono::steady_clock::now() < deadline) {
    sink += profiler_test_busy_loop(100000);
  }
  return sink;
}

/// Folded-stack grammar: every line is "frame(;frame)* count" with
/// non-empty frames, no quote or newline contamination, positive counts.
/// Collects the distinct frames seen when `out_frames` is non-null.
/// (ASSERT_* requires a void function, hence the out-parameter.)
void check_folded_grammar(const std::string& folded,
                          std::set<std::string>* out_frames = nullptr) {
  std::set<std::string> frames;
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_GT(std::strtoull(count.c_str(), nullptr, 10), 0u) << line;
    const std::string stack = line.substr(0, space);
    std::size_t pos = 0;
    while (pos <= stack.size()) {
      std::size_t semi = stack.find(';', pos);
      if (semi == std::string::npos) semi = stack.size();
      const std::string frame = stack.substr(pos, semi - pos);
      ASSERT_FALSE(frame.empty()) << line;
      ASSERT_EQ(frame.find('"'), std::string::npos) << line;
      frames.insert(frame);
      pos = semi + 1;
    }
  }
  if (out_frames != nullptr) *out_frames = std::move(frames);
}

TEST(Profiler, CapturesAndSymbolizesBusyThread) {
  Profiler& profiler = Profiler::instance();
  obs::profile_register_thread();
  const std::uint64_t before = profiler.sample_count();
  ASSERT_TRUE(profiler.start(997));
  EXPECT_TRUE(profiler.running());
  EXPECT_EQ(profiler.hz(), 997);
  EXPECT_GE(profiler.thread_count(), 1u);

  burn_until_sampled(before, 25);
  profiler.stop();
  EXPECT_FALSE(profiler.running());
  ASSERT_GE(profiler.sample_count() - before, 25u)
      << "997 Hz CPU-time sampling captured almost nothing while spinning";

  const obs::ProfileSnapshot snapshot = profiler.snapshot();
  EXPECT_GE(snapshot.samples, 25u);
  const std::string folded = profiler.folded_string();
  ASSERT_FALSE(folded.empty());
  // The busy function dominates this thread's cycles; dladdr +
  // __cxa_demangle must render it by name.
  EXPECT_NE(folded.find("profiler_test_busy_loop"), std::string::npos) << folded;

  std::set<std::string> frames;
  ASSERT_NO_FATAL_FAILURE(check_folded_grammar(folded, &frames));
  EXPECT_GE(frames.size(), 2u) << folded;  // at least label + leaf
}

TEST(Profiler, StoppedProfilerCapturesNothing) {
  Profiler& profiler = Profiler::instance();
  profiler.stop();
  const std::uint64_t before = profiler.sample_count();
  volatile std::uint64_t sink = profiler_test_busy_loop(2000000);
  (void)sink;
  EXPECT_EQ(profiler.sample_count(), before);
}

TEST(Profiler, TriggerProfileDumpWritesFoldedFile) {
  const testutil::ScopedFlightDir flight_dir;
  Profiler& profiler = Profiler::instance();
  // Make sure the cumulative profile is non-empty even if this test runs
  // first in the binary.
  obs::profile_register_thread();
  const std::uint64_t before = profiler.sample_count();
  ASSERT_TRUE(profiler.start(997));
  burn_until_sampled(before, 5);
  profiler.stop();

  const std::uint64_t dumps_before = profiler.dumps_written();
  const std::string path = profiler.trigger_profile_dump();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(profiler.dumps_written(), dumps_before + 1);
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  EXPECT_FALSE(text.str().empty());
  ASSERT_NO_FATAL_FAILURE(check_folded_grammar(text.str()));
}

TEST(Profiler, Sigusr1LatchIsConsumedExactlyOnce) {
  // Drain any latch left by an earlier test.
  (void)Profiler::consume_signal_dump();
  EXPECT_FALSE(Profiler::consume_signal_dump());
  Profiler::request_signal_dump();
  EXPECT_TRUE(Profiler::consume_signal_dump());
  EXPECT_FALSE(Profiler::consume_signal_dump());

  // The installed handler sets the same latch from a real SIGUSR1.
  Profiler::install_signal_handler();
  ASSERT_EQ(std::raise(SIGUSR1), 0);
  EXPECT_TRUE(Profiler::consume_signal_dump());
  EXPECT_FALSE(Profiler::consume_signal_dump());
}

TEST(Profiler, StartClampsRateAndIsIdempotent) {
  Profiler& profiler = Profiler::instance();
  ASSERT_TRUE(profiler.start(0));  // clamped up to 1
  EXPECT_GE(profiler.hz(), 1);
  ASSERT_TRUE(profiler.start(1000000));  // clamped down to 10000
  EXPECT_LE(profiler.hz(), 10000);
  ASSERT_TRUE(profiler.start(997));
  EXPECT_EQ(profiler.hz(), 997);
  profiler.stop();
  profiler.stop();  // double-stop is harmless
  EXPECT_FALSE(profiler.running());
}

// --- the kProfileDump control op over real TCP --------------------------------

driver::CompileResult compile_calc() {
  apps::AppSource app = apps::calc_source();
  driver::CompileOptions options;
  options.device_id = 1;
  options.defines = app.defines;
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  return compiled;
}

TEST(ProfileDump, ControlOpOverTcpReturnsTextAndWritesFile) {
  const testutil::ScopedFlightDir flight_dir;
  net::SwdOptions options;
  options.profile_hz = 997;  // the server ctor starts the profiler
  net::SwdServer server(driver::make_device(compile_calc(), 1), options);
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  // The profiler samples every registered thread; the serving thread
  // registers in poll_once, and this thread registers here and burns CPU
  // so the process-wide profile is guaranteed non-empty.
  Profiler& profiler = Profiler::instance();
  obs::profile_register_thread();
  const std::uint64_t before = profiler.sample_count();
  burn_until_sampled(before, 10);

  net::ControlClient control("127.0.0.1", server.control_port());
  net::ControlClient::ProfileDumpResult result;
  ASSERT_TRUE(
      control.profile_dump(net::kProfileWriteFile | net::kProfileReturnText, result).ok());
  server.stop();
  serving.join();
  profiler.stop();

  EXPECT_EQ(result.hz, 997u);
  EXPECT_GT(result.samples, 0u);
  EXPECT_GT(result.distinct_stacks, 0u);
  ASSERT_FALSE(result.folded.empty());
  ASSERT_NO_FATAL_FAILURE(check_folded_grammar(result.folded));
  // kProfileWriteFile also landed a .folded next to the flight dumps.
  ASSERT_FALSE(result.path.empty());
  std::ifstream file(result.path);
  ASSERT_TRUE(file.is_open()) << result.path;
  std::ostringstream text;
  text << file.rdbuf();
  EXPECT_FALSE(text.str().empty());
}

TEST(ProfileDump, ControlOpWithoutFlagsReportsStateOnly) {
  net::SwdOptions options;  // profiler not started by this server
  net::SwdServer server(driver::make_device(compile_calc(), 1), options);
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });
  Profiler::instance().stop();

  net::ControlClient control("127.0.0.1", server.control_port());
  net::ControlClient::ProfileDumpResult result;
  ASSERT_TRUE(control.profile_dump(0, result).ok());
  server.stop();
  serving.join();

  EXPECT_EQ(result.hz, 0u);  // profiler off -> hz reports 0
  EXPECT_TRUE(result.path.empty());
  EXPECT_TRUE(result.folded.empty());
}

}  // namespace
}  // namespace netcl
