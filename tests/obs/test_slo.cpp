// Per-tenant SLO engine (ISSUE 9): sliding-window burn-rate math, the
// multi-window alerting state machine, edge-triggered fast-burn
// callbacks, Prometheus exposition (tenant + window labels), scrapes
// racing updates, and the fast-burn -> flight-recorder postmortem wiring
// the daemon installs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/prometheus.hpp"
#include "obs/slo.hpp"
#include "scoped_flight_dir.hpp"

namespace netcl::obs {
namespace {

/// Minimal exposition-grammar check: every non-comment line is
/// "name{labels} value" with a netcl_ name and a parseable value.
void check_exposition_grammar(const std::string& body) {
  std::size_t pos = 0;
  std::uint64_t samples = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_EQ(line.compare(0, 6, "netcl_"), 0) << line;
    char* parsed_end = nullptr;
    std::strtod(line.c_str() + space + 1, &parsed_end);
    ASSERT_NE(parsed_end, line.c_str() + space + 1) << line;
    ++samples;
  }
  ASSERT_GT(samples, 0u);
}

/// The current value of the first series whose name starts with `prefix`
/// and contains every string in `needles`; nullopt when absent.
double series_value(const std::string& body, const std::string& prefix,
                    const std::vector<std::string>& needles, bool* found) {
  *found = false;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    bool all = true;
    for (const std::string& needle : needles) {
      all = all && line.find(needle) != std::string::npos;
    }
    if (!all) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    *found = true;
    return std::strtod(line.c_str() + space + 1, nullptr);
  }
  return 0.0;
}

// --- SloTracker ---------------------------------------------------------------

TEST(SloTracker, BurnRateIsBadFractionOverBudget) {
  SloObjective objective;
  objective.availability_target = 0.9;  // error budget 0.1
  SloTracker tracker(objective);
  const double now = 100.0;
  for (int i = 0; i < 9; ++i) tracker.record_good(now);
  tracker.record_bad(now);
  // 10% bad / 10% budget = burning at exactly the sustainable pace.
  EXPECT_NEAR(tracker.burn_rate(5.0, now), 1.0, 1e-9);
  EXPECT_NEAR(tracker.burn_rate(60.0, now), 1.0, 1e-9);
  // The events slide out of the short window.
  EXPECT_DOUBLE_EQ(tracker.burn_rate(5.0, now + 30.0), 0.0);
  // All-bad traffic burns at 1/budget.
  SloTracker flooded(objective);
  for (int i = 0; i < 50; ++i) flooded.record_bad(200.0);
  EXPECT_NEAR(flooded.burn_rate(5.0, 200.0), 10.0, 1e-9);
}

TEST(SloTracker, LatencyThresholdSplitsGoodFromBad) {
  SloObjective objective;
  objective.latency_threshold_ns = 100.0;
  objective.availability_target = 0.99;
  SloTracker tracker(objective);
  tracker.record_latency(50.0, 10.0);    // under threshold: good
  tracker.record_latency(100.0, 10.0);   // at threshold: good
  tracker.record_latency(500.0, 10.0);   // over: bad
  EXPECT_EQ(tracker.good_total(), 2u);
  EXPECT_EQ(tracker.bad_total(), 1u);
  // Without a threshold every served event is good.
  SloTracker availability_only(SloObjective{});
  availability_only.record_latency(1e12, 10.0);
  EXPECT_EQ(availability_only.good_total(), 1u);
  EXPECT_EQ(availability_only.bad_total(), 0u);
}

TEST(SloTracker, FastBurnNeedsShortAndLongWindows) {
  SloObjective objective;
  objective.availability_target = 0.999;  // all-bad burn = 1000 >> 14.4
  SloTracker tracker(objective);
  // One bad second long ago: present in the long window but not the
  // short one -> no fast burn even though the long-window burn is huge
  // (the state machine refuses to page on a single old bad batch).
  for (int i = 0; i < 10; ++i) tracker.record_bad(0.0);
  for (double t = 1.0; t <= 20.0; t += 1.0) {
    for (int i = 0; i < 10; ++i) tracker.record_good(t);
  }
  EXPECT_GE(tracker.burn_rate(SloTracker::kLongWindowS, 20.0),
            SloTracker::kFastBurnThreshold);
  EXPECT_NE(tracker.evaluate(20.0), SloState::kFastBurn);

  // A sustained flood fills both windows -> fast burn.
  SloTracker flooded(objective);
  for (double t = 0.0; t <= 10.0; t += 1.0) {
    for (int i = 0; i < 10; ++i) flooded.record_bad(t);
  }
  EXPECT_EQ(flooded.evaluate(10.0), SloState::kFastBurn);
  EXPECT_EQ(flooded.state(), SloState::kFastBurn);

  // Long-quiet traffic recovers to kOk once every window slides clear.
  for (double t = 11.0; t <= 400.0; t += 1.0) flooded.record_good(t);
  EXPECT_EQ(flooded.evaluate(400.0), SloState::kOk);
}

TEST(SloTracker, BudgetRemainingDepletesAndClamps) {
  SloObjective objective;
  objective.availability_target = 0.9;  // budget 0.1
  SloTracker tracker(objective);
  const double now = 50.0;
  EXPECT_DOUBLE_EQ(tracker.budget_remaining(now), 1.0);  // no events yet
  for (int i = 0; i < 100; ++i) tracker.record_good(now);
  EXPECT_DOUBLE_EQ(tracker.budget_remaining(now), 1.0);
  for (int i = 0; i < 5; ++i) tracker.record_bad(now);
  // 5 bad of 105 allowed budget 0.1*105 = 10.5 -> ~52% consumed.
  EXPECT_NEAR(tracker.budget_remaining(now), 1.0 - 5.0 / 10.5, 1e-9);
  for (int i = 0; i < 100; ++i) tracker.record_bad(now);
  EXPECT_DOUBLE_EQ(tracker.budget_remaining(now), 0.0);  // clamped
}

// --- SloEngine ----------------------------------------------------------------

TEST(SloEngine, RecordsOnlyTenantsWithObjectives) {
  SloEngine engine("slo_t1");
  EXPECT_TRUE(engine.empty());
  engine.record_latency(7, 10.0, 1.0);  // no objective: dropped
  SloObjective objective;
  objective.availability_target = 0.99;
  engine.set_objective(7, objective);
  EXPECT_FALSE(engine.empty());
  EXPECT_TRUE(engine.has_objective(7));
  EXPECT_FALSE(engine.has_objective(8));
  engine.record_latency(7, 10.0, 1.0);
  engine.record_latency(8, 10.0, 1.0);  // still dropped
  EXPECT_EQ(engine.good_total(7), 1u);
  EXPECT_EQ(engine.good_total(8), 0u);
  EXPECT_EQ(engine.tenants(), (std::vector<std::uint32_t>{7}));
}

TEST(SloEngine, FastBurnCallbackIsEdgeTriggered) {
  SloEngine engine("slo_t2");
  SloObjective objective;
  objective.availability_target = 0.999;
  engine.set_objective(3, objective);
  std::vector<std::pair<std::uint32_t, double>> fired;
  engine.set_fast_burn_callback(
      [&fired](std::uint32_t tenant, double burn) { fired.emplace_back(tenant, burn); });

  // A minute of sustained flood, ticked every quarter second: exactly one
  // callback despite ~240 evaluations in the burning state.
  for (double t = 0.0; t <= 60.0; t += 0.25) {
    for (int i = 0; i < 3; ++i) engine.record_bad(3, t);
    engine.tick(t);
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, 3u);
  EXPECT_GE(fired[0].second, SloTracker::kFastBurnThreshold);
  EXPECT_EQ(engine.state(3), SloState::kFastBurn);
  EXPECT_EQ(engine.fast_burn_transitions(), 1u);

  // Recovery, then a second flood: a second (and only a second) callback.
  for (double t = 61.0; t <= 500.0; t += 1.0) {
    engine.record_latency(3, 1.0, t);
    engine.tick(t);
  }
  EXPECT_EQ(engine.state(3), SloState::kOk);
  for (double t = 501.0; t <= 560.0; t += 0.25) {
    for (int i = 0; i < 3; ++i) engine.record_bad(3, t);
    engine.tick(t);
  }
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_EQ(engine.fast_burn_transitions(), 2u);
}

TEST(SloEngine, PrometheusSeriesCarryTenantAndWindowLabels) {
  SloEngine engine("slo_t3");
  SloObjective objective;
  objective.latency_threshold_ns = 1000.0;
  objective.availability_target = 0.99;
  engine.set_objective(7, objective);
  // Enough good traffic that one bad event leaves budget strictly between
  // 0 and 1 (budget 0.01 * 2001 events allows ~20 bad).
  for (int i = 0; i < 2000; ++i) engine.record_latency(7, 100.0, 5.0);
  engine.record_bad(7, 5.0);
  engine.tick(5.0);

  const std::string body = prometheus_string();
  ASSERT_NO_FATAL_FAILURE(check_exposition_grammar(body));
  bool found = false;
  const double budget = series_value(
      body, "netcl_slo_budget_remaining{", {"registry=\"slo_t3\"", "tenant=\"7\""}, &found);
  ASSERT_TRUE(found) << body;
  EXPECT_GT(budget, 0.0);
  EXPECT_LE(budget, 1.0);
  for (const char* window : {"short", "long", "slow"}) {
    series_value(body, "netcl_slo_burn_rate{",
                 {"registry=\"slo_t3\"", "tenant=\"7\"",
                  "window=\"" + std::string(window) + "\""},
                 &found);
    EXPECT_TRUE(found) << "missing burn_rate window " << window;
  }
  series_value(body, "netcl_slo_objective_latency_ns{",
               {"registry=\"slo_t3\"", "tenant=\"7\""}, &found);
  EXPECT_TRUE(found);
  series_value(body, "netcl_slo_good_events_total{",
               {"registry=\"slo_t3\"", "tenant=\"7\""}, &found);
  EXPECT_TRUE(found);
  // The per-tenant latency histogram exports too (observed p99 gauge).
  series_value(body, "netcl_slo_observed_p99_ns{",
               {"registry=\"slo_t3\"", "tenant=\"7\""}, &found);
  EXPECT_TRUE(found);
}

TEST(SloEngine, ScrapeDuringConcurrentUpdateStaysWellFormed) {
  SloEngine engine("slo_t4");
  SloObjective objective;
  objective.latency_threshold_ns = 500.0;
  objective.availability_target = 0.999;
  engine.set_objective(1, objective);
  engine.set_objective(2, objective);

  std::thread writer([&engine] {
    for (int i = 0; i < 2000; ++i) {
      const double now_s = static_cast<double>(i) * 0.01;
      engine.record_latency(1, (i % 10 == 0) ? 900.0 : 100.0, now_s);
      engine.record_bad(2, now_s);
      if (i % 25 == 0) engine.tick(now_s);
    }
  });
  for (int scrape = 0; scrape < 50; ++scrape) {
    const std::string body = prometheus_string();
    ASSERT_NO_FATAL_FAILURE(check_exposition_grammar(body));
  }
  writer.join();
}

TEST(SloEngine, FloodedTenantFlipsBurnRateAndTriggersOnePostmortem) {
  const testutil::ScopedFlightDir flight_dir;
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  const std::uint64_t dumps_before = recorder.dumps_written() + recorder.dumps_suppressed();

  // The exact wiring SwdServer installs: fast burn leaves a flight
  // breadcrumb and requests a (rate-limited) postmortem.
  SloEngine engine("slo_t5");
  SloObjective objective;
  objective.availability_target = 0.999;
  engine.set_objective(9, objective);
  int callbacks = 0;
  engine.set_fast_burn_callback([&](std::uint32_t tenant, double burn) {
    ++callbacks;
    flight(FlightKind::kSloFastBurn, tenant, static_cast<std::uint64_t>(burn * 100.0));
    (void)recorder.trigger_dump("slo_fast_burn");
  });

  // Two minutes of flood, ticked at the daemon's cadence.
  for (double t = 0.0; t <= 120.0; t += 0.25) {
    for (int i = 0; i < 3; ++i) engine.record_bad(9, t);
    engine.tick(t);
  }
  // Exactly one postmortem despite ~480 burning evaluations: the callback
  // is edge-triggered and the recorder rate-limits dumps regardless.
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(recorder.dumps_written() + recorder.dumps_suppressed() - dumps_before, 1u);

  // The scrape shows the flipped burn rate on every window.
  const std::string body = prometheus_string();
  for (const char* window : {"short", "long"}) {
    bool found = false;
    const double burn = series_value(body, "netcl_slo_burn_rate{",
                                     {"registry=\"slo_t5\"", "tenant=\"9\"",
                                      "window=\"" + std::string(window) + "\""},
                                     &found);
    ASSERT_TRUE(found) << window;
    EXPECT_GE(burn, SloTracker::kFastBurnThreshold) << window;
  }
  bool found = false;
  const double state = series_value(body, "netcl_slo_state{",
                                    {"registry=\"slo_t5\"", "tenant=\"9\""}, &found);
  ASSERT_TRUE(found);
  EXPECT_DOUBLE_EQ(state, 2.0);  // kFastBurn

  // The breadcrumb is in the rings.
  std::uint64_t breadcrumbs = 0;
  for (const FlightEvent& event : recorder.snapshot()) {
    if (event.kind == static_cast<std::uint16_t>(FlightKind::kSloFastBurn) &&
        event.a == 9) {
      ++breadcrumbs;
    }
  }
  EXPECT_EQ(breadcrumbs, 1u);
}

}  // namespace
}  // namespace netcl::obs
