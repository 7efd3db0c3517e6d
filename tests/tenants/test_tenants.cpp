// Multi-tenant INC-as-a-service (ISSUE 7): co-resident kernels, admission
// control, hitless swap, and tenant-scoped control-plane resolution — in
// simulation and over real UDP against an in-process netcl-swd daemon.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/control.hpp"
#include "net/sim_transport.hpp"
#include "net/swd_server.hpp"
#include "net/udp_transport.hpp"
#include "p4/admission.hpp"
#include "runtime/error.hpp"
#include "runtime/host.hpp"
#include "sim/fabric.hpp"

namespace netcl {
namespace {

using runtime::DeviceConnection;
using runtime::ErrorKind;
using runtime::HostRuntime;
using runtime::Message;
using sim::ArgValues;

// --- shared fixtures ----------------------------------------------------------

/// Compiles one of the paper apps with `comp` as its computation id.
driver::CompileResult compile_app(const apps::AppSource& app, int comp) {
  driver::CompileOptions options;
  options.defines = app.defines;
  options.defines["COMP"] = static_cast<std::uint64_t>(comp);
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  EXPECT_TRUE(compiled.ok) << app.name << ": " << compiled.errors;
  return compiled;
}

sim::ProgramArtifact compile_artifact(const apps::AppSource& app, int comp) {
  driver::CompileResult compiled = compile_app(app, comp);
  return driver::make_artifact(std::move(compiled), app.name);
}

std::map<std::string, std::uint64_t> app_defines(const apps::AppSource& app,
                                                 std::uint64_t comp) {
  std::map<std::string, std::uint64_t> defines(app.defines.begin(), app.defines.end());
  defines["COMP"] = comp;
  return defines;
}

/// One queued request: which computation, with which argument values.
using Send = std::pair<int, ArgValues>;

/// The CALC / CACHE / AGG workloads of the co-residency scenario. Every
/// send yields exactly one arrival at host 1 except the first packet of
/// each AGG round (it opens the aggregation slot and is consumed).
std::vector<Send> calc_sends(const KernelSpec& spec, int comp) {
  struct Case {
    std::uint64_t op, a, b;
  };
  const std::vector<Case> cases = {{apps::kCalcAdd, 20, 22},
                                   {apps::kCalcSub, 100, 58},
                                   {apps::kCalcAnd, 0xF0F0, 0xFF00},
                                   {apps::kCalcOr, 0xF0F0, 0x0F0F},
                                   {apps::kCalcXor, 0xFFFF, 0x00FF}};
  std::vector<Send> sends;
  for (const Case& c : cases) {
    ArgValues args = sim::make_args(spec);
    args[0][0] = c.op;
    args[1][0] = c.a;
    args[2][0] = c.b;
    sends.emplace_back(comp, std::move(args));
  }
  return sends;
}

std::vector<Send> cache_sends(const KernelSpec& spec, int comp) {
  struct Case {
    std::uint64_t op, key;
  };
  // Hit, miss (sketch path), write-back, hit again.
  const std::vector<Case> cases = {{apps::kGetReq, 5},
                                   {apps::kGetReq, 77},
                                   {apps::kPutReq, 5},
                                   {apps::kGetReq, 5}};
  std::vector<Send> sends;
  for (const Case& c : cases) {
    ArgValues args = sim::make_args(spec);
    args[0][0] = c.op;
    args[1][0] = c.key;
    for (std::size_t w = 0; w < args[2].size(); ++w) args[2][w] = 0xC0 + w;
    sends.emplace_back(comp, std::move(args));
  }
  return sends;
}

std::vector<Send> agg_sends(const KernelSpec& spec, int comp) {
  // Two rounds of a 2-worker allreduce on different slots.
  std::vector<Send> sends;
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (std::uint64_t worker = 0; worker < 2; ++worker) {
      ArgValues args = sim::make_args(spec);
      args[0][0] = 0;               // ver
      args[1][0] = round;           // bmp_idx
      args[2][0] = round;           // agg_idx
      args[3][0] = 1ULL << worker;  // mask
      args[4][0] = 3 + worker;      // exp
      for (std::size_t w = 0; w < args[5].size(); ++w) {
        args[5][w] = 10 * (round + 1) + worker + w;
      }
      sends.emplace_back(comp, std::move(args));
    }
  }
  return sends;
}

/// Seeds the CACHE tenant's managed state (one valid two-word cacheline
/// for key 5; sketch threshold high enough that misses stay quiet).
void seed_cache(DeviceConnection& control) {
  ASSERT_TRUE(control.insert_e("KeyIndex", 5, 2).ok());
  ASSERT_TRUE(control.insert_e("WordMask", 5, 0x3).ok());
  ASSERT_TRUE(control.managed_write_e("Values", 0xAA, {0, 2}).ok());
  ASSERT_TRUE(control.managed_write_e("Values", 0xBB, {1, 2}).ok());
  ASSERT_TRUE(control.managed_write_e("Valid", 1, {2}).ok());
  ASSERT_TRUE(control.managed_write_e("thresh", 1000).ok());
}

using Responses = std::map<int, std::vector<std::vector<std::uint8_t>>>;

/// Registers host 1, queues every send, runs the fabric to completion;
/// arrivals are grouped by computation and encoded back to payload bytes
/// so comparisons are byte-exact.
Responses drive_fabric(sim::Fabric& fabric, const std::map<int, KernelSpec>& specs,
                       const std::vector<Send>& sends) {
  HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
  for (const auto& [comp, spec] : specs) host.register_spec(comp, spec);
  Responses responses;
  host.on_receive([&](const Message& message, ArgValues& args) {
    responses[message.comp].push_back(sim::encode_args(specs.at(message.comp), args));
  });
  for (const Send& send : sends) host.send(Message(1, 1, send.first, 1), send.second);
  fabric.run();
  return responses;
}

/// Wires one device into `fabric` with host 1 attached and the AGG
/// multicast group pointing back at it.
sim::SwitchDevice* setup_fabric(sim::Fabric& fabric,
                                std::unique_ptr<sim::SwitchDevice> device) {
  fabric.add_host(1);
  sim::SwitchDevice* dev = fabric.add_device(std::move(device));
  fabric.connect(sim::host_ref(1), sim::device_ref(dev->device_id()));
  fabric.set_multicast_group(dev->device_id(), apps::kAggMulticastGroup,
                             {sim::host_ref(1)});
  return dev;
}

// --- co-residency: byte-identical to running alone (sim) ----------------------

TEST(Tenants, CoResidentAppsMatchEachAppAlone) {
  const apps::AppSource calc = apps::calc_source();
  const apps::AppSource cache = apps::cache_source(64, 2, 64);
  const apps::AppSource agg = apps::agg_source(2, 8, 4);

  driver::CompileResult calc_compiled = compile_app(calc, 1);
  driver::CompileResult cache_compiled = compile_app(cache, 2);
  driver::CompileResult agg_compiled = compile_app(agg, 3);
  const KernelSpec calc_spec = calc_compiled.specs.at(1);
  const KernelSpec cache_spec = cache_compiled.specs.at(2);
  const KernelSpec agg_spec = agg_compiled.specs.at(3);

  // Each app alone on its own device.
  Responses alone;
  {
    sim::Fabric fabric;
    setup_fabric(fabric, driver::make_device(std::move(calc_compiled), 1));
    const Responses r = drive_fabric(fabric, {{1, calc_spec}}, calc_sends(calc_spec, 1));
    alone.insert(r.begin(), r.end());
  }
  {
    sim::Fabric fabric;
    setup_fabric(fabric, driver::make_device(std::move(cache_compiled), 1));
    DeviceConnection control(fabric, 1);
    seed_cache(control);
    const Responses r = drive_fabric(fabric, {{2, cache_spec}}, cache_sends(cache_spec, 2));
    alone.insert(r.begin(), r.end());
  }
  {
    sim::Fabric fabric;
    setup_fabric(fabric, driver::make_device(std::move(agg_compiled), 1));
    const Responses r = drive_fabric(fabric, {{3, agg_spec}}, agg_sends(agg_spec, 3));
    alone.insert(r.begin(), r.end());
  }
  ASSERT_EQ(alone.at(1).size(), 5u);
  ASSERT_EQ(alone.at(2).size(), 4u);
  ASSERT_EQ(alone.at(3).size(), 2u);

  // All three co-resident on one device, traffic interleaved round-robin.
  auto device = std::make_unique<sim::SwitchDevice>(1);
  ASSERT_FALSE(device->load_program(1, compile_artifact(calc, 1)));
  ASSERT_FALSE(device->load_program(2, compile_artifact(cache, 2)));
  ASSERT_FALSE(device->load_program(3, compile_artifact(agg, 3)));
  EXPECT_EQ(device->tenant_count(), 3u);

  sim::Fabric fabric;
  setup_fabric(fabric, std::move(device));
  DeviceConnection control(fabric, 1);
  seed_cache(control);

  std::vector<Send> interleaved;
  std::vector<std::vector<Send>> lanes = {calc_sends(calc_spec, 1),
                                          cache_sends(cache_spec, 2),
                                          agg_sends(agg_spec, 3)};
  while (!lanes[0].empty() || !lanes[1].empty() || !lanes[2].empty()) {
    for (auto& lane : lanes) {
      if (lane.empty()) continue;
      interleaved.push_back(std::move(lane.front()));
      lane.erase(lane.begin());
    }
  }
  const Responses together = drive_fabric(
      fabric, {{1, calc_spec}, {2, cache_spec}, {3, agg_spec}}, interleaved);

  // The headline property: every tenant's responses are byte-identical to
  // the responses it produced running alone.
  EXPECT_EQ(together, alone);

  // And each tenant observed exactly its own traffic.
  const sim::DeviceStats* calc_stats = fabric.device(1)->tenant_stats(1);
  ASSERT_NE(calc_stats, nullptr);
  EXPECT_EQ(calc_stats->packets_processed, 5u);
  EXPECT_EQ(calc_stats->kernels_executed, 5u);
  const sim::DeviceStats* agg_stats = fabric.device(1)->tenant_stats(3);
  ASSERT_NE(agg_stats, nullptr);
  EXPECT_EQ(agg_stats->packets_processed, 4u);
}

// --- admission control --------------------------------------------------------

TEST(Tenants, OverBudgetFourthTenantIsRejectedWithResourceReport) {
  auto device = std::make_unique<sim::SwitchDevice>(1);
  ASSERT_FALSE(device->load_program(1, compile_artifact(apps::calc_source(), 1)));
  ASSERT_FALSE(device->load_program(2, compile_artifact(apps::cache_source(64, 2, 64), 2)));
  ASSERT_FALSE(device->load_program(3, compile_artifact(apps::agg_source(2, 8, 4), 3)));

  // A second CACHE instance pushes a stage past the SALU budget.
  const runtime::Error err =
      device->load_program(4, compile_artifact(apps::cache_source(64, 2, 64), 4));
  ASSERT_TRUE(err);
  EXPECT_EQ(err.kind, ErrorKind::kRejected);
  EXPECT_NE(err.message.find("over budget"), std::string::npos) << err.message;
  // The rejection carries the per-stage resource report.
  EXPECT_NE(err.message.find("stage"), std::string::npos) << err.message;
  EXPECT_NE(err.message.find("salu="), std::string::npos) << err.message;

  // Nothing changed: the three residents keep serving.
  EXPECT_EQ(device->tenant_count(), 3u);
  EXPECT_FALSE(device->has_tenant(4));
  EXPECT_EQ(device->admission().resident_count(), 3u);
}

TEST(Tenants, MaxTenantsCapIsEnforced) {
  auto device = std::make_unique<sim::SwitchDevice>(1);
  device->set_max_tenants(1);
  ASSERT_FALSE(device->load_program(1, compile_artifact(apps::calc_source(), 1)));
  const runtime::Error err =
      device->load_program(2, compile_artifact(apps::cache_source(64, 2, 64), 2));
  ASSERT_TRUE(err);
  EXPECT_EQ(err.kind, ErrorKind::kRejected);
  EXPECT_NE(err.message.find("max-tenants"), std::string::npos) << err.message;
}

TEST(Tenants, AdmissionAggregateMatchesAllocatorAccounting) {
  // The parity check behind `ncc --stats`: a single resident's admission
  // aggregate must equal the stage allocator's per-stage rows exactly —
  // both charge the base-program overhead the same way.
  driver::CompileResult compiled = compile_app(apps::cache_source(64, 2, 64), 1);
  const std::vector<p4::StageUsage>& allocated = compiled.allocation.per_stage;
  ASSERT_FALSE(allocated.empty());

  p4::AdmissionController admission;
  ASSERT_TRUE(admission.admit(1, allocated).admitted);
  const p4::AdmissionReport report = admission.current();
  ASSERT_EQ(report.aggregate.size(), allocated.size());
  for (std::size_t s = 0; s < allocated.size(); ++s) {
    EXPECT_EQ(report.aggregate[s].sram, allocated[s].sram) << "stage " << s;
    EXPECT_EQ(report.aggregate[s].tcam, allocated[s].tcam) << "stage " << s;
    EXPECT_EQ(report.aggregate[s].salus, allocated[s].salus) << "stage " << s;
    EXPECT_EQ(report.aggregate[s].vliw, allocated[s].vliw) << "stage " << s;
    EXPECT_EQ(report.aggregate[s].hash, allocated[s].hash) << "stage " << s;
    EXPECT_EQ(report.aggregate[s].tables, allocated[s].tables) << "stage " << s;
  }

  // The same rows surface in the compile report (`ncc --stats` / JSON).
  ASSERT_EQ(compiled.report.per_stage.size(), allocated.size());
  for (std::size_t s = 0; s < allocated.size(); ++s) {
    EXPECT_EQ(compiled.report.per_stage[s].at("sram"), allocated[s].sram);
    EXPECT_EQ(compiled.report.per_stage[s].at("salu"), allocated[s].salus);
    EXPECT_EQ(compiled.report.per_stage[s].at("vliw"), allocated[s].vliw);
    EXPECT_EQ(compiled.report.per_stage[s].at("tables"), allocated[s].tables);
  }
}

// --- tenant-scoped control-plane resolution -----------------------------------

TEST(Tenants, ResolveFollowsPartitionRenamesPerTenantAndRejectsAmbiguity) {
  // Two tenants compiled from the same source: every global name collides,
  // including the partition-renamed count-min sketch rows (cms -> cms$0..).
  const apps::AppSource cache = apps::cache_source(64, 2, 64);
  sim::SwitchDevice device(1);
  ASSERT_FALSE(device.load_program(1, compile_artifact(cache, 1)));
  ASSERT_FALSE(device.load_program(2, compile_artifact(cache, 2)));

  // Unscoped writes are ambiguous between the two tenants and must fail.
  EXPECT_FALSE(device.managed_write("thresh", {}, 7));
  EXPECT_FALSE(device.managed_write("cms", {0, 5}, 7));

  // Tenant-scoped writes resolve, following the partition rename
  // (cms[0][5] lands in cms$0[5]) inside that tenant only.
  EXPECT_TRUE(device.managed_write("1:cms", {0, 5}, 7));
  EXPECT_TRUE(device.managed_write("2:cms", {0, 5}, 9));
  EXPECT_TRUE(device.managed_write("1:thresh", {}, 100));
  EXPECT_TRUE(device.managed_write("2:thresh", {}, 200));

  std::uint64_t value = 0;
  ASSERT_TRUE(device.managed_read("1:cms", {0, 5}, value));
  EXPECT_EQ(value, 7u);
  ASSERT_TRUE(device.managed_read("2:cms", {0, 5}, value));
  EXPECT_EQ(value, 9u);
  ASSERT_TRUE(device.managed_read("1:thresh", {}, value));
  EXPECT_EQ(value, 100u);
  ASSERT_TRUE(device.managed_read("2:thresh", {}, value));
  EXPECT_EQ(value, 200u);

  // A neighbouring cell in the other tenant is untouched.
  ASSERT_TRUE(device.managed_read("2:cms", {0, 6}, value));
  EXPECT_EQ(value, 0u);

  // With one tenant gone the name is unique again and unscoped access works.
  ASSERT_FALSE(device.unload_program(2));
  ASSERT_TRUE(device.managed_read("thresh", {}, value));
  EXPECT_EQ(value, 100u);
}

// --- unknown computations (counted, not silently dropped) ---------------------

TEST(Tenants, UnknownComputationIsCountedAndPassesThrough) {
  driver::CompileResult compiled = compile_app(apps::calc_source(), 1);
  const KernelSpec spec = compiled.specs.at(1);
  sim::Fabric fabric;
  setup_fabric(fabric, driver::make_device(std::move(compiled), 1));

  // comp 9 has no resident kernel; the packet must still pass through to
  // its destination host, counted as unknown-computation traffic.
  std::map<int, KernelSpec> specs = {{1, spec}, {9, spec}};
  ArgValues args = sim::make_args(spec);
  args[0][0] = apps::kCalcAdd;
  args[1][0] = 1;
  args[2][0] = 2;
  std::vector<Send> sends;
  sends.emplace_back(9, args);
  sends.emplace_back(1, args);
  const Responses responses = drive_fabric(fabric, specs, sends);

  EXPECT_EQ(fabric.packets_unknown_computation.value(), 1u);
  EXPECT_EQ(fabric.device(1)->stats.no_kernel, 1u);
  ASSERT_EQ(responses.at(9).size(), 1u);  // passed through unmodified
  EXPECT_EQ(responses.at(9)[0], sim::encode_args(spec, args));
  ASSERT_EQ(responses.at(1).size(), 1u);  // the resident kernel still ran
}

// --- hitless swap (sim) -------------------------------------------------------

TEST(Tenants, HotSwapDropsZeroPacketsForCoResidentTenants) {
  const apps::AppSource calc = apps::calc_source();
  const apps::AppSource cache = apps::cache_source(64, 2, 64);
  driver::CompileResult calc_compiled = compile_app(calc, 1);
  const KernelSpec calc_spec = calc_compiled.specs.at(1);

  auto device = std::make_unique<sim::SwitchDevice>(1);
  ASSERT_FALSE(device->load_program(1, compile_artifact(calc, 1)));
  ASSERT_FALSE(device->load_program(2, compile_artifact(cache, 2)));
  sim::Fabric fabric;
  setup_fabric(fabric, std::move(device));

  DeviceConnection control(fabric, 1);
  control.set_compiler(driver::artifact_compiler());
  ASSERT_TRUE(control.managed_write_e("thresh", 500).ok());

  HostRuntime host(std::make_unique<net::SimTransport>(fabric, 1), 1);
  host.register_spec(1, calc_spec);
  std::size_t responses = 0;
  host.on_receive([&](const Message&, ArgValues&) { ++responses; });
  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ArgValues args = sim::make_args(calc_spec);
      args[0][0] = apps::kCalcAdd;
      args[1][0] = static_cast<std::uint64_t>(i);
      args[2][0] = 1;
      host.send(Message(1, 1, 1, 1), args);
    }
    fabric.run();
  };

  burst(50);
  ASSERT_EQ(responses, 50u);

  // Swap tenant 2's program. Tenant 1 is untouched; the swap replays the
  // host journal so tenant 2's managed state survives too.
  const runtime::Error err =
      control.hot_swap_kernel_e(2, "CACHE", cache.source, app_defines(cache, 2));
  ASSERT_FALSE(err) << err.message;
  EXPECT_EQ(control.resyncs(), 1u);

  burst(50);
  EXPECT_EQ(responses, 100u);

  const sim::DeviceStats* calc_stats = fabric.device(1)->tenant_stats(1);
  ASSERT_NE(calc_stats, nullptr);
  EXPECT_EQ(calc_stats->packets_processed, 100u);
  EXPECT_EQ(calc_stats->kernels_executed, 100u);
  EXPECT_EQ(calc_stats->drops_action, 0u);
  EXPECT_EQ(fabric.packets_dropped_action.value(), 0u);

  // The journaled write was replayed into the fresh register file.
  std::uint64_t thresh = 0;
  ASSERT_TRUE(control.managed_read_e("thresh", thresh).ok());
  EXPECT_EQ(thresh, 500u);

  // A swap whose program fails to compile is refused and keeps the old
  // resident in place.
  const runtime::Error bad = control.hot_swap_kernel_e(
      2, "CACHE2", "_kernel(2) _at(1) void broken(", app_defines(cache, 2));
  ASSERT_TRUE(bad);
  EXPECT_EQ(bad.kind, ErrorKind::kRejected);
  EXPECT_TRUE(fabric.device(1)->has_tenant(2));
}

// --- the same story over real UDP against an in-process daemon ----------------

TEST(Tenants, UdpRuntimeLoadSwapAndRejection) {
  const apps::AppSource calc = apps::calc_source();
  const apps::AppSource cache = apps::cache_source(64, 2, 64);
  driver::CompileResult calc_ref = compile_app(calc, 1);
  const KernelSpec calc_spec = calc_ref.specs.at(1);
  const KernelSpec cache_spec = compile_app(cache, 2).specs.at(2);

  // Reference responses: each app alone, in simulation.
  Responses alone;
  {
    sim::Fabric fabric;
    setup_fabric(fabric, driver::make_device(std::move(calc_ref), 1));
    const Responses r = drive_fabric(fabric, {{1, calc_spec}}, calc_sends(calc_spec, 1));
    alone.insert(r.begin(), r.end());
  }
  {
    driver::CompileResult cache_ref = compile_app(cache, 2);
    sim::Fabric fabric;
    setup_fabric(fabric, driver::make_device(std::move(cache_ref), 1));
    DeviceConnection seed(fabric, 1);
    seed_cache(seed);
    const Responses r = drive_fabric(fabric, {{2, cache_spec}}, cache_sends(cache_spec, 2));
    alone.insert(r.begin(), r.end());
  }

  // The daemon starts empty; kernels arrive at runtime over the control
  // plane, exactly as netcl-ctl would deliver them.
  net::SwdOptions options;
  options.compiler = driver::artifact_compiler();
  net::SwdServer server(std::make_unique<sim::SwitchDevice>(1), options);
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });

  DeviceConnection control("127.0.0.1", server.control_port());
  ASSERT_TRUE(control.valid());

  std::uint16_t stages = 0;
  std::string summary;
  runtime::Error err =
      control.load_kernel_e(1, "CALC", calc.source, app_defines(calc, 1), &stages, &summary);
  ASSERT_FALSE(err) << err.message;
  EXPECT_GT(stages, 0);
  EXPECT_NE(summary.find("1 tenant"), std::string::npos) << summary;
  err = control.load_kernel_e(2, "CACHE", cache.source, app_defines(cache, 2));
  ASSERT_FALSE(err) << err.message;
  seed_cache(control);

  // A duplicate tenant id is refused with the typed error.
  err = control.load_kernel_e(1, "CALC", calc.source, app_defines(calc, 1));
  ASSERT_TRUE(err);
  EXPECT_EQ(err.kind, ErrorKind::kRejected);

  // Drive both tenants' workloads over real UDP, one packet at a time.
  net::UdpTransport::Options transport_options;
  transport_options.peer_port = server.udp_port();
  net::UdpTransport transport(transport_options);
  ASSERT_TRUE(transport.valid()) << transport.error();
  HostRuntime host(transport, 1);
  host.register_spec(1, calc_spec);
  host.register_spec(2, cache_spec);
  std::map<int, KernelSpec> specs = {{1, calc_spec}, {2, cache_spec}};
  Responses udp;
  host.on_receive([&](const Message& message, ArgValues& args) {
    udp[message.comp].push_back(sim::encode_args(specs.at(message.comp), args));
  });
  std::size_t expected = 0;
  auto run_workload = [&](const std::vector<Send>& sends) {
    for (const Send& send : sends) {
      host.send(Message(1, 1, send.first, 1), send.second);
      ++expected;
      ASSERT_TRUE(transport.run_until(
          [&] {
            std::size_t total = 0;
            for (const auto& [comp, r] : udp) total += r.size();
            return total >= expected;
          },
          10e9))
          << "timed out waiting for response " << expected;
    }
  };
  run_workload(calc_sends(calc_spec, 1));
  run_workload(cache_sends(cache_spec, 2));

  // Byte-identical to each app running alone in the simulator.
  EXPECT_EQ(udp, alone);

  // Admission rejection over the wire: one SALU-hungry tenant fits, a
  // second copy exceeds the per-stage SALU budget and is rejected with the
  // resource report carried in the typed error body.
  const std::string hog = R"(
_net_ uint32_t C0; _net_ uint32_t C1; _net_ uint32_t C2; _net_ uint32_t C3;
_net_ uint32_t C4; _net_ uint32_t C5; _net_ uint32_t C6; _net_ uint32_t C7;
_kernel(COMP) _at(1) void hog(uint32_t x, uint32_t &t0, uint32_t &t1,
                              uint32_t &t2, uint32_t &t3, uint32_t &t4,
                              uint32_t &t5, uint32_t &t6, uint32_t &t7) {
  t0 = ncl::atomic_add_new(&C0, x); t1 = ncl::atomic_add_new(&C1, x);
  t2 = ncl::atomic_add_new(&C2, x); t3 = ncl::atomic_add_new(&C3, x);
  t4 = ncl::atomic_add_new(&C4, x); t5 = ncl::atomic_add_new(&C5, x);
  t6 = ncl::atomic_add_new(&C6, x); t7 = ncl::atomic_add_new(&C7, x);
  return ncl::reflect();
}
)";
  err = control.load_kernel_e(9, "hog", hog, {{"COMP", 9}});
  ASSERT_FALSE(err) << err.message;
  err = control.load_kernel_e(10, "hog2", hog, {{"COMP", 10}});
  ASSERT_TRUE(err);
  EXPECT_EQ(err.kind, ErrorKind::kRejected);
  EXPECT_NE(err.message.find("over budget"), std::string::npos) << err.message;
  EXPECT_NE(err.message.find("salu="), std::string::npos) << err.message;

  // Compile errors surface as typed rejections too.
  err = control.load_kernel_e(11, "bad", "_kernel(11) _at(1) void broken(", {});
  ASSERT_TRUE(err);
  EXPECT_EQ(err.kind, ErrorKind::kRejected);

  // The tenant table over the wire shows the residents and their stats.
  std::vector<sim::TenantInfo> kernels;
  ASSERT_FALSE(control.list_kernels_e(kernels));
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_EQ(kernels[0].id, 1u);
  EXPECT_EQ(kernels[0].name, "CALC");
  EXPECT_EQ(kernels[0].stats.packets_processed, 5u);
  EXPECT_EQ(kernels[1].id, 2u);
  EXPECT_EQ(kernels[1].computations, std::vector<int>{2});
  EXPECT_EQ(kernels[2].id, 9u);

  // Hitless swap over the wire: tenant 2 is replaced; tenant 1 keeps
  // serving with zero drops, and tenant 2's managed seed survives the
  // journal replay.
  err = control.hot_swap_kernel_e(2, "CACHE", cache.source, app_defines(cache, 2));
  ASSERT_FALSE(err) << err.message;
  run_workload(calc_sends(calc_spec, 1));
  ASSERT_EQ(udp.at(1).size(), 10u);

  kernels.clear();
  ASSERT_FALSE(control.list_kernels_e(kernels));
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_EQ(kernels[0].stats.packets_processed, 10u);
  EXPECT_EQ(kernels[0].stats.drops_action, 0u);

  std::uint64_t thresh = 0;
  ASSERT_TRUE(control.managed_read_e("thresh", thresh).ok());
  EXPECT_EQ(thresh, 1000u);

  // Unload over the wire.
  ASSERT_FALSE(control.unload_kernel_e(9));
  kernels.clear();
  ASSERT_FALSE(control.list_kernels_e(kernels));
  EXPECT_EQ(kernels.size(), 2u);

  server.stop();
  serving.join();
}

// --- one error form: sim and netcl-swd refuse alike ---------------------------

TEST(Tenants, FailingControlOpsReturnTheSameKindInSimAndOverTheWire) {
  const apps::AppSource cache = apps::cache_source(64, 2, 64);
  // The same failing ops against one connection, errors in order.
  const auto failures = [](DeviceConnection& control) {
    std::uint64_t value = 0;
    return std::vector<runtime::Error>{
        control.managed_read_e("NoSuchRegister", value),
        control.managed_write_e("Values", 1, {99, 0}),  // no partition Values$99
        // Valid has 64 entries: an index past them is refused, not wrapped.
        control.managed_write_e("Valid", 1, {1000}),
        control.managed_read_e("Valid", value, {1000}),
        control.insert_e("NoSuchTable", 5, 2),
        control.unload_kernel_e(9),
        control.load_kernel_e(11, "bad", "_kernel(11) _at(1) void broken(", {}),
    };
  };

  sim::Fabric fabric;
  setup_fabric(fabric, std::make_unique<sim::SwitchDevice>(1));
  DeviceConnection in_fabric(fabric, 1);
  in_fabric.set_compiler(driver::artifact_compiler());
  runtime::Error err = in_fabric.load_kernel_e(2, "CACHE", cache.source, app_defines(cache, 2));
  ASSERT_FALSE(err) << err.message;

  net::SwdOptions options;
  options.compiler = driver::artifact_compiler();
  net::SwdServer server(std::make_unique<sim::SwitchDevice>(1), options);
  ASSERT_TRUE(server.valid()) << server.error();
  std::thread serving([&] { server.run(); });
  DeviceConnection over_wire("127.0.0.1", server.control_port());
  ASSERT_TRUE(over_wire.valid());
  err = over_wire.load_kernel_e(2, "CACHE", cache.source, app_defines(cache, 2));
  ASSERT_FALSE(err) << err.message;

  const std::vector<runtime::Error> sim_errors = failures(in_fabric);
  const std::vector<runtime::Error> swd_errors = failures(over_wire);
  server.stop();
  serving.join();

  ASSERT_EQ(sim_errors.size(), swd_errors.size());
  for (std::size_t i = 0; i < sim_errors.size(); ++i) {
    EXPECT_EQ(sim_errors[i].kind, ErrorKind::kRejected) << i << ": " << sim_errors[i].to_string();
    EXPECT_EQ(swd_errors[i].kind, sim_errors[i].kind) << i << ": " << swd_errors[i].to_string();
    EXPECT_FALSE(swd_errors[i].message.empty()) << i;
  }
  // Refusals name the op and the object, worded alike on both devices.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(swd_errors[i].message, sim_errors[i].message) << i;
  }
  EXPECT_NE(swd_errors[0].message.find("NoSuchRegister"), std::string::npos);
  // The refused write did not land on the wrapped cell, Valid[1000 % 64].
  std::uint64_t wrapped = 1;
  ASSERT_FALSE(in_fabric.managed_read_e("Valid", wrapped, {40}));
  EXPECT_EQ(wrapped, 0u);
}

}  // namespace
}  // namespace netcl
