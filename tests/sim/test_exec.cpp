// The compiled executor (sim::ExecProgram, run by SwitchDevice::execute)
// against the interpreter it replaced, packet by packet, plus the register
// wrap that keeps co-resident tenants apart.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "kernel_traffic.hpp"
#include "reference_interpreter.hpp"
#include "sim/exec.hpp"

namespace netcl::sim {
namespace {

using driver::CompileOptions;
using driver::CompileResult;
using driver::compile_netcl;
using testing::ReferenceInterpreter;
using testing::traffic_header;
using testing::traffic_payload;
using testing::traffic_value;

struct ExecCase {
  std::string name;
  std::string source;
  DefineMap defines;
  std::uint16_t device = 1;
  bool speculation = true;
};

void PrintTo(const ExecCase& c, std::ostream* os) { *os << c.name; }

std::string read_example(const std::string& file) {
  std::ifstream in(std::string(NETCL_EXAMPLES_DIR) + "/" + file);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<ExecCase> exec_cases() {
  struct Kernel {
    std::string name;
    apps::AppSource app;
    std::uint16_t device;
  };
  const std::vector<Kernel> kernels = {
      {"CALC", apps::calc_source(), 1},
      {"AGG", apps::agg_source(4, 64, 32), 1},
      {"CACHE", apps::cache_source(128, 16), 1},
      {"PAXOS_leader", apps::paxos_source(), apps::kPaxosLeaderDevice},
      {"PAXOS_acceptor", apps::paxos_source(), apps::kPaxosAcceptors[0]},
      {"PAXOS_learner", apps::paxos_source(), apps::kPaxosLearnerDevice},
      {"example_cache", {"cache.ncl", read_example("cache.ncl"), {}, 1}, 1},
      {"example_calc", {"calc.ncl", read_example("calc.ncl"), {}, 1}, 1},
      {"example_salu_hog", {"salu_hog.ncl", read_example("salu_hog.ncl"), {}, 1}, 1},
  };
  std::vector<ExecCase> cases;
  for (const bool speculation : {true, false}) {
    for (const Kernel& kernel : kernels) {
      cases.push_back({kernel.name + (speculation ? "_spec" : "_nospec"), kernel.app.source,
                       kernel.app.defines, kernel.device, speculation});
    }
  }
  return cases;
}

/// Row-major indices of cell `linear` of `global`.
std::vector<std::uint64_t> indices_of(const ir::GlobalVar& global, std::uint64_t linear) {
  std::vector<std::uint64_t> indices(global.dims.size());
  for (std::size_t d = global.dims.size(); d-- > 0;) {
    const auto extent = static_cast<std::uint64_t>(global.dims[d]);
    indices[d] = linear % extent;
    linear /= extent;
  }
  return indices;
}

bool same_outcome(const ComputeOutcome& a, const ComputeOutcome& b) {
  return a.action == b.action && a.target == b.target && a.executed == b.executed &&
         a.stage_ops == b.stage_ops;
}

void expect_same_stats(const DeviceStats& got, const DeviceStats& want, const std::string& what) {
  EXPECT_EQ(got.packets_processed, want.packets_processed) << what;
  EXPECT_EQ(got.kernels_executed, want.kernels_executed) << what;
  EXPECT_EQ(got.no_kernel, want.no_kernel) << what;
  EXPECT_EQ(got.drops_action, want.drops_action) << what;
  EXPECT_EQ(got.multicasts, want.multicasts) << what;
  EXPECT_EQ(got.stage_executions, want.stage_executions) << what;
}

class ExecDifferential : public ::testing::TestWithParam<ExecCase> {};

TEST_P(ExecDifferential, MatchesReferenceInterpreter) {
  const ExecCase& c = GetParam();
  constexpr int kPackets = 2500;
  constexpr int kUnknownComputation = 250;
  std::uint64_t seed = 0xE4EC0000u;  // FNV-1a of the case name: stable per case
  for (const char ch : c.name) seed = (seed ^ static_cast<std::uint8_t>(ch)) * 0x100000001B3u;

  CompileOptions options;
  options.device_id = c.device;
  options.speculation = c.speculation;
  options.defines = c.defines;
  options.limits.stages = 64;  // allow the no-speculation variants to fit
  CompileResult for_device = compile_netcl(c.source, options);
  CompileResult for_reference = compile_netcl(c.source, options);
  ASSERT_TRUE(for_device.ok && for_reference.ok) << c.name << ": " << for_reference.errors;
  ASSERT_FALSE(for_reference.kernels.empty()) << c.name << ": no kernel on device " << c.device;

  ReferenceInterpreter reference(*for_reference.module, for_reference.kernels, c.device);
  const std::unique_ptr<SwitchDevice> device = driver::make_device(std::move(for_device), c.device);
  std::vector<const ir::GlobalVar*> managed_registers;
  std::vector<const ir::GlobalVar*> managed_tables;
  for (const auto& global : for_reference.module->globals()) {
    if (!global->is_managed) continue;
    (global->is_lookup ? managed_tables : managed_registers).push_back(global.get());
  }

  SplitMix64 rng(seed);
  for (int p = 0; p < kPackets; ++p) {
    const std::string where =
        c.name + " (seed " + std::to_string(seed) + ", packet " + std::to_string(p) + ")";
    // Control-plane traffic between packets, as the host runtime sends it.
    if (!managed_tables.empty() && rng.next_below(8) == 0) {
      const ir::GlobalVar& table = *managed_tables[rng.next_below(managed_tables.size())];
      const std::uint64_t key = rng.next_below(8);
      if (rng.next_below(3) == 0) {
        ASSERT_EQ(device->lookup_remove(table.name, key), reference.tables.find(table)->remove(key))
            << where;
      } else {
        const std::uint64_t key_hi = key + rng.next_below(4);
        const std::uint64_t value = traffic_value(rng);
        ASSERT_EQ(device->lookup_insert(table.name, key, key_hi, value),
                  reference.tables.find(table)->insert(key, key_hi, value))
            << where;
      }
    }
    if (!managed_registers.empty() && rng.next_below(16) == 0) {
      const ir::GlobalVar& global = *managed_registers[rng.next_below(managed_registers.size())];
      std::vector<std::uint64_t> indices;
      for (std::size_t d = 0; d < global.dims.size(); ++d) indices.push_back(rng.next_below(8));
      const std::uint64_t value = traffic_value(rng);
      ASSERT_TRUE(device->managed_write(global.name, indices, value)) << where;
      reference.registers.write(global, reference.registers.flatten(global, indices), value);
    }
    // A restart rebuilds the tables the compiled program points at.
    if (p % 900 == 899) {
      device->restart();
      reference.restart();
    }

    const p4::KernelProgram& kernel =
        for_reference.kernels[rng.next_below(for_reference.kernels.size())];
    const int computation =
        rng.next_below(32) == 0 ? kUnknownComputation : kernel.fn->computation();
    const ArgValues args = decode_args(kernel.fn->spec, traffic_payload(kernel.fn->spec, rng));
    const NetclHeader header = traffic_header(computation, rng);
    ArgValues got_args = args;
    ArgValues want_args = args;
    const ComputeOutcome got = device->execute(computation, got_args, header);
    const ComputeOutcome want = reference.execute(computation, want_args, header);
    ASSERT_TRUE(same_outcome(got, want))
        << where << ": action " << static_cast<int>(got.action) << "/"
        << static_cast<int>(want.action) << " target " << got.target << "/" << want.target
        << " stage_ops " << got.stage_ops << "/" << want.stage_ops;
    ASSERT_EQ(got_args, want_args) << where;
  }

  const std::string where = c.name + " (seed " + std::to_string(seed) + ", end)";
  for (const auto& global : for_reference.module->globals()) {
    if (global->is_lookup) continue;
    for (std::int64_t cell = 0; cell < global->element_count(); ++cell) {
      const auto linear = static_cast<std::uint64_t>(cell);
      std::uint64_t got = 0;
      ASSERT_TRUE(device->debug_read(global->name, indices_of(*global, linear), got)) << where;
      ASSERT_EQ(got, reference.registers.read(*global, static_cast<std::size_t>(cell)))
          << where << ": " << global->name << " cell " << cell;
    }
  }
  expect_same_stats(device->stats, reference.device_stats, where + ": device stats");
  ASSERT_NE(device->tenant_stats(0), nullptr);
  expect_same_stats(*device->tenant_stats(0), reference.tenant_stats, where + ": tenant stats");
  const auto got_access = device->register_access();
  const auto want_access = reference.register_access_by_name();
  ASSERT_EQ(got_access.size(), want_access.size()) << where;
  for (const auto& [name, access] : want_access) {
    ASSERT_EQ(got_access.count(name), 1u) << where << ": " << name;
    EXPECT_EQ(got_access.at(name).reads, access.reads) << where << ": " << name;
    EXPECT_EQ(got_access.at(name).writes, access.writes) << where << ": " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, ExecDifferential, ::testing::ValuesIn(exec_cases()),
                         [](const ::testing::TestParamInfo<ExecCase>& info) {
                           return info.param.name;
                         });

// --- lane fusion --------------------------------------------------------------

// Kernels whose unrolled loops probe ExecProgram's lane fusion: one whose
// lanes load unguarded and store under a guard some packets fail (then
// compute and store unguarded), and the shapes that must stay unfused
// because a lane touches what another lane writes, or the lanes are not one
// op repeated over consecutive elements under one guard.
const char* const kPartlyGuarded = R"(
  _net_ uint32_t R[8][16];
  _kernel(1) void put(uint16_t idx, uint8_t on, uint32_t _spec(8) *v) {
    if (on & 1) {
      for (auto i = 0; i < 8; ++i) R[i][idx] = v[i];
    }
    for (auto i = 0; i < 8; ++i) v[i] = v[i] + 1;
  }
)";
const char* const kChainedSum = R"(  // each lane reads the previous lane's sum
  _kernel(1) void sum(uint32_t _spec(8) *v, uint32_t &total) {
    uint32_t acc = total;
    for (auto i = 0; i < 8; ++i) acc = acc + v[i];
    total = acc;
  }
)";
const char* const kShiftedElements = R"(  // lane i writes the element lane i+1 reads
  _kernel(1) void shift(uint32_t _spec(8) *v) {
    for (auto i = 0; i < 7; ++i) v[i + 1] = v[i] + 1;
  }
)";
const char* const kPerLaneGuard = R"(  // each lane's store has its own guard
  _net_ uint32_t R[8][16];
  _kernel(1) void keep(uint16_t idx, uint32_t _spec(8) *v) {
    for (auto i = 0; i < 8; ++i) {
      if (v[i] > 100) R[i][idx] = v[i];
    }
  }
)";
const char* const kStridedElements = R"(  // lanes read every other element
  _net_ uint32_t R[8][16];
  _kernel(1) void even(uint16_t idx, uint32_t _spec(16) *v) {
    for (auto i = 0; i < 8; ++i) R[i][idx] = v[2 * i];
  }
)";

std::vector<ExecCase> lane_cases() {
  std::vector<ExecCase> cases;
  for (const bool speculation : {true, false}) {
    const std::string suffix = speculation ? "_spec" : "_nospec";
    cases.push_back({"partly_guarded" + suffix, kPartlyGuarded, {}, 1, speculation});
    cases.push_back({"chained_sum" + suffix, kChainedSum, {}, 1, speculation});
    cases.push_back({"shifted_elements" + suffix, kShiftedElements, {}, 1, speculation});
    cases.push_back({"per_lane_guard" + suffix, kPerLaneGuard, {}, 1, speculation});
    cases.push_back({"strided_elements" + suffix, kStridedElements, {}, 1, speculation});
  }
  return cases;
}

// The same differential check over the lane kernels, fused or not.
INSTANTIATE_TEST_SUITE_P(LaneKernels, ExecDifferential, ::testing::ValuesIn(lane_cases()),
                         [](const ::testing::TestParamInfo<ExecCase>& info) {
                           return info.param.name;
                         });

struct Lowered {
  std::size_t ops = 0;
  std::size_t lane_groups = 0;
};

Lowered lower(const std::string& source, const DefineMap& defines = {}, bool speculation = true) {
  CompileOptions options;
  options.defines = defines;
  options.speculation = speculation;
  options.limits.stages = 64;
  const CompileResult result = compile_netcl(source, options);
  EXPECT_TRUE(result.ok) << result.errors;
  if (!result.ok || result.kernels.size() != 1) return {};
  const ExecProgram program(result.kernels[0], *result.module);
  return {program.op_count(), program.lane_groups()};
}

// SwitchML's AGG: the 32-lane (load v[i], add into Agg[i][agg_idx], store
// v[i]) body and the 32-lane (load v[i], store Agg[i][agg_idx]) body each
// fuse, op-major: five lane groups where there were 160 operations.
TEST(LaneFusion, AggFusesItsFiveLaneGroups) {
  const apps::AppSource agg = apps::agg_source(4, 64, 32);
  for (const bool speculation : {true, false}) {
    const Lowered lowered = lower(agg.source, agg.defines, speculation);
    EXPECT_EQ(lowered.lane_groups, 5u) << "speculation " << speculation;
    EXPECT_EQ(lowered.ops, 203u - 160u + 5u) << "speculation " << speculation;
  }
}

// NetCache's write-back loop fuses (16 lanes of load, store). Its GET read
// loop does not: each lane's guard is computed from the previous lane's.
TEST(LaneFusion, CacheFusesWriteBackButNotItsChainedReadLoop) {
  const apps::AppSource cache = apps::cache_source(128, 16);
  const Lowered lowered = lower(cache.source, cache.defines);
  EXPECT_EQ(lowered.lane_groups, 2u);
  EXPECT_EQ(lowered.ops, 288u - 32u + 2u);
}

TEST(LaneFusion, PartlyGuardedLanesFuse) {
  for (const bool speculation : {true, false}) {
    EXPECT_GT(lower(kPartlyGuarded, {}, speculation).lane_groups, 0u)
        << "speculation " << speculation;
  }
}

TEST(LaneFusion, DependentOrIrregularLanesStayUnfused) {
  for (const char* source : {kChainedSum, kShiftedElements, kPerLaneGuard, kStridedElements}) {
    for (const bool speculation : {true, false}) {
      EXPECT_EQ(lower(source, {}, speculation).lane_groups, 0u)
          << source << "speculation " << speculation;
    }
  }
}

// Out-of-range indices wrap per dimension (RegisterFile::flatten), inside
// the tenant's own arrays: a co-resident tenant with the same global names
// never sees the writes.
TEST(ExecWrap, OutOfRangeIndicesWrapPerDimensionWithinOneTenant) {
  const std::string writer = R"(
    _net_ uint32_t grid[4][8];
    _net_ uint32_t line[8];
    _kernel(1) void poke(uint32_t i, uint32_t j, uint32_t v) { grid[i][j] = v; line[j] = v; }
  )";
  const std::string reader = R"(
    _net_ uint32_t grid[4][8];
    _net_ uint32_t line[8];
    _kernel(2) void peek(uint32_t i, uint32_t j, uint32_t &v) { v = grid[i][j] + line[j]; }
  )";
  auto compile = [](const std::string& source) {
    CompileResult result = compile_netcl(source, {});
    EXPECT_TRUE(result.ok) << result.errors;
    return result;
  };
  SwitchDevice device(1);
  ASSERT_TRUE(device.load_program(0, driver::make_artifact(compile(writer), "writer")).ok());
  ASSERT_TRUE(device.load_program(1, driver::make_artifact(compile(reader), "reader")).ok());
  const CompileResult layout = compile(writer);
  RegisterFile flattener(*layout.module);
  const ir::GlobalVar& grid = *layout.module->find_global("grid");

  struct Poke {
    std::uint64_t i, j, v;
  };
  const Poke pokes[] = {{6, 13, 101}, {0xFFFFFFFF, 0xFFFFFFFF, 102}, {9, 3, 103}, {4, 16, 104}};
  for (const Poke& poke : pokes) {
    ArgValues args = {{poke.i}, {poke.j}, {poke.v}};
    ASSERT_TRUE(device.execute(1, args, {}).executed);
    const std::size_t linear = flattener.flatten(grid, {poke.i, poke.j});
    const std::vector<std::uint64_t> cell = indices_of(grid, linear);
    EXPECT_EQ(cell, (std::vector<std::uint64_t>{poke.i % 4, poke.j % 8}));
    std::uint64_t value = 0;
    ASSERT_TRUE(device.debug_read("0:grid", cell, value));
    EXPECT_EQ(value, poke.v) << "grid[" << poke.i << "][" << poke.j << "]";
    ASSERT_TRUE(device.debug_read("0:line", {poke.j % 8}, value));
    EXPECT_EQ(value, poke.v) << "line[" << poke.j << "]";
  }
  for (std::uint64_t row = 0; row < 4; ++row) {
    for (std::uint64_t col = 0; col < 8; ++col) {
      std::uint64_t value = 1;
      ASSERT_TRUE(device.debug_read("1:grid", {row, col}, value));
      EXPECT_EQ(value, 0u) << "reader grid[" << row << "][" << col << "]";
      if (row == 0) {
        ASSERT_TRUE(device.debug_read("1:line", {col}, value));
        EXPECT_EQ(value, 0u) << "reader line[" << col << "]";
      }
    }
  }
  ArgValues args = {{6}, {13}, {7}};
  ASSERT_TRUE(device.execute(2, args, {}).executed);
  EXPECT_EQ(args[2][0], 0u);
}

}  // namespace
}  // namespace netcl::sim
