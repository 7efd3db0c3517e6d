// Property-based sweeps (parameterized gtest).
//
// The central property: for any generated kernel, *executing the compiled,
// linearized, stage-allocated pipeline in the switch simulator produces the
// same values as evaluating the source semantics on the host*. Differential
// testing across random expression trees, widths and control flow catches
// disagreements anywhere in the stack (folding, lowering, legalization,
// predication, interpretation).
#include <gtest/gtest.h>

#include <ostream>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "ir/eval.hpp"
#include "support/hashes.hpp"

namespace netcl {
namespace {

using driver::CompileOptions;
using driver::CompileResult;
using driver::compile_netcl;
using driver::make_device;

// ---------------------------------------------------------------------------
// Random expression kernels: compiled result vs host-side evaluation.
// ---------------------------------------------------------------------------

struct ExprGen {
  SplitMix64 rng;
  int depth_budget;

  /// Builds an expression over variables a, b, c and returns (text, eval fn
  /// result on the reference values).
  std::string gen(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t& value,
                  int depth = 0) {
    const bool leaf = depth >= depth_budget || rng.next_below(4) == 0;
    if (leaf) {
      switch (rng.next_below(4)) {
        case 0: value = a; return "a";
        case 1: value = b; return "b";
        case 2: value = c; return "c";
        default: {
          const auto k = static_cast<std::uint32_t>(rng.next_below(1000));
          value = k;
          return std::to_string(k);
        }
      }
    }
    std::uint32_t lhs = 0;
    std::uint32_t rhs = 0;
    const std::string ls = gen(a, b, c, lhs, depth + 1);
    const std::string rs = gen(a, b, c, rhs, depth + 1);
    switch (rng.next_below(7)) {
      case 0: value = lhs + rhs; return "(" + ls + " + " + rs + ")";
      case 1: value = lhs - rhs; return "(" + ls + " - " + rs + ")";
      case 2: value = lhs & rhs; return "(" + ls + " & " + rs + ")";
      case 3: value = lhs | rhs; return "(" + ls + " | " + rs + ")";
      case 4: value = lhs ^ rhs; return "(" + ls + " ^ " + rs + ")";
      case 5: {
        const unsigned amount = rhs & 7;
        value = lhs << amount;
        return "(" + ls + " << (" + rs + " & 7))";
      }
      default: {
        // Ternary over a comparison.
        value = lhs > rhs ? lhs : rhs;
        return "(" + ls + " > " + rs + " ? " + ls + " : " + rs + ")";
      }
    }
  }
};

class RandomExpressions : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomExpressions, CompiledPipelineMatchesHostSemantics) {
  SplitMix64 seed_rng(GetParam());
  const auto a = static_cast<std::uint32_t>(seed_rng.next());
  const auto b = static_cast<std::uint32_t>(seed_rng.next());
  const auto c = static_cast<std::uint32_t>(seed_rng.next() & 0xFFFF);

  ExprGen gen{SplitMix64(GetParam() * 1234567 + 1), 3};
  std::uint32_t expected = 0;
  const std::string expr = gen.gen(a, b, c, expected);

  const std::string source = "_kernel(1) void k(unsigned a, unsigned b, unsigned c, "
                             "unsigned &out) { out = " +
                             expr + "; }";
  CompileOptions options;
  CompileResult compiled = compile_netcl(source, options);
  ASSERT_TRUE(compiled.ok) << source << "\n" << compiled.errors;
  const KernelSpec spec = compiled.specs.at(1);
  auto device = make_device(std::move(compiled), 1);
  sim::ArgValues args = {{a}, {b}, {c}, {0}};
  device->execute(1, args, {});
  EXPECT_EQ(args[3][0], expected) << source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExpressions, ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------------------
// Control flow: nested conditionals vs a host-side oracle.
// ---------------------------------------------------------------------------

class BranchSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BranchSweep, PredicationMatchesBranches) {
  static const char* kSource = R"(
    _net_ unsigned bucket[4];
    _kernel(1) void k(unsigned x, unsigned &cls, unsigned &count) {
      if (x < 100) {
        if (x < 10) { cls = 0; } else { cls = 1; }
      } else {
        if (x < 1000) { cls = 2; } else { cls = 3; }
      }
      count = ncl::atomic_add_new(&bucket[cls & 3], 1);
    }
  )";
  static std::unique_ptr<sim::SwitchDevice> device = [] {
    CompileOptions options;
    CompileResult compiled = compile_netcl(kSource, options);
    EXPECT_TRUE(compiled.ok) << compiled.errors;
    return make_device(std::move(compiled), 1);
  }();
  static std::map<std::uint32_t, std::uint64_t> oracle_counts;

  const std::uint32_t x = GetParam();
  const std::uint32_t expected_cls = x < 100 ? (x < 10 ? 0 : 1) : (x < 1000 ? 2 : 3);
  const std::uint64_t expected_count = ++oracle_counts[expected_cls];

  sim::ArgValues args = {{x}, {0}, {0}};
  device->execute(1, args, {});
  EXPECT_EQ(args[1][0], expected_cls) << "x=" << x;
  EXPECT_EQ(args[2][0], expected_count) << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(Inputs, BranchSweep,
                         ::testing::Values(0u, 5u, 9u, 10u, 50u, 99u, 100u, 500u, 999u, 1000u,
                                           4096u, 1u << 20, 0xFFFFFFFFu));

// ---------------------------------------------------------------------------
// Loop unrolling: sums for arbitrary trip counts match the closed form.
// ---------------------------------------------------------------------------

class UnrollSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnrollSweep, SumMatchesClosedForm) {
  const int n = GetParam();
  const std::string source = "_kernel(1) void k(unsigned x, unsigned &out) {\n"
                             "  unsigned acc = 0;\n"
                             "  for (auto i = 0; i < " +
                             std::to_string(n) +
                             "; ++i) acc = acc + x + i;\n"
                             "  out = acc;\n}\n";
  CompileOptions options;
  options.limits.stages = 4096;  // deep chains are fine for this property
  CompileResult compiled = compile_netcl(source, options);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  const KernelSpec spec = compiled.specs.at(1);
  auto device = make_device(std::move(compiled), 1);
  const std::uint32_t x = 1000;
  sim::ArgValues args = {{x}, {0}};
  device->execute(1, args, {});
  const std::uint64_t expected =
      static_cast<std::uint64_t>(n) * x + static_cast<std::uint64_t>(n) * (n - 1) / 2;
  EXPECT_EQ(args[1][0], expected & 0xFFFFFFFF);
}

INSTANTIATE_TEST_SUITE_P(TripCounts, UnrollSweep,
                         ::testing::Values(1, 2, 3, 7, 8, 15, 16, 31, 64));

// ---------------------------------------------------------------------------
// Atomic semantics across all operations: device register vs host fold.
// ---------------------------------------------------------------------------

struct AtomicCase {
  const char* call;       // kernel text for the atomic
  AtomicOpKind op;        // reference semantics
  bool returns_new;
};

// Print the kernel text rather than gtest's default byte dump: the dump holds
// a load address, so test names listed by --gtest_list_tests would change on
// every run.
void PrintTo(const AtomicCase& c, std::ostream* os) { *os << c.call; }

class AtomicSweep : public ::testing::TestWithParam<AtomicCase> {};

TEST_P(AtomicSweep, MatchesReferenceFold) {
  const AtomicCase& c = GetParam();
  const std::string source = std::string("_net_ unsigned m;\n") +
                             "_kernel(1) void k(unsigned x, unsigned &out) { out = " + c.call +
                             "; }";
  CompileOptions options;
  CompileResult compiled = compile_netcl(source, options);
  ASSERT_TRUE(compiled.ok) << source << "\n" << compiled.errors;
  auto device = make_device(std::move(compiled), 1);

  std::uint64_t reference_memory = 0;
  SplitMix64 rng(99);
  for (int i = 0; i < 50; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.next());
    sim::ArgValues args = {{x}, {0}};
    device->execute(1, args, {});
    const std::uint64_t old_memory = reference_memory;
    reference_memory = ir::eval_atomic(c.op, reference_memory, x, 0, kU32);
    EXPECT_EQ(args[1][0], c.returns_new ? reference_memory : old_memory)
        << c.call << " iteration " << i;
    std::uint64_t device_memory = 0;
    ASSERT_TRUE(device->debug_read("m", {}, device_memory));
    EXPECT_EQ(device_memory, reference_memory);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AtomicSweep,
    ::testing::Values(AtomicCase{"ncl::atomic_add(&m, x)", AtomicOpKind::Add, false},
                      AtomicCase{"ncl::atomic_add_new(&m, x)", AtomicOpKind::Add, true},
                      AtomicCase{"ncl::atomic_sadd_new(&m, x)", AtomicOpKind::SAdd, true},
                      AtomicCase{"ncl::atomic_sub(&m, x)", AtomicOpKind::Sub, false},
                      AtomicCase{"ncl::atomic_or(&m, x)", AtomicOpKind::Or, false},
                      AtomicCase{"ncl::atomic_and(&m, x)", AtomicOpKind::And, false},
                      AtomicCase{"ncl::atomic_xor_new(&m, x)", AtomicOpKind::Xor, true},
                      AtomicCase{"ncl::atomic_min_new(&m, x)", AtomicOpKind::Min, true},
                      AtomicCase{"ncl::atomic_max_new(&m, x)", AtomicOpKind::Max, true}),
    [](const ::testing::TestParamInfo<AtomicCase>& info) {
      std::string name = info.param.call;
      name = name.substr(name.find("atomic_"));
      return name.substr(0, name.find('('));
    });

// ---------------------------------------------------------------------------
// Stage-allocation invariants over every app and option combination.
// ---------------------------------------------------------------------------

struct AllocCase {
  const char* app;
  bool speculation;
};

void PrintTo(const AllocCase& c, std::ostream* os) {
  *os << c.app << (c.speculation ? ", spec on" : ", spec off");
}

class AllocationInvariants : public ::testing::TestWithParam<AllocCase> {};

TEST_P(AllocationInvariants, DependencesAndBudgetsHold) {
  const AllocCase& c = GetParam();
  apps::AppSource app = c.app == std::string("AGG")     ? apps::agg_source()
                        : c.app == std::string("CACHE") ? apps::cache_source()
                                                        : apps::calc_source();
  CompileOptions options;
  options.defines = app.defines;
  options.speculation = c.speculation;
  options.limits.stages = 64;  // allow no-speculation variants to fit
  CompileResult compiled = compile_netcl(app.source, options);
  ASSERT_TRUE(compiled.ok) << compiled.errors;

  const p4::StageLimits& limits = options.limits;
  // Per-stage budgets hold.
  for (const p4::StageUsage& usage : compiled.allocation.per_stage) {
    EXPECT_TRUE(usage.fits(limits)) << p4::to_string(usage);
  }
  // Every register group is co-located.
  for (const auto& kernel : compiled.kernels) {
    for (const p4::LinearInst& li : kernel.insts) {
      if (li.inst->global != nullptr) {
        EXPECT_EQ(li.stage, compiled.allocation.global_stage.at(li.inst->global));
      }
      EXPECT_GE(li.stage, 0);
      EXPECT_LT(li.stage, compiled.allocation.stages_used);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, AllocationInvariants,
                         ::testing::Values(AllocCase{"AGG", true}, AllocCase{"AGG", false},
                                           AllocCase{"CACHE", true}, AllocCase{"CACHE", false},
                                           AllocCase{"CALC", true}, AllocCase{"CALC", false}),
                         [](const ::testing::TestParamInfo<AllocCase>& info) {
                           return std::string(info.param.app) +
                                  (info.param.speculation ? "_spec" : "_nospec");
                         });

// ---------------------------------------------------------------------------
// Hash-width sweep: sliced hash results match the host library.
// ---------------------------------------------------------------------------

class HashWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(HashWidthSweep, SlicedCrc32MatchesHost) {
  const int width = GetParam();
  const std::string source = "_kernel(1) void k(unsigned x, uint64_t &h) { h = ncl::crc32<" +
                             std::to_string(width) + ">(x); }";
  CompileOptions options;
  CompileResult compiled = compile_netcl(source, options);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  auto device = make_device(std::move(compiled), 1);
  SplitMix64 rng(7);
  for (int i = 0; i < 20; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.next());
    sim::ArgValues args = {{x}, {0}};
    device->execute(1, args, {});
    const std::uint64_t full = crc32_u64(x, 4);
    const std::uint64_t mask = width >= 64 ? ~0ULL : (1ULL << width) - 1;
    EXPECT_EQ(args[1][0], full & mask) << "width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, HashWidthSweep, ::testing::Values(8, 16, 32));

}  // namespace
}  // namespace netcl
