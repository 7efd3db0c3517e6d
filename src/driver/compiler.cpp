#include "driver/compiler.hpp"

#include <cassert>
#include <chrono>

#include "frontend/sema.hpp"
#include "ir/lower_ast.hpp"
#include "ir/verifier.hpp"
#include "obs/trace.hpp"
#include "p4/latency.hpp"

namespace netcl::driver {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

int module_insts(const ir::Module* module) {
  if (module == nullptr) return 0;
  std::size_t n = 0;
  for (const auto& fn : module->functions()) n += fn->instruction_count();
  return static_cast<int>(n);
}

/// Runs `body` as one observed driver phase (trace span + PassStat). The
/// module pointer is re-read after the body so phases that create the
/// module still report its size.
template <typename Body>
void observed_phase(obs::CompileReport& report, const std::string& name,
                    const std::unique_ptr<ir::Module>& module, Body&& body) {
  const int before = module_insts(module.get());
  obs::TraceSpan span(obs::tracer(), "driver", name);
  const auto start = std::chrono::steady_clock::now();
  body();
  const double seconds = seconds_since(start);
  const int after = module_insts(module.get());
  if (span.active()) span.arg("insts_delta", std::to_string(after - before));
  report.add_pass(name, seconds, before, after);
}

std::map<std::string, int> usage_map(const p4::StageUsage& usage) {
  return {{"sram", usage.sram},   {"tcam", usage.tcam}, {"salu", usage.salus},
          {"vliw", usage.vliw},   {"hash", usage.hash}, {"tables", usage.tables}};
}

/// Copies the rendered diagnostics (one per line) into the report.
void record_diagnostics(obs::CompileReport& report, const std::string& rendered) {
  std::size_t begin = 0;
  while (begin < rendered.size()) {
    std::size_t end = rendered.find('\n', begin);
    if (end == std::string::npos) end = rendered.size();
    if (end > begin) report.diagnostics.emplace_back(rendered.substr(begin, end - begin));
    begin = end + 1;
  }
}

}  // namespace

CompileResult compile_netcl(const std::string& source, const CompileOptions& options) {
  CompileResult result;
  obs::TraceSpan compile_span(obs::tracer(), "driver", "compile_netcl");
  result.netcl_loc = count_loc(source);
  result.report.netcl_loc = result.netcl_loc;

  const auto frontend_start = std::chrono::steady_clock::now();
  SourceBuffer buffer("<netcl>", source);
  DiagnosticEngine diags;
  Program program;
  observed_phase(result.report, "frontend.parse+sema", result.module,
                 [&] { program = analyze_netcl(buffer, diags, options.defines); });
  if (diags.has_errors()) {
    result.errors = diags.render_all(&buffer);
    record_diagnostics(result.report, result.errors);
    return result;
  }

  // Record every computation's specification for host runtimes.
  for (const FunctionDecl* kernel : program.kernels()) {
    result.specs.try_emplace(kernel->computation, make_kernel_spec(*kernel));
  }

  ir::LowerOptions lower_options;
  lower_options.device_id = options.device_id;
  observed_phase(result.report, "frontend.lower_ast", result.module,
                 [&] { result.module = ir::lower_program(program, lower_options, diags); });
  if (diags.has_errors()) {
    result.errors = diags.render_all(&buffer);
    record_diagnostics(result.report, result.errors);
    return result;
  }

  passes::PassOptions pass_options;
  pass_options.target = options.target;
  pass_options.speculation = options.speculation;
  pass_options.hoisting = options.hoisting;
  pass_options.duplication = options.duplication;
  pass_options.partitioning = options.partitioning;
  pass_options.report = &result.report;
  passes::run_pipeline(*result.module, pass_options, diags);
  if (diags.has_errors()) {
    result.errors = diags.render_all(&buffer);
    record_diagnostics(result.report, result.errors);
    return result;
  }
  bool verify_failed = false;
  observed_phase(result.report, "ir.verify", result.module, [&] {
    if (auto violations = ir::verify(*result.module); !violations.empty()) {
      for (const std::string& v : violations) result.errors += v + "\n";
      verify_failed = true;
    }
  });
  if (verify_failed) {
    record_diagnostics(result.report, result.errors);
    return result;
  }
  result.frontend_seconds = seconds_since(frontend_start);

  // Backend: P4 text must be emitted before linearization (the linearizer
  // rewrites phi uses in place).
  const auto backend_start = std::chrono::steady_clock::now();
  observed_phase(result.report, "backend.emit_p4", result.module, [&] {
    result.p4 = p4::emit_p4(*result.module,
                            options.target == passes::Target::Tna ? p4::P4Dialect::Tna
                                                                  : p4::P4Dialect::V1Model);
  });
  p4::LinearizeOptions linearize_options;
  linearize_options.speculation = options.speculation;
  observed_phase(result.report, "backend.linearize", result.module, [&] {
    result.kernels = p4::linearize_module(*result.module, linearize_options);
  });

  bool allocation_failed = false;
  observed_phase(result.report, "backend.stage_alloc", result.module, [&] {
    if (options.target == passes::Target::Tna) {
      result.allocation = p4::allocate_stages(result.kernels, *result.module, options.limits,
                                              options.base_stages);
      if (!result.allocation.fits) {
        result.errors = "TNA stage allocation failed: " + result.allocation.error;
        allocation_failed = true;
      }
    } else {
      // The software switch has no stage budget; report dependence depth.
      p4::StageLimits unbounded = options.limits;
      unbounded.stages = 1 << 16;
      result.allocation = p4::allocate_stages(result.kernels, *result.module, unbounded,
                                              options.base_stages);
    }
  });
  if (allocation_failed) {
    record_diagnostics(result.report, result.errors);
    return result;
  }
  observed_phase(result.report, "backend.phv", result.module,
                 [&] { result.phv = p4::compute_phv(result.kernels); });
  result.backend_seconds = seconds_since(backend_start);
  result.ok = true;

  result.report.ok = true;
  result.report.p4_loc = result.p4.loc();
  result.report.frontend_seconds = result.frontend_seconds;
  result.report.backend_seconds = result.backend_seconds;
  result.report.stages_used = result.allocation.stages_used;
  result.report.phv_bits = result.phv.total_bits();
  result.report.phv_occupancy_pct = result.phv.occupancy_pct(options.limits);
  result.report.worst_latency_ns =
      p4::LatencyModel{}.worst_case_ns(result.allocation.stages_used);
  result.report.pipe_total = usage_map(result.allocation.total);
  result.report.worst_stage = usage_map(result.allocation.worst);
  // Per-stage rows (ISSUE 7): the exact accounting admission control will
  // charge this program when it is loaded as a tenant.
  result.report.per_stage.reserve(result.allocation.per_stage.size());
  for (const p4::StageUsage& usage : result.allocation.per_stage) {
    result.report.per_stage.push_back(usage_map(usage));
  }
  return result;
}

std::unique_ptr<sim::SwitchDevice> make_device(CompileResult&& result, std::uint16_t device_id) {
  auto device = std::make_unique<sim::SwitchDevice>(device_id);
  sim::ProgramArtifact artifact = make_artifact(std::move(result), "program");
  // Admission-exempt: a single program owns the whole device, so
  // tenant_table() reports it "unaccounted".
  artifact.per_stage.clear();
  const runtime::Error err = device->load_program(0, std::move(artifact));
  (void)err;
  assert(err.ok());
  return device;
}

sim::ProgramArtifact make_artifact(CompileResult&& result, const std::string& name) {
  sim::ProgramArtifact artifact;
  artifact.name = name.empty() ? "program" : name;
  artifact.module = std::move(result.module);
  artifact.kernels = std::move(result.kernels);
  artifact.stages_used = result.allocation.stages_used;
  artifact.per_stage = std::move(result.allocation.per_stage);
  return artifact;
}

sim::ProgramCompiler artifact_compiler(const CompileOptions& base_options) {
  return [base_options](const std::string& source,
                        const std::map<std::string, std::uint64_t>& defines,
                        std::uint16_t device_id,
                        sim::ProgramArtifact& out) -> runtime::Error {
    CompileOptions options = base_options;
    options.device_id = device_id;
    for (const auto& [name, value] : defines) options.defines[name] = value;
    CompileResult result = compile_netcl(source, options);
    if (!result.ok) {
      return {runtime::ErrorKind::kRejected, "kernel compile failed:\n" + result.errors};
    }
    out = make_artifact(std::move(result), "");
    return {};
  };
}

}  // namespace netcl::driver
