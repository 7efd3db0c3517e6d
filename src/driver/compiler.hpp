// The ncc compilation driver: NetCL-C source -> per-device artifacts.
//
// One compile_netcl() call performs the per-device pipeline of Fig. 8:
// frontend (parse + sema), AST lowering for the device, the middle-end
// pass pipeline, P4 emission, linearization, TNA stage allocation, and the
// PHV report. The result carries everything downstream consumers need:
// the P4 text (inspection / LoC), the executable pipeline (simulator), the
// resource/latency reports (benchmarks), and the kernel specifications of
// the whole program (host runtimes need specs even for kernels placed on
// other devices).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "frontend/lexer.hpp"
#include "obs/report.hpp"
#include "p4/p4_printer.hpp"
#include "p4/phv.hpp"
#include "p4/pipeline.hpp"
#include "p4/stage_alloc.hpp"
#include "passes/passes.hpp"
#include "sim/switch.hpp"

namespace netcl::driver {

struct CompileOptions {
  int device_id = 1;
  passes::Target target = passes::Target::Tna;
  bool speculation = true;
  bool hoisting = true;
  bool duplication = true;
  bool partitioning = true;
  DefineMap defines;
  p4::StageLimits limits;
  /// Stages the base/runtime program occupies before generated code.
  int base_stages = 1;
};

struct CompileResult {
  bool ok = false;
  std::string errors;  // rendered diagnostics when !ok

  std::unique_ptr<ir::Module> module;
  std::vector<p4::KernelProgram> kernels;
  p4::P4Program p4;
  p4::AllocationResult allocation;  // meaningful for the TNA target
  p4::PhvUsage phv;
  std::map<int, KernelSpec> specs;  // every computation in the program

  int netcl_loc = 0;              // LoC of the NetCL-C source
  double frontend_seconds = 0.0;  // parse + sema + lower + passes (ncc)
  double backend_seconds = 0.0;   // P4 emission + allocation (bf-p4c proxy)

  /// Structured per-pass timings, IR-size deltas, resource/PHV usage, and
  /// diagnostics — filled for successful and failed compiles alike
  /// (ncc --stats renders it; benches ingest the JSON form).
  obs::CompileReport report;
};

/// Compiles `source` for one device.
[[nodiscard]] CompileResult compile_netcl(const std::string& source,
                                          const CompileOptions& options);

/// Builds a simulated switch from a successful compile (consumes the
/// module and kernel programs), loaded as tenant 0 named "program",
/// admission-exempt.
[[nodiscard]] std::unique_ptr<sim::SwitchDevice> make_device(CompileResult&& result,
                                                             std::uint16_t device_id);

/// Packages a successful compile as a loadable tenant program (consumes
/// the module, kernels, and per-stage accounting). The per-stage rows are
/// what the device's admission controller charges the tenant (ISSUE 7).
[[nodiscard]] sim::ProgramArtifact make_artifact(CompileResult&& result,
                                                 const std::string& name);

/// A sim::ProgramCompiler closure over compile_netcl: what netcl-swd (and
/// tests) inject so devices can compile-and-load kernels at runtime. The
/// per-request defines overlay `base_options.defines`; the device id is
/// taken from the target device, not the options.
[[nodiscard]] sim::ProgramCompiler artifact_compiler(const CompileOptions& base_options = {});

}  // namespace netcl::driver
