// The device's kernel interpreter from before kernels were lowered to
// sim::ExecProgram: it walks p4::LinearInst and the IR for every packet,
// with a fresh value map. It is kept only as the oracle the compiled
// executor is checked against (test_exec), over its own register file,
// lookup tables and random stream.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/switch.hpp"

namespace netcl::sim::testing {

class ReferenceInterpreter {
 public:
  /// Runs `kernels`, whose globals belong to `module`, seeded like a tenant
  /// of device `device_id`. Both must outlive the interpreter.
  ReferenceInterpreter(const ir::Module& module, const std::vector<p4::KernelProgram>& kernels,
                       std::uint16_t device_id);

  /// SwitchDevice::execute as it was, counting into `device_stats` and
  /// `tenant_stats` the way the device counts into its own and its
  /// tenant's stats.
  ComputeOutcome execute(int computation, ArgValues& args, const NetclHeader& header);

  /// SwitchDevice::restart: registers zeroed, tables rebuilt.
  void restart();

  /// Per-register counters keyed by global name, as
  /// SwitchDevice::register_access() reports them.
  [[nodiscard]] std::map<std::string, RegisterAccess> register_access_by_name() const;

  RegisterFile registers;
  TableSet tables;
  SplitMix64 rng;
  DeviceStats device_stats;
  DeviceStats tenant_stats;
  std::unordered_map<const ir::GlobalVar*, RegisterAccess> register_access;

 private:
  const ir::Module* module_;
  std::unordered_map<int, const p4::KernelProgram*> by_computation_;
};

}  // namespace netcl::sim::testing
