#include "sim/switch.hpp"

#include <algorithm>

#include "obs/flightrec.hpp"
#include "p4/resources.hpp"

namespace netcl::sim {

using namespace netcl::ir;
using runtime::Error;
using runtime::ErrorKind;

SwitchDevice::SwitchDevice(std::uint16_t device_id) : device_id_(device_id) {}

double SwitchDevice::pipeline_latency_ns() const {
  if (stages_used_ <= 0) return 0.0;
  return latency_.worst_case_ns(stages_used_);
}

// --- tenant management -------------------------------------------------------

void SwitchDevice::install(Tenant& tenant, ProgramArtifact artifact) {
  tenant.name = std::move(artifact.name);
  tenant.module = std::move(artifact.module);
  tenant.kernels = std::move(artifact.kernels);
  tenant.stages_used = artifact.stages_used;
  tenant.per_stage = std::move(artifact.per_stage);
  tenant.registers = std::make_unique<RegisterFile>(*tenant.module);
  tenant.tables = std::make_unique<TableSet>(*tenant.module);
  tenant.rng = SplitMix64{0x5EEDBA5Eu ^ device_id_};
  tenant.register_access.assign(tenant.module->globals().size(), RegisterAccess{});
  tenant.programs.clear();
  tenant.programs.reserve(tenant.kernels.size());
  tenant.args.clear();
  for (const p4::KernelProgram& kernel : tenant.kernels) {
    tenant.programs.emplace_back(kernel, *tenant.module);
    tenant.programs.back().bind(*tenant.registers, *tenant.tables);
    tenant.args.push_back(make_args(kernel.fn->spec));
  }
}

void SwitchDevice::attach(TenantId id, Tenant& tenant) {
  for (std::size_t i = 0; i < tenant.kernels.size(); ++i) {
    by_computation_[tenant.kernels[i].fn->computation()] = {
        id, &tenant, &tenant.kernels[i], &tenant.programs[i], &tenant.args[i]};
  }
}

void SwitchDevice::detach(TenantId id, Tenant& tenant) {
  for (const p4::KernelProgram& kernel : tenant.kernels) {
    const auto it = by_computation_.find(kernel.fn->computation());
    if (it != by_computation_.end() && it->second.id == id) by_computation_.erase(it);
  }
}

void SwitchDevice::refresh_stages() {
  stages_used_ = 0;
  for (const auto& [id, tenant] : tenants_) {
    stages_used_ = std::max(stages_used_, tenant.stages_used);
  }
}

Error SwitchDevice::load_program(TenantId tenant_id, ProgramArtifact artifact) {
  if (tenants_.count(tenant_id) != 0) {
    return {ErrorKind::kRejected, "tenant " + std::to_string(tenant_id) +
                                      " is already resident (use swap to replace it)"};
  }
  if (max_tenants_ != 0 && tenants_.size() >= max_tenants_) {
    return {ErrorKind::kRejected, "device " + std::to_string(device_id_) + " is at --max-tenants (" +
                                      std::to_string(max_tenants_) + ")"};
  }
  if (artifact.module == nullptr) {
    return {ErrorKind::kRejected, "artifact has no compiled module"};
  }
  for (const p4::KernelProgram& kernel : artifact.kernels) {
    const auto it = by_computation_.find(kernel.fn->computation());
    if (it != by_computation_.end()) {
      return {ErrorKind::kRejected,
              "computation " + std::to_string(kernel.fn->computation()) +
                  " is already served by tenant " + std::to_string(it->second.id)};
    }
  }
  if (!artifact.per_stage.empty()) {
    const p4::AdmissionReport report = admission_.admit(tenant_id, artifact.per_stage);
    if (!report.admitted) {
      return {ErrorKind::kRejected,
              report.reason + "\n" + report.to_string(admission_.limits())};
    }
  }

  Tenant& tenant = tenants_[tenant_id];
  install(tenant, std::move(artifact));
  attach(tenant_id, tenant);
  refresh_stages();
  return {};
}

Error install_kernel(SwitchDevice& device, const ProgramCompiler& compiler, TenantId tenant,
                     const std::string& name, const std::string& source,
                     const std::map<std::string, std::uint64_t>& defines, bool replace,
                     std::uint16_t& stages) {
  if (!compiler) {
    return {ErrorKind::kRejected, "no kernel compiler installed (driver::artifact_compiler)"};
  }
  ProgramArtifact artifact;
  if (Error err = compiler(source, defines, device.device_id(), artifact)) return err;
  if (!name.empty()) artifact.name = name;
  stages = static_cast<std::uint16_t>(artifact.stages_used);
  return replace ? device.swap_program(tenant, std::move(artifact))
                 : device.load_program(tenant, std::move(artifact));
}

Error SwitchDevice::unload_program(TenantId tenant_id) {
  const auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    return {ErrorKind::kRejected, "tenant " + std::to_string(tenant_id) + " is not resident"};
  }
  detach(tenant_id, it->second);
  admission_.release(tenant_id);
  tenants_.erase(it);
  refresh_stages();
  return {};
}

Error SwitchDevice::swap_program(TenantId tenant_id, ProgramArtifact artifact) {
  const auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    return {ErrorKind::kRejected,
            "tenant " + std::to_string(tenant_id) + " is not resident (load it first)"};
  }
  if (artifact.module == nullptr) {
    return {ErrorKind::kRejected, "artifact has no compiled module"};
  }
  Tenant& tenant = it->second;
  for (const p4::KernelProgram& kernel : artifact.kernels) {
    const auto found = by_computation_.find(kernel.fn->computation());
    if (found != by_computation_.end() && found->second.id != tenant_id) {
      return {ErrorKind::kRejected,
              "computation " + std::to_string(kernel.fn->computation()) +
                  " is already served by tenant " + std::to_string(found->second.id)};
    }
  }
  // Re-admit under the budget with the old reservation released; on
  // rejection the old reservation (and the running program) stay in place.
  const bool was_accounted = !tenant.per_stage.empty();
  if (was_accounted) admission_.release(tenant_id);
  if (!artifact.per_stage.empty()) {
    const p4::AdmissionReport report = admission_.admit(tenant_id, artifact.per_stage);
    if (!report.admitted) {
      if (was_accounted) admission_.admit(tenant_id, tenant.per_stage);
      return {ErrorKind::kRejected,
              report.reason + "\n" + report.to_string(admission_.limits())};
    }
  }

  detach(tenant_id, tenant);
  // Fresh state, like a per-tenant restart: the host journal replays
  // managed writes/inserts on top (DeviceConnection::resync).
  install(tenant, std::move(artifact));
  // stats survive: they belong to the observer, and the zero-drop
  // assertion in the co-residency scenario reads them across the swap.
  attach(tenant_id, tenant);
  refresh_stages();
  return {};
}

bool SwitchDevice::set_stage_limits(p4::StageLimits limits, int base_stages) {
  if (!tenants_.empty()) return false;
  admission_ = p4::AdmissionController(limits, base_stages);
  return true;
}

std::vector<TenantInfo> SwitchDevice::tenant_table() const {
  std::vector<TenantInfo> out;
  out.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) {
    TenantInfo info;
    info.id = id;
    info.name = tenant.name;
    info.stages_used = tenant.stages_used;
    for (const p4::KernelProgram& kernel : tenant.kernels) {
      info.computations.push_back(kernel.fn->computation());
    }
    if (tenant.per_stage.empty()) {
      info.usage = "unaccounted";
    } else {
      p4::StageUsage worst;
      for (const p4::StageUsage& usage : tenant.per_stage) {
        worst.sram = std::max(worst.sram, usage.sram);
        worst.tcam = std::max(worst.tcam, usage.tcam);
        worst.salus = std::max(worst.salus, usage.salus);
        worst.vliw = std::max(worst.vliw, usage.vliw);
        worst.hash = std::max(worst.hash, usage.hash);
        worst.tables = std::max(worst.tables, usage.tables);
      }
      info.usage = p4::to_string(worst);
    }
    info.stats = tenant.stats;
    out.push_back(std::move(info));
  }
  return out;
}

const DeviceStats* SwitchDevice::tenant_stats(TenantId tenant_id) const {
  const auto it = tenants_.find(tenant_id);
  return it == tenants_.end() ? nullptr : &it->second.stats;
}

const KernelSpec* SwitchDevice::spec_for(int computation) const {
  const auto it = by_computation_.find(computation);
  return it == by_computation_.end() ? nullptr : &it->second.kernel->fn->spec;
}

const TenantId* SwitchDevice::tenant_for(int computation) const {
  const auto it = by_computation_.find(computation);
  return it == by_computation_.end() ? nullptr : &it->second.id;
}

namespace {

/// Adds one run's per-stage counts; `counts` grows to the highest stage
/// that executed anything, as it always has.
void add_stage_hits(std::vector<std::uint64_t>& counts, std::span<const std::uint32_t> hits) {
  for (std::size_t stage = hits.size(); stage-- > 0;) {
    if (hits[stage] == 0) continue;
    if (counts.size() <= stage) counts.resize(stage + 1, 0);
    counts[stage] += hits[stage];
  }
}

}  // namespace

ComputeOutcome SwitchDevice::execute(int computation, ArgValues& args,
                                     const NetclHeader& header) {
  ++stats.packets_processed;
  const auto it = by_computation_.find(computation);
  if (it == by_computation_.end()) {
    ++stats.no_kernel;
    return {};  // no kernel here: no-op (§IV)
  }
  return run(it->second, args, header);
}

ComputeOutcome SwitchDevice::run(const Route& route, ArgValues& args, const NetclHeader& header) {
  Tenant& tenant = *route.tenant;
  ++stats.kernels_executed;
  ++tenant.stats.packets_processed;
  ++tenant.stats.kernels_executed;

  const ComputeOutcome outcome =
      route.program->run(args, header, tenant.rng, tenant.register_access.data());
  add_stage_hits(stats.stage_executions, route.program->stage_hits());
  add_stage_hits(tenant.stats.stage_executions, route.program->stage_hits());

  // Per-tenant action outcomes, recorded at decision time (process()
  // fills the aggregate drops_action/multicasts as it applies them).
  if (outcome.action == ActionKind::Drop) ++tenant.stats.drops_action;
  if (outcome.action == ActionKind::Multicast) ++tenant.stats.multicasts;
  return outcome;
}

StepOutcome SwitchDevice::process(Packet& packet) {
  ComputeOutcome outcome;
  const auto it = by_computation_.find(packet.netcl.comp);
  if (it != by_computation_.end()) {
    const Route& route = it->second;
    const KernelSpec& spec = route.kernel->fn->spec;
    ++stats.packets_processed;
    decode_args_into(spec, packet.payload, *route.args);
    outcome = run(route, *route.args, packet.netcl);
    encode_args_into(spec, *route.args, packet.payload);
    packet.netcl.len = static_cast<std::uint16_t>(packet.payload.size());
  } else {
    // Addressed here, but no resident kernel serves this computation id —
    // misrouted (or not-yet-loaded) tenant traffic. The packet still
    // passes through (§IV), but count it and leave a flight-recorder
    // breadcrumb so operators can diagnose it (ISSUE 7).
    ++stats.no_kernel;
    obs::flight(obs::FlightKind::kUnknownComputation,
                static_cast<std::uint64_t>(packet.netcl.comp), device_id_);
  }
  StepOutcome step;
  // An unknown computation keeps the default outcome: Pass.
  step.forward = runtime::apply_action(packet.netcl, outcome.action, outcome.target, device_id_);
  if (step.forward.drop) ++stats.drops_action;
  if (step.forward.multicast) ++stats.multicasts;
  step.stage_ops = outcome.stage_ops;
  step.executed = outcome.executed;
  return step;
}

// --- control plane -----------------------------------------------------------

SwitchDevice::Resolved SwitchDevice::resolve_in(Tenant& tenant, const std::string& name,
                                                const std::vector<std::uint64_t>& indices) const {
  Resolved resolved;
  if (tenant.module == nullptr) return resolved;
  if (GlobalVar* global = tenant.module->find_global(name)) {
    resolved.tenant = &tenant;
    resolved.global = global;
    resolved.indices = indices;
    return resolved;
  }
  // Access-based partitioning renamed name -> name$<outer>; map the first
  // index onto the partition.
  if (!indices.empty()) {
    const std::string part = name + "$" + std::to_string(indices[0]);
    if (GlobalVar* global = tenant.module->find_global(part)) {
      resolved.tenant = &tenant;
      resolved.global = global;
      resolved.indices.assign(indices.begin() + 1, indices.end());
      return resolved;
    }
  }
  return resolved;
}

SwitchDevice::Resolved SwitchDevice::resolve(const std::string& name,
                                             const std::vector<std::uint64_t>& indices) const {
  auto* self = const_cast<SwitchDevice*>(this);
  // "12:name" pins the lookup to tenant 12 — the disambiguator for
  // colliding global names across tenants.
  const std::size_t colon = name.find(':');
  if (colon != std::string::npos && colon > 0) {
    bool numeric = true;
    for (std::size_t i = 0; i < colon; ++i) {
      numeric = numeric && name[i] >= '0' && name[i] <= '9';
    }
    if (numeric) {
      const auto tenant_id = static_cast<TenantId>(std::stoul(name.substr(0, colon)));
      const auto it = self->tenants_.find(tenant_id);
      if (it == self->tenants_.end()) return {};
      return resolve_in(it->second, name.substr(colon + 1), indices);
    }
  }
  // Unscoped: a unique match across tenants wins; an ambiguous name (two
  // tenants declaring the same global) resolves to nothing, preserving
  // isolation — callers must scope explicitly.
  Resolved match;
  int matches = 0;
  for (auto& [id, tenant] : self->tenants_) {
    Resolved candidate = resolve_in(tenant, name, indices);
    if (candidate.global != nullptr) {
      match = std::move(candidate);
      ++matches;
    }
  }
  return matches == 1 ? match : Resolved{};
}

bool SwitchDevice::managed_write(const std::string& name,
                                 const std::vector<std::uint64_t>& indices,
                                 std::uint64_t value) {
  const Resolved r = resolve(name, indices);
  if (r.global == nullptr || !r.global->is_managed || r.global->is_lookup) return false;
  r.tenant->registers->write(*r.global, r.tenant->registers->flatten(*r.global, r.indices), value);
  ++stats.control_writes;
  ++r.tenant->stats.control_writes;
  return true;
}

bool SwitchDevice::managed_read(const std::string& name,
                                const std::vector<std::uint64_t>& indices, std::uint64_t& out) {
  const Resolved r = resolve(name, indices);
  if (r.global == nullptr || !r.global->is_managed || r.global->is_lookup) return false;
  out = r.tenant->registers->read(*r.global, r.tenant->registers->flatten(*r.global, r.indices));
  ++stats.control_reads;
  ++r.tenant->stats.control_reads;
  return true;
}

bool SwitchDevice::lookup_insert(const std::string& name, std::uint64_t key_lo,
                                 std::uint64_t key_hi, std::uint64_t value) {
  const Resolved r = resolve(name, {});
  if (r.global == nullptr || !r.global->is_lookup) return false;
  LookupTable* table = r.tenant->tables->find(*r.global);
  const bool ok = table != nullptr && table->insert(key_lo, key_hi, value);
  if (ok) {
    ++stats.control_writes;
    ++r.tenant->stats.control_writes;
  }
  return ok;
}

bool SwitchDevice::lookup_remove(const std::string& name, std::uint64_t key) {
  const Resolved r = resolve(name, {});
  if (r.global == nullptr || !r.global->is_lookup) return false;
  LookupTable* table = r.tenant->tables->find(*r.global);
  const bool ok = table != nullptr && table->remove(key);
  if (ok) {
    ++stats.control_writes;
    ++r.tenant->stats.control_writes;
  }
  return ok;
}

bool SwitchDevice::debug_read(const std::string& name,
                              const std::vector<std::uint64_t>& indices,
                              std::uint64_t& out) const {
  const Resolved r = resolve(name, indices);
  if (r.global == nullptr || r.global->is_lookup) return false;
  out = r.tenant->registers->read(*r.global, r.tenant->registers->flatten(*r.global, r.indices));
  return true;
}

void SwitchDevice::reset_state() {
  for (auto& [id, tenant] : tenants_) {
    if (tenant.registers != nullptr) tenant.registers->reset();
  }
}

void SwitchDevice::restart() {
  reset_state();
  // Rebuild the tables so control-plane inserts vanish and declaration
  // const entries come back — the state a freshly exec'd daemon would have.
  for (auto& [id, tenant] : tenants_) {
    if (tenant.module == nullptr) continue;
    tenant.tables = std::make_unique<TableSet>(*tenant.module);
    for (ExecProgram& program : tenant.programs) program.bind(*tenant.registers, *tenant.tables);
  }
  ++generation_;
}

std::map<std::string, RegisterAccess> SwitchDevice::register_access() const {
  std::map<std::string, RegisterAccess> out;
  for (const auto& [id, tenant] : tenants_) {
    for (std::size_t i = 0; i < tenant.register_access.size(); ++i) {
      const RegisterAccess& access = tenant.register_access[i];
      if (access.reads == 0 && access.writes == 0) continue;  // never accessed
      RegisterAccess& merged = out[tenant.module->globals()[i]->name];
      merged.reads += access.reads;
      merged.writes += access.writes;
    }
  }
  return out;
}

void SwitchDevice::reset_stats() {
  stats = DeviceStats{};
  for (auto& [id, tenant] : tenants_) {
    tenant.stats = DeviceStats{};
    std::fill(tenant.register_access.begin(), tenant.register_access.end(), RegisterAccess{});
  }
}

}  // namespace netcl::sim
