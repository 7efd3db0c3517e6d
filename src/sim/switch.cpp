#include "sim/switch.hpp"

#include <cassert>

#include "ir/eval.hpp"
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

void SwitchDevice::attach(TenantId id, Tenant& tenant) {
  for (const p4::KernelProgram& kernel : tenant.kernels) {
    by_computation_[kernel.fn->computation()] = {id, &kernel};
  }
}

void SwitchDevice::detach(TenantId id, Tenant& tenant) {
  for (const p4::KernelProgram& kernel : tenant.kernels) {
    const auto it = by_computation_.find(kernel.fn->computation());
    if (it != by_computation_.end() && it->second.first == id) by_computation_.erase(it);
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
                  " is already served by tenant " + std::to_string(it->second.first)};
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
  tenant.name = std::move(artifact.name);
  tenant.module = std::move(artifact.module);
  tenant.kernels = std::move(artifact.kernels);
  tenant.stages_used = artifact.stages_used;
  tenant.per_stage = std::move(artifact.per_stage);
  tenant.registers = std::make_unique<RegisterFile>(*tenant.module);
  tenant.tables = std::make_unique<TableSet>(*tenant.module);
  tenant.rng = SplitMix64{0x5EEDBA5Eu ^ device_id_};
  attach(tenant_id, tenant);
  refresh_stages();
  return {};
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
    if (found != by_computation_.end() && found->second.first != tenant_id) {
      return {ErrorKind::kRejected,
              "computation " + std::to_string(kernel.fn->computation()) +
                  " is already served by tenant " + std::to_string(found->second.first)};
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
  tenant.name = std::move(artifact.name);
  tenant.module = std::move(artifact.module);
  tenant.kernels = std::move(artifact.kernels);
  tenant.stages_used = artifact.stages_used;
  tenant.per_stage = std::move(artifact.per_stage);
  // Fresh state, like a per-tenant restart: the host journal replays
  // managed writes/inserts on top (DeviceConnection::resync).
  tenant.registers = std::make_unique<RegisterFile>(*tenant.module);
  tenant.tables = std::make_unique<TableSet>(*tenant.module);
  tenant.rng = SplitMix64{0x5EEDBA5Eu ^ device_id_};
  tenant.register_access.clear();
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
  return it == by_computation_.end() ? nullptr : &it->second.second->fn->spec;
}

const TenantId* SwitchDevice::tenant_for(int computation) const {
  const auto it = by_computation_.find(computation);
  return it == by_computation_.end() ? nullptr : &it->second.first;
}

namespace {

/// Little-endian bytes of one value at its natural width, for hash inputs.
void append_bytes(std::vector<std::uint8_t>& out, std::uint64_t value, ScalarType type) {
  const int width = type.bits <= 8 ? 1 : type.bits / 8;
  for (int b = 0; b < width; ++b) out.push_back(static_cast<std::uint8_t>(value >> (8 * b)));
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
  Tenant& tenant = tenants_.at(it->second.first);
  ++stats.kernels_executed;
  ++tenant.stats.packets_processed;
  ++tenant.stats.kernels_executed;

  const p4::KernelProgram& program = *it->second.second;
  std::unordered_map<const Value*, std::uint64_t> env;
  std::unordered_map<const LocalArray*, std::vector<std::uint64_t>> locals;

  auto eval = [&](const Value* v) -> std::uint64_t {
    if (v == nullptr) return 1;  // absent guard = always true
    if (const Constant* c = as_constant(v)) return c->value();
    if (v->kind() == ValueKind::Argument) {
      const auto* arg = static_cast<const Argument*>(v);
      return args[static_cast<std::size_t>(arg->index())][0];
    }
    const auto found = env.find(v);
    return found == env.end() ? 0 : found->second;
  };

  ComputeOutcome outcome;
  bool action_chosen = false;

  for (const p4::LinearInst& li : program.insts) {
    const Instruction& inst = *li.inst;
    const bool guard_true = li.guard == nullptr || eval(li.guard) != 0;

    if (guard_true && li.stage >= 0) {
      const auto stage = static_cast<std::size_t>(li.stage);
      if (stats.stage_executions.size() <= stage) {
        stats.stage_executions.resize(stage + 1, 0);
      }
      if (tenant.stats.stage_executions.size() <= stage) {
        tenant.stats.stage_executions.resize(stage + 1, 0);
      }
      ++stats.stage_executions[stage];
      ++tenant.stats.stage_executions[stage];
      ++outcome.stage_ops;
    }

    switch (inst.op()) {
      case Opcode::Bin:
        env[&inst] = eval_bin(inst.bin_kind, eval(inst.operand(0)), eval(inst.operand(1)),
                              inst.type());
        break;
      case Opcode::ICmp:
        env[&inst] = eval_icmp(inst.icmp_pred, eval(inst.operand(0)), eval(inst.operand(1)),
                               inst.operand(0)->type())
                         ? 1
                         : 0;
        break;
      case Opcode::Select:
        env[&inst] = eval(inst.operand(0)) != 0 ? eval(inst.operand(1)) : eval(inst.operand(2));
        break;
      case Opcode::Cast: {
        const Value* operand = inst.operand(0);
        std::uint64_t value = eval(operand);
        if (inst.cast_signed && inst.type().bits > operand->type().bits) {
          value = static_cast<std::uint64_t>(operand->type().extend(value));
        }
        env[&inst] = inst.type().truncate(value);
        break;
      }
      case Opcode::Hash: {
        std::vector<std::uint8_t> bytes;
        for (std::size_t i = 0; i < inst.num_operands(); ++i) {
          append_bytes(bytes, eval(inst.operand(i)), inst.operand(i)->type());
        }
        std::uint64_t digest = 0;
        switch (inst.hash_kind) {
          case HashKind::Crc16: digest = crc16(bytes); break;
          case HashKind::Crc32: digest = crc32(bytes); break;
          case HashKind::Xor16: digest = xor16(bytes); break;
          case HashKind::Identity:
            digest = bytes.empty() ? 0 : eval(inst.operand(0));
            break;
        }
        env[&inst] = inst.type().truncate(digest);
        break;
      }
      case Opcode::Rand:
        env[&inst] = inst.type().truncate(tenant.rng.next());
        break;
      case Opcode::MsgMeta: {
        const std::uint16_t fields[4] = {header.src, header.dst, header.from, header.to};
        env[&inst] = fields[inst.arg_index & 3];
        break;
      }
      case Opcode::Clz: {
        const ScalarType type = inst.operand(0)->type();
        const std::uint64_t value = type.truncate(eval(inst.operand(0)));
        int count = 0;
        for (int bit = type.bits - 1; bit >= 0; --bit) {
          if ((value >> bit) & 1) break;
          ++count;
        }
        env[&inst] = static_cast<std::uint64_t>(count);
        break;
      }
      case Opcode::Bswap: {
        const unsigned bytes = inst.type().bits <= 8 ? 1u : inst.type().bits / 8u;
        const std::uint64_t value = eval(inst.operand(0));
        std::uint64_t swapped = 0;
        for (unsigned b = 0; b < bytes; ++b) {
          swapped = (swapped << 8) | ((value >> (8 * b)) & 0xFF);
        }
        env[&inst] = swapped;
        break;
      }
      case Opcode::LoadMsg: {
        const auto index = static_cast<std::size_t>(eval(inst.operand(0)));
        auto& arg = args[static_cast<std::size_t>(inst.arg_index)];
        env[&inst] = index < arg.size() ? arg[index] : 0;
        break;
      }
      case Opcode::StoreMsg: {
        if (!guard_true) break;
        const auto index = static_cast<std::size_t>(eval(inst.operand(0)));
        auto& arg = args[static_cast<std::size_t>(inst.arg_index)];
        if (index < arg.size()) {
          const ScalarType type =
              program.fn->spec.args[static_cast<std::size_t>(inst.arg_index)].type;
          arg[index] = type.truncate(eval(inst.operand(1)));
        }
        break;
      }
      case Opcode::LoadLocal: {
        auto& storage = locals[inst.local_array];
        if (storage.empty()) storage.assign(static_cast<std::size_t>(inst.local_array->size), 0);
        const auto index =
            static_cast<std::size_t>(eval(inst.operand(0))) % storage.size();
        env[&inst] = storage[index];
        break;
      }
      case Opcode::StoreLocal: {
        if (!guard_true) break;
        auto& storage = locals[inst.local_array];
        if (storage.empty()) storage.assign(static_cast<std::size_t>(inst.local_array->size), 0);
        const auto index =
            static_cast<std::size_t>(eval(inst.operand(0))) % storage.size();
        storage[index] = inst.local_array->elem_type.truncate(eval(inst.operand(1)));
        break;
      }
      case Opcode::LoadGlobal: {
        std::vector<std::uint64_t> indices;
        for (int i = 0; i < inst.num_indices; ++i) indices.push_back(eval(inst.operand(i)));
        env[&inst] = tenant.registers->read(*inst.global,
                                            tenant.registers->flatten(*inst.global, indices));
        ++tenant.register_access[inst.global].reads;
        break;
      }
      case Opcode::StoreGlobal: {
        if (!guard_true) break;
        std::vector<std::uint64_t> indices;
        for (int i = 0; i < inst.num_indices; ++i) indices.push_back(eval(inst.operand(i)));
        tenant.registers->write(*inst.global, tenant.registers->flatten(*inst.global, indices),
                                eval(inst.operand(inst.num_operands() - 1)));
        ++tenant.register_access[inst.global].writes;
        break;
      }
      case Opcode::AtomicRMW: {
        std::vector<std::uint64_t> indices;
        for (int i = 0; i < inst.num_indices; ++i) indices.push_back(eval(inst.operand(i)));
        const std::size_t index = tenant.registers->flatten(*inst.global, indices);
        std::size_t next = static_cast<std::size_t>(inst.num_indices);
        bool cond = true;
        if (inst.atomic_cond) cond = eval(inst.operand(next++)) != 0;
        const std::uint64_t operand0 =
            next < inst.num_operands() ? eval(inst.operand(next)) : 0;
        const std::uint64_t operand1 =
            next + 1 < inst.num_operands() ? eval(inst.operand(next + 1)) : 0;
        const std::uint64_t old_value = tenant.registers->read(*inst.global, index);
        ++tenant.register_access[inst.global].reads;
        if (guard_true && cond) {
          ++tenant.register_access[inst.global].writes;
          const auto [old_v, new_v] =
              tenant.registers->atomic(*inst.global, index, inst.atomic_op, operand0, operand1);
          // *_new returns the value after the operation; plain atomics the
          // value before (§V-B).
          env[&inst] = inst.atomic_new ? new_v : old_v;
        } else {
          // Not performed: both variants observe the unchanged value.
          env[&inst] = old_value;
        }
        break;
      }
      case Opcode::Lookup: {
        const LookupTable* table = tenant.tables->find(*inst.global);
        assert(table != nullptr);
        const MatchResult match = table->match(eval(inst.operand(0)));
        env[&inst] = match.hit ? 1 : 0;
        break;
      }
      case Opcode::LookupValue: {
        const LookupTable* table = tenant.tables->find(*inst.global);
        assert(table != nullptr);
        // Re-match through the paired Lookup's key operand.
        const auto* lookup = static_cast<const Instruction*>(inst.operand(0));
        const MatchResult match = table->match(eval(lookup->operand(0)));
        env[&inst] = match.hit ? match.value : eval(inst.operand(1));
        break;
      }
      case Opcode::RetAction: {
        if (guard_true && !action_chosen) {
          action_chosen = true;
          outcome.action = inst.action;
          if (inst.num_operands() > 0) {
            outcome.target = static_cast<std::uint16_t>(eval(inst.operand(0)));
          }
        }
        break;
      }
      case Opcode::Phi:
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Ret:
        assert(false && "control flow must not survive linearization");
        break;
    }
  }

  // Per-tenant action outcomes, recorded at decision time (process()
  // fills the aggregate drops_action/multicasts as it applies them).
  if (outcome.action == ActionKind::Drop) ++tenant.stats.drops_action;
  if (outcome.action == ActionKind::Multicast) ++tenant.stats.multicasts;

  outcome.executed = true;
  return outcome;
}

StepOutcome SwitchDevice::process(Packet& packet) {
  ComputeOutcome outcome;
  if (const KernelSpec* spec = spec_for(packet.netcl.comp)) {
    ArgValues args = decode_args(*spec, packet.payload);
    outcome = execute(packet.netcl.comp, args, packet.netcl);
    packet.payload = encode_args(*spec, args);
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
    if (tenant.module != nullptr) tenant.tables = std::make_unique<TableSet>(*tenant.module);
  }
  ++generation_;
}

std::map<std::string, RegisterAccess> SwitchDevice::register_access() const {
  std::map<std::string, RegisterAccess> out;
  for (const auto& [id, tenant] : tenants_) {
    for (const auto& [global, access] : tenant.register_access) {
      RegisterAccess& merged = out[global->name];
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
    tenant.register_access.clear();
  }
}

}  // namespace netcl::sim
