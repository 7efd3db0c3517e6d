#include "reference_interpreter.hpp"

#include <cassert>

#include "ir/eval.hpp"

namespace netcl::sim::testing {

using namespace netcl::ir;

ReferenceInterpreter::ReferenceInterpreter(const ir::Module& module,
                                           const std::vector<p4::KernelProgram>& kernels,
                                           std::uint16_t device_id)
    : registers(module), tables(module), rng(0x5EEDBA5Eu ^ device_id), module_(&module) {
  for (const p4::KernelProgram& kernel : kernels) {
    by_computation_[kernel.fn->computation()] = &kernel;
  }
}

void ReferenceInterpreter::restart() {
  registers.reset();
  tables = TableSet(*module_);
}

std::map<std::string, RegisterAccess> ReferenceInterpreter::register_access_by_name() const {
  std::map<std::string, RegisterAccess> out;
  for (const auto& [global, access] : register_access) {
    RegisterAccess& merged = out[global->name];
    merged.reads += access.reads;
    merged.writes += access.writes;
  }
  return out;
}

namespace {

/// Little-endian bytes of one value at its natural width, for hash inputs.
void append_bytes(std::vector<std::uint8_t>& out, std::uint64_t value, ScalarType type) {
  const int width = type.bits <= 8 ? 1 : type.bits / 8;
  for (int b = 0; b < width; ++b) out.push_back(static_cast<std::uint8_t>(value >> (8 * b)));
}

}  // namespace

ComputeOutcome ReferenceInterpreter::execute(int computation, ArgValues& args,
                                             const NetclHeader& header) {
  ++device_stats.packets_processed;
  const auto it = by_computation_.find(computation);
  if (it == by_computation_.end()) {
    ++device_stats.no_kernel;
    return {};  // no kernel here: no-op (§IV)
  }
  ++device_stats.kernels_executed;
  ++tenant_stats.packets_processed;
  ++tenant_stats.kernels_executed;

  const p4::KernelProgram& program = *it->second;
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
      if (device_stats.stage_executions.size() <= stage) {
        device_stats.stage_executions.resize(stage + 1, 0);
      }
      if (tenant_stats.stage_executions.size() <= stage) {
        tenant_stats.stage_executions.resize(stage + 1, 0);
      }
      ++device_stats.stage_executions[stage];
      ++tenant_stats.stage_executions[stage];
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
        env[&inst] = inst.type().truncate(rng.next());
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
        env[&inst] = registers.read(*inst.global, registers.flatten(*inst.global, indices));
        ++register_access[inst.global].reads;
        break;
      }
      case Opcode::StoreGlobal: {
        if (!guard_true) break;
        std::vector<std::uint64_t> indices;
        for (int i = 0; i < inst.num_indices; ++i) indices.push_back(eval(inst.operand(i)));
        registers.write(*inst.global, registers.flatten(*inst.global, indices),
                        eval(inst.operand(inst.num_operands() - 1)));
        ++register_access[inst.global].writes;
        break;
      }
      case Opcode::AtomicRMW: {
        std::vector<std::uint64_t> indices;
        for (int i = 0; i < inst.num_indices; ++i) indices.push_back(eval(inst.operand(i)));
        const std::size_t index = registers.flatten(*inst.global, indices);
        std::size_t next = static_cast<std::size_t>(inst.num_indices);
        bool cond = true;
        if (inst.atomic_cond) cond = eval(inst.operand(next++)) != 0;
        const std::uint64_t operand0 =
            next < inst.num_operands() ? eval(inst.operand(next)) : 0;
        const std::uint64_t operand1 =
            next + 1 < inst.num_operands() ? eval(inst.operand(next + 1)) : 0;
        const std::uint64_t old_value = registers.read(*inst.global, index);
        ++register_access[inst.global].reads;
        if (guard_true && cond) {
          ++register_access[inst.global].writes;
          const auto [old_v, new_v] =
              registers.atomic(*inst.global, index, inst.atomic_op, operand0, operand1);
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
        const LookupTable* table = tables.find(*inst.global);
        assert(table != nullptr);
        const MatchResult match = table->match(eval(inst.operand(0)));
        env[&inst] = match.hit ? 1 : 0;
        break;
      }
      case Opcode::LookupValue: {
        const LookupTable* table = tables.find(*inst.global);
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
  if (outcome.action == ActionKind::Drop) ++tenant_stats.drops_action;
  if (outcome.action == ActionKind::Multicast) ++tenant_stats.multicasts;

  outcome.executed = true;
  return outcome;
}

}  // namespace netcl::sim::testing
