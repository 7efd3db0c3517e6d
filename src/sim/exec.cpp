#include "sim/exec.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <tuple>
#include <unordered_map>

#include "ir/eval.hpp"

namespace netcl::sim {

using namespace netcl::ir;

namespace {

constexpr std::uint32_t kZeroSlot = 0;
constexpr std::uint32_t kOneSlot = 1;

}  // namespace

ExecProgram::ExecProgram(const p4::KernelProgram& kernel, const Module& module) {
  const std::vector<ArgSpec>& spec_args = kernel.fn->spec.args;
  slots_ = {0, 1};  // kZeroSlot, kOneSlot
  std::vector<bool> fixed = {true, true};  // slots whose value is set here, at load

  std::unordered_map<const GlobalVar*, std::uint32_t> global_position;
  for (std::size_t i = 0; i < module.globals().size(); ++i) {
    global_position[module.globals()[i].get()] = static_cast<std::uint32_t>(i);
  }
  std::unordered_map<std::uint64_t, std::uint32_t> constants{{0, kZeroSlot}, {1, kOneSlot}};
  std::unordered_map<const Value*, std::uint32_t> defined;  // latest definition's slot
  std::unordered_map<int, std::uint32_t> arg_read;  // argument -> slot read since last store
  std::unordered_map<const GlobalVar*, std::uint32_t> table_of;
  std::unordered_map<const LocalArray*, std::uint32_t> local_of;
  struct LookupResult {
    std::uint32_t hit, value, key, table;
  };
  std::unordered_map<const Instruction*, LookupResult> lookups;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> stage_counts;
  std::map<std::uint32_t, std::uint32_t> read_counts;
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, std::uint32_t> write_counts;

  auto new_slot = [&] {
    slots_.push_back(0);
    fixed.push_back(false);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  };
  // The slot an operand reads, resolved at this point of the program.
  auto slot_of = [&](const Value* value) -> std::uint32_t {
    if (value == nullptr) return kOneSlot;  // absent guard = always true
    if (const Constant* constant = as_constant(value)) {
      const auto [it, inserted] = constants.emplace(constant->value(), 0);
      if (inserted) {
        it->second = new_slot();
        slots_[it->second] = constant->value();
        fixed[it->second] = true;
      }
      return it->second;
    }
    if (value->kind() == ValueKind::Argument) {
      const int index = static_cast<const Argument*>(value)->index();
      const auto [it, inserted] = arg_read.emplace(index, 0);
      if (inserted) {
        Inst read;
        read.op = Op::kReadArg;
        read.ref = static_cast<std::uint32_t>(index);
        read.dst = it->second = new_slot();
        insts_.push_back(read);
      }
      return it->second;
    }
    const auto it = defined.find(value);
    return it == defined.end() ? kZeroSlot : it->second;  // not yet defined: reads 0
  };
  auto access_of = [&](const Instruction& inst) {
    const GlobalVar& global = *inst.global;
    Access access;
    access.global = &global;
    access.terms = static_cast<std::uint32_t>(index_terms_.size());
    std::vector<std::size_t> strides(global.dims.size(), 1);
    for (std::size_t d = global.dims.size(); d-- > 1;) {
      strides[d - 1] = strides[d] * static_cast<std::size_t>(global.dims[d]);
    }
    for (std::size_t d = 0; d < global.dims.size(); ++d) {
      if (d >= static_cast<std::size_t>(inst.num_indices)) break;  // missing index reads 0
      const std::uint32_t slot = slot_of(inst.operand(d));
      const auto size = static_cast<std::uint64_t>(global.dims[d]);
      if (fixed[slot]) {
        access.offset += static_cast<std::size_t>(slots_[slot] % size) * strides[d];
      } else {
        index_terms_.push_back({slot, std::has_single_bit(size), size, size - 1, strides[d]});
      }
    }
    // Indices past the array's rank are still evaluated (and ignored).
    for (int i = static_cast<int>(global.dims.size()); i < inst.num_indices; ++i) {
      (void)slot_of(inst.operand(static_cast<std::size_t>(i)));
    }
    access.count = static_cast<std::uint32_t>(index_terms_.size()) - access.terms;
    accesses_.push_back(access);
    return static_cast<std::uint32_t>(accesses_.size() - 1);
  };
  auto table_ref = [&](const GlobalVar* global) {
    const auto [it, inserted] =
        table_of.emplace(global, static_cast<std::uint32_t>(tables_.size()));
    if (inserted) tables_.push_back({global, nullptr});
    return it->second;
  };

  for (const p4::LinearInst& li : kernel.insts) {
    const Instruction& inst = *li.inst;
    Inst out;
    out.guard = slot_of(li.guard);
    if (li.stage >= 0) ++stage_counts[{static_cast<std::uint32_t>(li.stage), out.guard}];
    auto operand = [&](std::size_t i) { return slot_of(inst.operand(i)); };

    switch (inst.op()) {
      case Opcode::Bin:
        out.op = Op::kBin;
        out.kind = static_cast<std::uint8_t>(inst.bin_kind);
        out.type = inst.type();
        out.a = operand(0);
        out.b = operand(1);
        break;
      case Opcode::ICmp:
        out.op = Op::kICmp;
        out.kind = static_cast<std::uint8_t>(inst.icmp_pred);
        out.type = inst.operand(0)->type();
        out.a = operand(0);
        out.b = operand(1);
        break;
      case Opcode::Select:
        out.op = Op::kSelect;
        out.a = operand(0);
        out.b = operand(1);
        out.c = operand(2);
        break;
      case Opcode::Cast:
        out.op = Op::kCast;
        out.type = inst.type();
        out.from = inst.operand(0)->type();
        out.flag = inst.cast_signed && out.type.bits > out.from.bits;
        out.a = operand(0);
        break;
      case Opcode::Hash: {
        out.op = Op::kHash;
        out.kind = static_cast<std::uint8_t>(inst.hash_kind);
        out.type = inst.type();
        out.list = static_cast<std::uint32_t>(hash_inputs_.size());
        out.count = static_cast<std::uint32_t>(inst.num_operands());
        std::size_t bytes = 0;
        for (std::size_t i = 0; i < inst.num_operands(); ++i) {
          const ScalarType type = inst.operand(i)->type();
          const std::uint32_t width = type.bits <= 8 ? 1u : type.bits / 8u;
          hash_inputs_.push_back({operand(i), width});
          bytes += width;
        }
        hash_bytes_.resize(std::max(hash_bytes_.size(), bytes));
        break;
      }
      case Opcode::Rand:
        out.op = Op::kRand;
        out.type = inst.type();
        break;
      case Opcode::MsgMeta:
        out.op = Op::kMsgMeta;
        out.kind = static_cast<std::uint8_t>(inst.arg_index & 3);
        break;
      case Opcode::Clz:
        out.op = Op::kClz;
        out.type = inst.operand(0)->type();
        out.a = operand(0);
        break;
      case Opcode::Bswap:
        out.op = Op::kBswap;
        out.type = inst.type();
        out.a = operand(0);
        break;
      case Opcode::LoadMsg:
        out.op = Op::kLoadMsg;
        out.ref = static_cast<std::uint32_t>(inst.arg_index);
        out.a = operand(0);
        break;
      case Opcode::StoreMsg: {
        const auto arg = static_cast<std::size_t>(inst.arg_index);
        out.op = Op::kStoreMsg;
        out.ref = static_cast<std::uint32_t>(arg);
        out.type = arg < spec_args.size() ? spec_args[arg].type : kU64;
        out.a = operand(0);
        out.b = operand(1);
        break;
      }
      case Opcode::LoadLocal:
      case Opcode::StoreLocal: {
        const auto [it, inserted] =
            local_of.emplace(inst.local_array, static_cast<std::uint32_t>(local_arrays_.size()));
        if (inserted) {
          Local local;
          local.offset = static_cast<std::uint32_t>(locals_.size());
          local.size = static_cast<std::uint32_t>(std::max(inst.local_array->size, 1));
          local_arrays_.push_back(local);
          locals_.resize(locals_.size() + local.size, 0);
        }
        out.op = inst.op() == Opcode::LoadLocal ? Op::kLoadLocal : Op::kStoreLocal;
        out.ref = it->second;
        out.type = inst.local_array->elem_type;
        out.a = operand(0);
        if (inst.op() == Opcode::StoreLocal) out.b = operand(1);
        break;
      }
      case Opcode::LoadGlobal:
        out.op = Op::kLoadGlobal;
        out.ref = access_of(inst);
        ++read_counts[global_position.at(inst.global)];
        break;
      case Opcode::StoreGlobal:
        out.op = Op::kStoreGlobal;
        out.ref = access_of(inst);
        out.type = inst.global->elem_type;
        out.b = operand(inst.num_operands() - 1);
        ++write_counts[{global_position.at(inst.global), out.guard, kOneSlot}];
        break;
      case Opcode::AtomicRMW: {
        out.op = Op::kAtomic;
        out.ref = access_of(inst);
        out.kind = static_cast<std::uint8_t>(inst.atomic_op);
        out.flag = inst.atomic_new;
        out.type = inst.global->elem_type;
        std::size_t next = static_cast<std::size_t>(inst.num_indices);
        out.a = inst.atomic_cond ? operand(next++) : kOneSlot;
        out.b = next < inst.num_operands() ? operand(next) : kZeroSlot;
        out.c = next + 1 < inst.num_operands() ? operand(next + 1) : kZeroSlot;
        const std::uint32_t global = global_position.at(inst.global);
        ++read_counts[global];
        ++write_counts[{global, out.guard, out.a}];
        break;
      }
      case Opcode::Lookup:
        out.op = Op::kLookup;
        out.ref = table_ref(inst.global);
        out.a = operand(0);
        out.c = new_slot();  // the matched value, for the paired LookupValue
        break;
      case Opcode::LookupValue: {
        // The hit and value of the paired Lookup's match on the same key
        // (slots are assigned once, so an equal key slot is an equal key).
        // Without that result at hand, match again just before.
        out.op = Op::kSelect;
        const std::uint32_t table = table_ref(inst.global);
        const Value* paired_with = inst.operand(0);
        const auto* lookup = paired_with != nullptr && paired_with->kind() == ValueKind::Instruction
                                 ? static_cast<const Instruction*>(paired_with)
                                 : nullptr;
        const std::uint32_t key =
            lookup != nullptr && lookup->num_operands() > 0 ? slot_of(lookup->operand(0)) : kZeroSlot;
        const auto paired = lookups.find(lookup);
        if (paired != lookups.end() && paired->second.table == table &&
            paired->second.key == key) {
          out.a = paired->second.hit;
          out.b = paired->second.value;
        } else {
          Inst rematch;
          rematch.op = Op::kLookup;
          rematch.ref = table;
          rematch.a = key;
          rematch.dst = new_slot();
          rematch.c = new_slot();
          insts_.push_back(rematch);
          out.a = rematch.dst;
          out.b = rematch.c;
        }
        out.c = operand(1);
        break;
      }
      case Opcode::RetAction: {
        Action action;
        action.guard = out.guard;
        action.action = inst.action;
        action.has_target = inst.num_operands() > 0;
        if (action.has_target) action.target = operand(0);
        actions_.push_back(action);
        continue;
      }
      case Opcode::Phi:
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Ret:
        assert(false && "control flow must not survive linearization");
        continue;
    }

    switch (inst.op()) {
      case Opcode::StoreGlobal:
      case Opcode::StoreMsg:
      case Opcode::StoreLocal:
        break;
      default:
        out.dst = defined[&inst] = new_slot();
        break;
    }
    if (inst.op() == Opcode::Lookup) lookups[&inst] = {out.dst, out.c, out.a, out.ref};
    // A store to an argument makes later reads of it read again.
    if (inst.op() == Opcode::StoreMsg) arg_read.erase(inst.arg_index);
    insts_.push_back(out);
  }

  int max_stage = -1;
  for (const auto& [key, count] : stage_counts) {
    stage_counts_.push_back({key.first, key.second, count});
    max_stage = std::max(max_stage, static_cast<int>(key.first));
  }
  stage_hits_.assign(static_cast<std::size_t>(max_stage + 1), 0);
  for (const auto& [global, count] : read_counts) read_counts_.push_back({global, count});
  for (const auto& [key, count] : write_counts) {
    write_counts_.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key), count});
  }
}

void ExecProgram::bind(RegisterFile& registers, TableSet& tables) {
  for (Access& access : accesses_) access.cells = registers.cells(*access.global).data();
  for (Table& table : tables_) table.table = tables.find(*table.global);
}

std::uint64_t& ExecProgram::cell(const Inst& inst) const {
  const Access& access = accesses_[inst.ref];
  std::size_t index = access.offset;
  const IndexTerm* terms = index_terms_.data() + access.terms;
  for (std::uint32_t t = 0; t < access.count; ++t) {
    const IndexTerm& term = terms[t];
    const std::uint64_t raw = slots_[term.slot];
    index += static_cast<std::size_t>(term.pow2 ? raw & term.mask : raw % term.size) * term.stride;
  }
  return access.cells[index];
}

ComputeOutcome ExecProgram::run(ArgValues& args, const NetclHeader& header, SplitMix64& rng,
                                RegisterAccess* access) {
  std::uint64_t* const s = slots_.data();
  std::fill(locals_.begin(), locals_.end(), 0);

  for (const Inst& inst : insts_) {
    switch (inst.op) {
      case Op::kBin:
        s[inst.dst] = eval_bin(static_cast<BinKind>(inst.kind), s[inst.a], s[inst.b], inst.type);
        break;
      case Op::kICmp:
        s[inst.dst] =
            eval_icmp(static_cast<ICmpPred>(inst.kind), s[inst.a], s[inst.b], inst.type) ? 1 : 0;
        break;
      case Op::kSelect:
        s[inst.dst] = s[inst.a] != 0 ? s[inst.b] : s[inst.c];
        break;
      case Op::kCast: {
        std::uint64_t value = s[inst.a];
        if (inst.flag) value = static_cast<std::uint64_t>(inst.from.extend(value));
        s[inst.dst] = inst.type.truncate(value);
        break;
      }
      case Op::kHash: {
        const HashInput* inputs = hash_inputs_.data() + inst.list;
        std::size_t length = 0;
        for (std::uint32_t i = 0; i < inst.count; ++i) {
          const std::uint64_t value = s[inputs[i].slot];
          for (std::uint32_t b = 0; b < inputs[i].width; ++b) {
            hash_bytes_[length++] = static_cast<std::uint8_t>(value >> (8 * b));
          }
        }
        const std::span<const std::uint8_t> bytes(hash_bytes_.data(), length);
        std::uint64_t digest = 0;
        switch (static_cast<HashKind>(inst.kind)) {
          case HashKind::Crc16: digest = crc16(bytes); break;
          case HashKind::Crc32: digest = crc32(bytes); break;
          case HashKind::Xor16: digest = xor16(bytes); break;
          case HashKind::Identity: digest = inst.count == 0 ? 0 : s[inputs[0].slot]; break;
        }
        s[inst.dst] = inst.type.truncate(digest);
        break;
      }
      case Op::kRand:
        s[inst.dst] = inst.type.truncate(rng.next());
        break;
      case Op::kMsgMeta: {
        const std::uint16_t fields[4] = {header.src, header.dst, header.from, header.to};
        s[inst.dst] = fields[inst.kind];
        break;
      }
      case Op::kClz: {
        const std::uint64_t value = inst.type.truncate(s[inst.a]);
        s[inst.dst] = value == 0 ? inst.type.bits
                                 : static_cast<std::uint64_t>(std::countl_zero(value) -
                                                              (64 - inst.type.bits));
        break;
      }
      case Op::kBswap: {
        const unsigned bytes = inst.type.bits <= 8 ? 1u : inst.type.bits / 8u;
        const std::uint64_t value = s[inst.a];
        std::uint64_t swapped = 0;
        for (unsigned b = 0; b < bytes; ++b) swapped = (swapped << 8) | ((value >> (8 * b)) & 0xFF);
        s[inst.dst] = swapped;
        break;
      }
      case Op::kReadArg:
        s[inst.dst] = inst.ref < args.size() && !args[inst.ref].empty() ? args[inst.ref][0] : 0;
        break;
      case Op::kLoadMsg: {
        const std::uint64_t index = s[inst.a];
        const std::vector<std::uint64_t>& arg = args[inst.ref];
        s[inst.dst] = index < arg.size() ? arg[index] : 0;
        break;
      }
      case Op::kStoreMsg: {
        if (s[inst.guard] == 0) break;
        const std::uint64_t index = s[inst.a];
        std::vector<std::uint64_t>& arg = args[inst.ref];
        if (index < arg.size()) arg[index] = inst.type.truncate(s[inst.b]);
        break;
      }
      case Op::kLoadLocal: {
        const Local& local = local_arrays_[inst.ref];
        s[inst.dst] = locals_[local.offset + s[inst.a] % local.size];
        break;
      }
      case Op::kStoreLocal: {
        const Local& local = local_arrays_[inst.ref];
        std::uint64_t& element = locals_[local.offset + s[inst.a] % local.size];
        element = s[inst.guard] != 0 ? inst.type.truncate(s[inst.b]) : element;
        break;
      }
      case Op::kLoadGlobal:
        s[inst.dst] = cell(inst);
        break;
      case Op::kStoreGlobal: {
        std::uint64_t& target = cell(inst);
        target = s[inst.guard] != 0 ? inst.type.truncate(s[inst.b]) : target;
        break;
      }
      case Op::kAtomic: {
        std::uint64_t& target = cell(inst);
        const std::uint64_t old_value = target;
        const std::uint64_t new_value = eval_atomic(static_cast<AtomicOpKind>(inst.kind),
                                                    old_value, s[inst.b], s[inst.c], inst.type);
        const bool performed = s[inst.guard] != 0 && s[inst.a] != 0;
        target = performed ? inst.type.truncate(new_value) : old_value;
        // *_new returns the value after the operation; plain atomics the
        // value before (§V-B). Not performed, both observe the old value.
        s[inst.dst] = performed && inst.flag ? new_value : old_value;
        break;
      }
      case Op::kLookup: {
        const MatchResult match = tables_[inst.ref].table->match(s[inst.a]);
        s[inst.dst] = match.hit ? 1 : 0;
        s[inst.c] = match.value;
        break;
      }
    }
  }

  ComputeOutcome outcome;
  std::fill(stage_hits_.begin(), stage_hits_.end(), 0);
  for (const StageCount& count : stage_counts_) {
    const std::uint32_t executed = s[count.guard] != 0 ? count.count : 0;
    stage_hits_[count.stage] += executed;
    outcome.stage_ops += executed;
  }
  for (const ReadCount& count : read_counts_) access[count.global].reads += count.count;
  for (const WriteCount& count : write_counts_) {
    if (s[count.guard] != 0 && s[count.cond] != 0) access[count.global].writes += count.count;
  }
  // The first RetAction whose guard holds decides the message's fate.
  for (const Action& action : actions_) {
    if (s[action.guard] == 0) continue;
    outcome.action = action.action;
    if (action.has_target) outcome.target = static_cast<std::uint16_t>(s[action.target]);
    break;
  }
  outcome.executed = true;
  return outcome;
}

}  // namespace netcl::sim
