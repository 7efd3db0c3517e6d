#include "sim/exec.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <numeric>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "ir/eval.hpp"

namespace netcl::sim {

using namespace netcl::ir;

namespace {

constexpr std::uint32_t kZeroSlot = 0;
constexpr std::uint32_t kOneSlot = 1;
/// The longest lane body fuse_lanes looks for, and the most lanes one
/// fused op runs (Inst::lanes is 16 bits).
constexpr std::size_t kMaxLaneBody = 16;
constexpr std::size_t kMaxLanes = 0xFFFF;

/// Calls `fn` with `kind` as a compile-time constant (one of `kKinds`), so
/// a lane loop inside `fn` dispatches on the kind once, not once per lane.
template <auto... kKinds, typename Kind, typename Fn>
[[gnu::always_inline]] inline void with_constant(Kind kind, Fn&& fn) {
  (void)((kind == kKinds && (fn(std::integral_constant<Kind, kKinds>{}), true)) || ...);
}

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
  // (guard, cond, global) -> writes, so equal conditions sit together.
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
        out.ref = static_cast<std::uint32_t>(hash_inputs_.size());
        out.count = static_cast<std::uint16_t>(inst.num_operands());
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
        ++write_counts[{out.guard, kOneSlot, global_position.at(inst.global)}];
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
        ++write_counts[{out.guard, out.a, global}];
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
  for (const auto& [global, count] : read_counts) {
    ReadCount* last = read_counts_.empty() ? nullptr : &read_counts_.back();
    if (last != nullptr && last->count == count && last->global + last->globals == global) {
      ++last->globals;
    } else {
      read_counts_.push_back({global, 1, count});
    }
  }
  for (const auto& [key, count] : write_counts) {
    const auto [guard, cond, global] = key;
    WriteCount* last = write_counts_.empty() ? nullptr : &write_counts_.back();
    if (last != nullptr && last->guard == guard && last->cond == cond && last->count == count &&
        last->global + last->globals == global) {
      ++last->globals;
    } else {
      write_counts_.push_back({global, 1, guard, cond, count});
    }
  }
  fuse_lanes(fixed);
}

int ExecProgram::lane_operands(Op op) {
  switch (op) {
    case Op::kBin:
    case Op::kICmp: return 1 | 2;
    case Op::kSelect:
    case Op::kAtomic: return 1 | 2 | 4;
    case Op::kCast: return 1;
    case Op::kStoreMsg:
    case Op::kStoreGlobal: return 2;
    case Op::kLoadMsg:
    case Op::kLoadGlobal: return 0;
    default: return -1;
  }
}

bool ExecProgram::on_register(Op op) {
  return op == Op::kLoadGlobal || op == Op::kStoreGlobal || op == Op::kAtomic;
}

int ExecProgram::body_def(const Inst* lane0, std::size_t body, std::uint32_t slot) {
  for (std::size_t j = 0; j < body; ++j) {
    const Op op = lane0[j].op;
    if (op != Op::kStoreMsg && op != Op::kStoreGlobal && lane0[j].dst == slot) {
      return static_cast<int>(j);
    }
  }
  return -1;
}

void ExecProgram::hoist_arg_reads() {
  std::vector<Inst> ordered;
  ordered.reserve(insts_.size());
  // Per argument: where a read of it may go, just past its last store.
  std::vector<std::size_t> after_store;
  for (const Inst& inst : insts_) {
    if (inst.op == Op::kReadArg || inst.op == Op::kStoreMsg) {
      after_store.resize(std::max<std::size_t>(after_store.size(), inst.ref + 1), 0);
    }
    if (inst.op == Op::kReadArg) {
      const std::size_t at = after_store[inst.ref];
      ordered.insert(ordered.begin() + static_cast<std::ptrdiff_t>(at), inst);
      for (std::size_t& position : after_store) position += position > at ? 1 : 0;
      continue;
    }
    ordered.push_back(inst);
    if (inst.op == Op::kStoreMsg) after_store[inst.ref] = ordered.size();
  }
  insts_ = std::move(ordered);
}

std::size_t ExecProgram::fusable_lanes(std::span<const Inst> ops, std::size_t first,
                                       std::size_t body, const std::vector<bool>& fixed) const {
  static constexpr std::uint32_t Inst::*kOperands[] = {&Inst::a, &Inst::b, &Inst::c};
  const Inst* const lane0 = ops.data() + first;
  auto same_terms = [&](const Access& x, const Access& y) {
    if (x.count != y.count) return false;
    for (std::uint32_t t = 0; t < x.count; ++t) {
      const IndexTerm& p = index_terms_[x.terms + t];
      const IndexTerm& q = index_terms_[y.terms + t];
      if (p.slot != q.slot || p.size != q.size || p.stride != q.stride) return false;
    }
    return true;
  };
  auto is_element_op = [](Op op) { return op == Op::kLoadMsg || op == Op::kStoreMsg; };
  if (lane0[body].op != lane0[0].op || lane0[body].guard != lane0[0].guard) return 1;

  // Lane 0 alone: every op fuses, and what all lanes share (the guard, the
  // index terms) is not computed inside the body.
  std::uint32_t registers = 0;  // register accesses per lane
  for (std::size_t j = 0; j < body; ++j) {
    const Inst& inst = lane0[j];
    if (lane_operands(inst.op) < 0 || body_def(lane0, body, inst.guard) >= 0) return 1;
    if (is_element_op(inst.op) && !fixed[inst.a]) return 1;
    if (!on_register(inst.op)) continue;
    ++registers;
    const Access& access = accesses_[inst.ref];
    for (std::uint32_t t = 0; t < access.count; ++t) {
      if (body_def(lane0, body, index_terms_[access.terms + t].slot) >= 0) return 1;
    }
  }

  // Besides slots, a lane touches argument elements and register cells. No
  // lane may touch what another lane writes. Cells of one array compare by
  // their constant offset when the variable terms are the same.
  struct Touch {
    const ir::GlobalVar* global;  // null: an argument element
    std::uint32_t argument;
    std::uint64_t at;  // element, or cell offset
    const Access* access;
    bool write;
  };
  std::vector<Touch> touched;
  auto touches = [&](const Inst* lane, auto&& visit) {
    for (std::size_t j = 0; j < body; ++j) {
      const Inst& inst = lane[j];
      if (is_element_op(inst.op)) {
        visit(Touch{nullptr, inst.ref, slots_[inst.a], nullptr, inst.op == Op::kStoreMsg});
      } else if (on_register(inst.op)) {
        const Access& access = accesses_[inst.ref];
        visit(Touch{access.global, 0, access.offset, &access, inst.op != Op::kLoadGlobal});
      }
    }
  };
  auto conflict = [&](const Touch& x, const Touch& y) {
    if (x.global != y.global || x.argument != y.argument || !(x.write || y.write)) return false;
    return x.at == y.at || (x.access != nullptr && !same_terms(*x.access, *y.access));
  };
  touches(lane0, [&](const Touch& touch) { touched.push_back(touch); });

  std::size_t lanes = 1;
  for (; lanes < kMaxLanes && first + (lanes + 1) * body <= ops.size(); ++lanes) {
    const Inst* const lane = lane0 + lanes * body;
    for (std::size_t j = 0; j < body; ++j) {
      const Inst& inst = lane[j];
      const Inst& model = lane0[j];
      if (inst.op != model.op || inst.kind != model.kind || inst.flag != model.flag ||
          inst.type != model.type || inst.from != model.from || inst.guard != model.guard) {
        return lanes;
      }
      // Consecutive elements of one argument, one per lane.
      if (is_element_op(inst.op) &&
          (inst.ref != model.ref || !fixed[inst.a] || slots_[inst.a] != slots_[model.a] + lanes)) {
        return lanes;
      }
      // One access per lane and register op, at ref + lane * registers.
      if (on_register(inst.op) && (inst.ref != model.ref + lanes * registers ||
                                   !same_terms(accesses_[inst.ref], accesses_[model.ref]))) {
        return lanes;
      }
      // An operand is lane 0's own result (each lane then reads its own) or
      // a slot from before the run, which all lanes share.
      const int operands = lane_operands(inst.op);
      for (int f = 0; f < 3; ++f) {
        if ((operands & (1 << f)) == 0) continue;
        const std::uint32_t shared = model.*kOperands[f];
        const int def = body_def(lane0, body, shared);
        if (inst.*kOperands[f] != (def >= 0 ? lane[def].dst : shared)) return lanes;
      }
    }
    bool independent = true;
    touches(lane, [&](const Touch& mine) {
      for (const Touch& other : touched) independent = independent && !conflict(mine, other);
    });
    if (!independent) return lanes;
    touches(lane, [&](const Touch& touch) { touched.push_back(touch); });
  }
  return lanes;
}

void ExecProgram::fuse_lanes(const std::vector<bool>& fixed) {
  static constexpr std::uint32_t Inst::*kOperands[] = {&Inst::a, &Inst::b, &Inst::c};
  static constexpr std::uint8_t Inst::*kSteps[] = {&Inst::a_step, &Inst::b_step, &Inst::c_step};
  hoist_arg_reads();
  const std::vector<Inst> ops = std::move(insts_);
  insts_.clear();
  // A fused op's lanes write a block of fresh slots; every read of a lane's
  // old slot is renumbered to its slot in the block.
  std::vector<std::uint32_t> renumber(slots_.size());
  std::iota(renumber.begin(), renumber.end(), 0u);

  for (std::size_t first = 0; first < ops.size();) {
    // The body length that fuses the most operations, the shortest on a tie.
    std::size_t body = 0, lanes = 1;
    for (std::size_t k = 1; k <= kMaxLaneBody && first + 2 * k <= ops.size(); ++k) {
      const std::size_t n = fusable_lanes(ops, first, k, fixed);
      if (n >= 2 && k * n > body * lanes) {
        body = k;
        lanes = n;
      }
    }
    if (body == 0) {
      insts_.push_back(ops[first++]);
      continue;
    }
    const Inst* const lane0 = ops.data() + first;
    std::uint32_t registers = 0;
    for (std::size_t j = 0; j < body; ++j) registers += on_register(lane0[j].op) ? 1 : 0;
    for (std::size_t j = 0; j < body; ++j) {
      Inst fused = lane0[j];
      fused.lanes = static_cast<std::uint16_t>(lanes);
      fused.ref_step = static_cast<std::uint8_t>(on_register(fused.op) ? registers : 0);
      const int operands = lane_operands(fused.op);
      for (int f = 0; f < 3; ++f) {
        const bool own =
            (operands & (1 << f)) != 0 && body_def(lane0, body, fused.*kOperands[f]) >= 0;
        fused.*kSteps[f] = own ? 1 : 0;
      }
      if (fused.op != Op::kStoreMsg && fused.op != Op::kStoreGlobal) {
        fused.dst = static_cast<std::uint32_t>(slots_.size());
        slots_.resize(slots_.size() + lanes, 0);
        for (std::size_t l = 0; l < lanes; ++l) {
          renumber[lane0[l * body + j].dst] = fused.dst + static_cast<std::uint32_t>(l);
        }
      }
      insts_.push_back(fused);
    }
    first += body * lanes;
  }

  auto fix = [&](std::uint32_t& slot) {
    if (slot < renumber.size()) slot = renumber[slot];
  };
  for (Inst& inst : insts_) {
    fix(inst.guard);
    fix(inst.a);
    fix(inst.b);
    fix(inst.c);
  }
  for (HashInput& input : hash_inputs_) fix(input.slot);
  for (IndexTerm& term : index_terms_) fix(term.slot);
  for (StageCount& count : stage_counts_) fix(count.guard);
  for (WriteCount& count : write_counts_) {
    fix(count.guard);
    fix(count.cond);
  }
  for (Action& action : actions_) {
    fix(action.guard);
    fix(action.target);
  }
}

std::size_t ExecProgram::lane_groups() const {
  return static_cast<std::size_t>(
      std::count_if(insts_.begin(), insts_.end(), [](const Inst& inst) { return inst.lanes > 1; }));
}

void ExecProgram::bind(RegisterFile& registers, TableSet& tables) {
  for (Access& access : accesses_) access.cells = registers.cells(*access.global).data();
  for (Table& table : tables_) table.table = tables.find(*table.global);
}

std::size_t ExecProgram::term_sum(const Access& access) const {
  std::size_t index = 0;
  const IndexTerm* terms = index_terms_.data() + access.terms;
  for (std::uint32_t t = 0; t < access.count; ++t) {
    const IndexTerm& term = terms[t];
    const std::uint64_t raw = slots_[term.slot];
    index += static_cast<std::size_t>(term.pow2 ? raw & term.mask : raw % term.size) * term.stride;
  }
  return index;
}

template <typename Lanes>
[[gnu::always_inline]] inline void ExecProgram::step(const Inst& inst, Lanes lanes,
                                                     ArgValues& args, const NetclHeader& header,
                                                     SplitMix64& rng) {
  // Lane l's operands and result (see Inst). `lanes` is the constant 1
  // for an ordinary op, so its lane loops and steps fold away.
  std::uint64_t* const s = slots_.data();
  const std::uint32_t as = inst.a_step, bs = inst.b_step, cs = inst.c_step;
  auto a = [&](std::uint32_t l) { return s[inst.a + l * as]; };
  auto b = [&](std::uint32_t l) { return s[inst.b + l * bs]; };
  auto c = [&](std::uint32_t l) { return s[inst.c + l * cs]; };
  auto d = [&](std::uint32_t l) -> std::uint64_t& { return s[inst.dst + l]; };
  // The cell lane l of a register op reaches, given the sum of the
  // variable index terms (the same in every lane).
  auto cell = [&](std::uint32_t l, std::size_t terms) -> std::uint64_t& {
    const Access& lane = accesses_[inst.ref + l * inst.ref_step];
    return lane.cells[lane.offset + terms];
  };
  switch (inst.op) {
    case Op::kBin:
      for (std::uint32_t l = 0; l < lanes; ++l) {
        d(l) = eval_bin(static_cast<BinKind>(inst.kind), a(l), b(l), inst.type);
      }
      break;
    case Op::kICmp:
      for (std::uint32_t l = 0; l < lanes; ++l) {
        d(l) = eval_icmp(static_cast<ICmpPred>(inst.kind), a(l), b(l), inst.type) ? 1
                                                                                              : 0;
      }
      break;
    case Op::kSelect:
      for (std::uint32_t l = 0; l < lanes; ++l) d(l) = a(l) != 0 ? b(l) : c(l);
      break;
    case Op::kCast:
      for (std::uint32_t l = 0; l < lanes; ++l) {
        std::uint64_t value = a(l);
        if (inst.flag) value = static_cast<std::uint64_t>(inst.from.extend(value));
        d(l) = inst.type.truncate(value);
      }
      break;
    case Op::kHash: {
      const HashInput* inputs = hash_inputs_.data() + inst.ref;
      std::size_t length = 0;
      for (std::uint32_t i = 0; i < inst.count; ++i) {
        const std::uint64_t value = s[inputs[i].slot];
        for (std::uint32_t byte = 0; byte < inputs[i].width; ++byte) {
          hash_bytes_[length++] = static_cast<std::uint8_t>(value >> (8 * byte));
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
      d(0) = inst.type.truncate(digest);
      break;
    }
    case Op::kRand:
      d(0) = inst.type.truncate(rng.next());
      break;
    case Op::kMsgMeta: {
      const std::uint16_t fields[4] = {header.src, header.dst, header.from, header.to};
      d(0) = fields[inst.kind];
      break;
    }
    case Op::kClz: {
      const std::uint64_t value = inst.type.truncate(a(0));
      d(0) = value == 0 ? inst.type.bits
                      : static_cast<std::uint64_t>(std::countl_zero(value) -
                                                   (64 - inst.type.bits));
      break;
    }
    case Op::kBswap: {
      const unsigned bytes = inst.type.bits <= 8 ? 1u : inst.type.bits / 8u;
      const std::uint64_t value = a(0);
      std::uint64_t swapped = 0;
      for (unsigned byte = 0; byte < bytes; ++byte) {
        swapped = (swapped << 8) | ((value >> (8 * byte)) & 0xFF);
      }
      d(0) = swapped;
      break;
    }
    case Op::kReadArg:
      d(0) = inst.ref < args.size() && !args[inst.ref].empty() ? args[inst.ref][0] : 0;
      break;
    case Op::kLoadMsg: {
      const std::vector<std::uint64_t>& arg = args[inst.ref];
      for (std::uint32_t l = 0; l < lanes; ++l) {
        const std::uint64_t index = a(0) + l;
        d(l) = index < arg.size() ? arg[index] : 0;
      }
      break;
    }
    case Op::kStoreMsg: {
      if (s[inst.guard] == 0) break;
      std::vector<std::uint64_t>& arg = args[inst.ref];
      for (std::uint32_t l = 0; l < lanes; ++l) {
        const std::uint64_t index = a(0) + l;
        if (index < arg.size()) arg[index] = inst.type.truncate(b(l));
      }
      break;
    }
    case Op::kLoadLocal: {
      const Local& local = local_arrays_[inst.ref];
      d(0) = locals_[local.offset + a(0) % local.size];
      break;
    }
    case Op::kStoreLocal: {
      const Local& local = local_arrays_[inst.ref];
      std::uint64_t& element = locals_[local.offset + a(0) % local.size];
      element = s[inst.guard] != 0 ? inst.type.truncate(b(0)) : element;
      break;
    }
    case Op::kLoadGlobal: {
      const std::size_t terms = term_sum(accesses_[inst.ref]);
      for (std::uint32_t l = 0; l < lanes; ++l) d(l) = cell(l, terms);
      break;
    }
    case Op::kStoreGlobal: {
      if (s[inst.guard] == 0) break;
      const std::size_t terms = term_sum(accesses_[inst.ref]);
      for (std::uint32_t l = 0; l < lanes; ++l) cell(l, terms) = inst.type.truncate(b(l));
      break;
    }
    case Op::kAtomic: {
      const bool guarded = s[inst.guard] != 0;
      const std::size_t terms = term_sum(accesses_[inst.ref]);
      auto run_lanes = [&](auto kind) {
        for (std::uint32_t l = 0; l < lanes; ++l) {
          std::uint64_t& target = cell(l, terms);
          const std::uint64_t old_value = target;
          const std::uint64_t new_value =
              eval_atomic(kind, old_value, b(l), c(l), inst.type);
          const bool performed = guarded && a(l) != 0;
          target = performed ? inst.type.truncate(new_value) : old_value;
          // *_new returns the value after the operation; plain atomics the
          // value before (§V-B). Not performed, both observe the old value.
          d(l) = performed && inst.flag ? new_value : old_value;
        }
      };
      const auto kind = static_cast<AtomicOpKind>(inst.kind);
      if constexpr (std::is_same_v<Lanes, std::uint32_t>) {
        using K = AtomicOpKind;
        with_constant<K::Add, K::SAdd, K::Sub, K::SSub, K::Or, K::And, K::Xor, K::Inc, K::Dec,
                      K::Min, K::Max, K::Cas>(kind, run_lanes);
      } else {
        run_lanes(kind);
      }
      break;
    }
    case Op::kLookup: {
      const MatchResult match = tables_[inst.ref].table->match(a(0));
      d(0) = match.hit ? 1 : 0;
      s[inst.c] = match.value;
      break;
    }
  }
}

void ExecProgram::step_lanes(const Inst& inst, ArgValues& args, const NetclHeader& header,
                             SplitMix64& rng) {
  step(inst, inst.lanes, args, header, rng);
}

ComputeOutcome ExecProgram::run(ArgValues& args, const NetclHeader& header, SplitMix64& rng,
                                RegisterAccess* access) {
  std::uint64_t* const s = slots_.data();
  std::fill(locals_.begin(), locals_.end(), 0);
  for (const Inst& inst : insts_) {
    if (inst.lanes == 1) {
      step(inst, std::integral_constant<std::uint32_t, 1>{}, args, header, rng);
    } else {
      step_lanes(inst, args, header, rng);
    }
  }

  ComputeOutcome outcome;
  std::fill(stage_hits_.begin(), stage_hits_.end(), 0);
  for (const StageCount& count : stage_counts_) {
    const std::uint32_t executed = s[count.guard] != 0 ? count.count : 0;
    stage_hits_[count.stage] += executed;
    outcome.stage_ops += executed;
  }
  for (const ReadCount& count : read_counts_) {
    for (std::uint32_t g = count.global; g < count.global + count.globals; ++g) {
      access[g].reads += count.count;
    }
  }
  for (const WriteCount& count : write_counts_) {
    if (s[count.guard] == 0 || s[count.cond] == 0) continue;
    for (std::uint32_t g = count.global; g < count.global + count.globals; ++g) {
      access[g].writes += count.count;
    }
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
