// Shared evaluation semantics for IR arithmetic.
//
// One implementation serves both the constant folder (passes/simplify) and
// the switch simulator's compiled executor, so compile-time folding and
// run-time execution can never disagree. Inline, because the executor
// evaluates them per operation per packet.
#pragma once

#include <cstdint>

#include "ir/ir.hpp"

namespace netcl::ir {

inline std::uint64_t eval_bin(BinKind kind, std::uint64_t a, std::uint64_t b, ScalarType type) {
  const std::int64_t sa = type.extend(a);
  const std::int64_t sb = type.extend(b);
  const std::uint64_t ua = type.truncate(a);
  const std::uint64_t ub = type.truncate(b);
  const unsigned shift_mask = type.bits >= 64 ? 63 : 63;  // C-like masking
  switch (kind) {
    case BinKind::Add: return type.truncate(ua + ub);
    case BinKind::Sub: return type.truncate(ua - ub);
    case BinKind::Mul: return type.truncate(ua * ub);
    case BinKind::UDiv: return ub == 0 ? 0 : ua / ub;
    case BinKind::SDiv: return sb == 0 ? 0 : type.truncate(static_cast<std::uint64_t>(sa / sb));
    case BinKind::URem: return ub == 0 ? 0 : ua % ub;
    case BinKind::SRem: return sb == 0 ? 0 : type.truncate(static_cast<std::uint64_t>(sa % sb));
    case BinKind::Shl: return type.truncate(ua << (ub & shift_mask));
    case BinKind::LShr: return (ub & shift_mask) >= type.bits ? 0 : ua >> (ub & shift_mask);
    case BinKind::AShr: {
      const unsigned amount = static_cast<unsigned>(ub & shift_mask);
      if (amount >= type.bits) return type.truncate(sa < 0 ? ~0ULL : 0);
      return type.truncate(static_cast<std::uint64_t>(sa >> amount));
    }
    case BinKind::And: return ua & ub;
    case BinKind::Or: return ua | ub;
    case BinKind::Xor: return ua ^ ub;
    case BinKind::SAddSat: {
      const std::uint64_t sum = ua + ub;
      if (type.bits >= 64) return sum < ua ? ~0ULL : sum;
      return sum > type.max_unsigned() ? type.max_unsigned() : sum;
    }
    case BinKind::SSubSat: return ua < ub ? 0 : ua - ub;
    case BinKind::UMin: return ua < ub ? ua : ub;
    case BinKind::UMax: return ua > ub ? ua : ub;
    case BinKind::SMin: return type.truncate(static_cast<std::uint64_t>(sa < sb ? sa : sb));
    case BinKind::SMax: return type.truncate(static_cast<std::uint64_t>(sa > sb ? sa : sb));
  }
  return 0;
}

inline bool eval_icmp(ICmpPred pred, std::uint64_t a, std::uint64_t b, ScalarType type) {
  const std::int64_t sa = type.extend(a);
  const std::int64_t sb = type.extend(b);
  const std::uint64_t ua = type.truncate(a);
  const std::uint64_t ub = type.truncate(b);
  switch (pred) {
    case ICmpPred::EQ: return ua == ub;
    case ICmpPred::NE: return ua != ub;
    case ICmpPred::ULT: return ua < ub;
    case ICmpPred::ULE: return ua <= ub;
    case ICmpPred::UGT: return ua > ub;
    case ICmpPred::UGE: return ua >= ub;
    case ICmpPred::SLT: return sa < sb;
    case ICmpPred::SLE: return sa <= sb;
    case ICmpPred::SGT: return sa > sb;
    case ICmpPred::SGE: return sa >= sb;
  }
  return false;
}

/// Applies one atomic RMW operation. Returns the new memory value;
/// `operand0/operand1` follow the AtomicRMW operand convention (operand1 is
/// only used by CAS).
inline std::uint64_t eval_atomic(AtomicOpKind op, std::uint64_t memory, std::uint64_t operand0,
                          std::uint64_t operand1, ScalarType type) {
  switch (op) {
    case AtomicOpKind::Add: return eval_bin(BinKind::Add, memory, operand0, type);
    case AtomicOpKind::SAdd: return eval_bin(BinKind::SAddSat, memory, operand0, type);
    case AtomicOpKind::Sub: return eval_bin(BinKind::Sub, memory, operand0, type);
    case AtomicOpKind::SSub: return eval_bin(BinKind::SSubSat, memory, operand0, type);
    case AtomicOpKind::Or: return eval_bin(BinKind::Or, memory, operand0, type);
    case AtomicOpKind::And: return eval_bin(BinKind::And, memory, operand0, type);
    case AtomicOpKind::Xor: return eval_bin(BinKind::Xor, memory, operand0, type);
    case AtomicOpKind::Inc: return eval_bin(BinKind::Add, memory, 1, type);
    case AtomicOpKind::Dec: return eval_bin(BinKind::Sub, memory, 1, type);
    case AtomicOpKind::Min: return eval_bin(BinKind::UMin, memory, operand0, type);
    case AtomicOpKind::Max: return eval_bin(BinKind::UMax, memory, operand0, type);
    case AtomicOpKind::Cas:
      return type.truncate(memory) == type.truncate(operand0) ? type.truncate(operand1)
                                                              : type.truncate(memory);
  }
  return memory;
}

}  // namespace netcl::ir
