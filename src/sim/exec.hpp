// The compiled form of one kernel: what SwitchDevice::execute runs for
// every packet.
//
// The backend's linear program (p4::KernelProgram) is already straight-line
// and predicated, the form an RMT pipeline executes. ExecProgram lowers it
// once, at load, into a flat operation array over dense value slots:
//
//   * every operand is a slot index. Constants and the 0 that a value not
//     yet defined reads are slots filled at load;
//   * every slot is assigned at most once per packet, before it is read, so
//     slots need no per-packet zeroing: each definition of an IR value gets
//     its own slot, and an argument's value is read into a slot before its
//     first use and again after each store to that argument;
//   * register accesses are resolved to the array's cells plus a constant
//     offset (constant indices folded) and one term per variable index,
//     wrapped to its dimension as RegisterFile::flatten does. Lookups point
//     at their LookupTable, and a LookupValue reads the match its paired
//     Lookup made. bind() re-points both when the owner rebuilds that state;
//   * what depends only on guards — per-stage counts, register write
//     counts, which RetAction decides — is tallied once after the
//     operations, from the guard slots (which keep their values), into flat
//     arrays. Register reads are static counts;
//   * value lanes are fused. An unrolled loop over a value array (SwitchML's
//     `Agg[i][agg_idx]` and `v[i]`, NetCache's `Values[i][idx]`) lowers to a
//     body of k operations repeated once per lane. fuse_lanes() turns such a
//     run into k operations of L lanes each, op-major, the way a VLIW action
//     applies one instruction to many PHV containers. A fused lane reads and
//     writes only its own slots, argument elements and cells, so the order
//     change is invisible. A run whose lanes depend on each other (NetCache's
//     GET read loop, where each lane's guard is computed from the previous
//     lane's) stays unfused.
//
// A run makes no heap allocation and no hash-map lookup.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/ir.hpp"
#include "p4/pipeline.hpp"
#include "sim/packet.hpp"
#include "sim/registers.hpp"
#include "sim/table.hpp"
#include "support/hashes.hpp"

namespace netcl::sim {

/// What the kernel decided about a message.
struct ComputeOutcome {
  ActionKind action = ActionKind::Pass;
  std::uint16_t target = 0;  // host / device / multicast-group id
  bool executed = false;     // false: no kernel for the computation (no-op)
  /// Guard-true operations this packet executed across all pipeline stages
  /// (the per-packet slice of DeviceStats::stage_executions) — what an INT
  /// stamp reports as stage occupancy.
  std::uint32_t stage_ops = 0;
};

/// Read/write access totals for one register array.
struct RegisterAccess {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

class ExecProgram {
 public:
  /// Lowers `kernel`, whose globals belong to `module`. Register counters
  /// are indexed by a global's position in module.globals().
  ExecProgram(const p4::KernelProgram& kernel, const ir::Module& module);

  /// Points register and lookup operands at a tenant's state. Call it
  /// before the first run and whenever that state is rebuilt.
  void bind(RegisterFile& registers, TableSet& tables);

  /// Runs the kernel for one packet over `args` (by-ref writes land there),
  /// drawing Rand values from `rng` and adding register accesses to
  /// `access`. Leaves the per-stage guard-true counts in stage_hits().
  ComputeOutcome run(ArgValues& args, const NetclHeader& header, SplitMix64& rng,
                     RegisterAccess* access);

  /// Guard-true operations per stage in the last run (index = stage).
  [[nodiscard]] std::span<const std::uint32_t> stage_hits() const { return stage_hits_; }

  /// Operations a run dispatches; a fused lane group counts once.
  [[nodiscard]] std::size_t op_count() const { return insts_.size(); }
  /// Operations that run more than one lane.
  [[nodiscard]] std::size_t lane_groups() const;

 private:
  enum class Op : std::uint8_t {
    kBin,
    kICmp,
    kSelect,
    kCast,
    kHash,
    kRand,
    kMsgMeta,
    kClz,
    kBswap,
    kReadArg,  // dst = args[ref][0]
    kLoadMsg,
    kStoreMsg,
    kLoadLocal,
    kStoreLocal,
    kLoadGlobal,
    kStoreGlobal,
    kAtomic,
    kLookup,  // dst = hit, c = matched value
  };

  /// One lowered operation. Which fields mean something depends on `op`;
  /// `guard`, `dst`, `a`, `b` and `c` are slots.
  ///
  /// An operation runs `lanes` lanes (1 unless fuse_lanes fused it). Lane l
  /// writes slot dst + l and reads a + l * a_step (likewise b and c; a step
  /// is 0 for a value all lanes share, 1 for a per-lane block), argument
  /// element s[a] + l (LoadMsg, StoreMsg) and register access
  /// ref + l * ref_step. All lanes share the guard. The fields are ordered
  /// to keep an Inst at 40 bytes: run() streams through them per packet.
  struct Inst {
    Op op = Op::kBin;
    /// BinKind, ICmpPred, AtomicOpKind, HashKind or the header field index
    /// (MsgMeta), per op.
    std::uint8_t kind = 0;
    /// Cast: sign-extend; atomics: return the new value.
    bool flag = false;
    /// Result type (Bin, Cast, Hash, Rand, Bswap), compared type (ICmp),
    /// operand type (Clz) or stored type (StoreMsg, StoreLocal, registers).
    ScalarType type;
    ScalarType from;  // Cast: the operand's type
    std::uint8_t a_step = 0;  // lane steps (see above), b_step and c_step below
    std::uint32_t guard = 0;  // stores and atomics
    std::uint32_t dst = 0;
    std::uint32_t a = 0, b = 0, c = 0;
    /// Register access, table, local array, argument index or first hash
    /// input (hash_inputs_[ref, ref + count)), per op.
    std::uint32_t ref = 0;
    std::uint16_t count = 0;  // hash inputs
    std::uint16_t lanes = 1;
    std::uint8_t ref_step = 0;
    std::uint8_t b_step = 0, c_step = 0;
  };

  struct HashInput {
    std::uint32_t slot = 0;
    std::uint32_t width = 0;  // little-endian bytes fed to the hash
  };

  /// One register access: the cell is cells[offset + sum of the terms].
  struct Access {
    const ir::GlobalVar* global = nullptr;
    std::uint64_t* cells = nullptr;
    std::size_t offset = 0;   // constant indices, folded at load
    std::uint32_t terms = 0;  // index_terms_[terms, terms + count)
    std::uint32_t count = 0;
  };

  /// A variable index: the slot's value wrapped to its dimension, times the
  /// dimension's row-major stride.
  struct IndexTerm {
    std::uint32_t slot = 0;
    bool pow2 = false;  // wrap with `mask` instead of `% size`
    std::uint64_t size = 1;
    std::uint64_t mask = 0;
    std::size_t stride = 1;
  };

  struct Local {
    std::uint32_t offset = 0;  // into locals_
    std::uint32_t size = 0;
  };

  struct Table {
    const ir::GlobalVar* global = nullptr;
    const LookupTable* table = nullptr;
  };

  // Tallied after the operations (see the file comment). Register counts
  // cover `globals` consecutive RegisterAccess entries from `global` on, so
  // the per-lane arrays of a partitioned register are one entry.
  struct StageCount {
    std::uint32_t stage = 0, guard = 0, count = 0;
  };
  struct ReadCount {
    std::uint32_t global = 0, globals = 1, count = 0;
  };
  struct WriteCount {
    std::uint32_t global = 0, globals = 1, guard = 0, cond = 0, count = 0;
  };
  struct Action {
    std::uint32_t guard = 0, target = 0;
    ActionKind action = ActionKind::None;
    bool has_target = false;
  };

  /// Moves each ReadArg up to just after the last store to its argument
  /// (or the program's start), out of the loop bodies fuse_lanes looks at.
  void hoist_arg_reads();
  /// Fuses runs of lanes (see the file comment); `fixed` marks the slots
  /// whose value is set at load.
  void fuse_lanes(const std::vector<bool>& fixed);
  /// How many lanes of `body` operations each, from ops[first] on, may be
  /// fused (1: none). `ops` holds at least two bodies from `first` on.
  [[nodiscard]] std::size_t fusable_lanes(std::span<const Inst> ops, std::size_t first,
                                          std::size_t body, const std::vector<bool>& fixed) const;
  /// The slot operands a fusable op reads besides its guard, its argument
  /// element and its index terms (bit 1: a, 2: b, 4: c); -1 for an op that
  /// never fuses.
  [[nodiscard]] static int lane_operands(Op op);
  /// Whether `op` reads or writes a register cell.
  [[nodiscard]] static bool on_register(Op op);
  /// The body position whose lane-0 result is `slot`, or -1.
  [[nodiscard]] static int body_def(const Inst* lane0, std::size_t body, std::uint32_t slot);

  /// Runs one operation's lanes: `lanes` is inst.lanes, or the constant 1
  /// for an ordinary op. Inlined into run(); step_lanes() holds the copy
  /// for fused operations.
  template <typename Lanes>
  [[gnu::always_inline]] inline void step(const Inst& inst, Lanes lanes, ArgValues& args,
                                          const NetclHeader& header, SplitMix64& rng);
  [[gnu::noinline]] void step_lanes(const Inst& inst, ArgValues& args, const NetclHeader& header,
                                    SplitMix64& rng);

  /// The cell index of an access without its constant offset: the sum of
  /// its variable terms.
  [[nodiscard]] std::size_t term_sum(const Access& access) const;

  std::vector<Inst> insts_;
  std::vector<HashInput> hash_inputs_;
  std::vector<Access> accesses_;
  std::vector<IndexTerm> index_terms_;
  std::vector<Table> tables_;
  std::vector<Local> local_arrays_;
  std::vector<StageCount> stage_counts_;
  std::vector<ReadCount> read_counts_;
  std::vector<WriteCount> write_counts_;
  std::vector<Action> actions_;  // RetActions in program order

  // Per-packet scratch, sized at load.
  std::vector<std::uint64_t> slots_;
  std::vector<std::uint64_t> locals_;
  std::vector<std::uint8_t> hash_bytes_;
  std::vector<std::uint32_t> stage_hits_;
};

}  // namespace netcl::sim
