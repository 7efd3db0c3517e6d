// Device register state: the stateful memory backing _net_/_managed_
// (non-lookup) globals in the simulator.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ir/eval.hpp"
#include "ir/ir.hpp"

namespace netcl::sim {

class RegisterFile {
 public:
  /// Registers every non-lookup global of the module, zero-initialized
  /// (global memory is zero-initialized per §V-B).
  explicit RegisterFile(const ir::Module& module);

  /// Flattens a multi-dimensional index (row-major, one entry per dim).
  /// Out-of-range indices wrap modulo the array extent, mirroring how
  /// hardware masks register addresses.
  [[nodiscard]] std::size_t flatten(const ir::GlobalVar& global,
                                    const std::vector<std::uint64_t>& indices) const;

  [[nodiscard]] std::uint64_t read(const ir::GlobalVar& global, std::size_t index) const;
  void write(const ir::GlobalVar& global, std::size_t index, std::uint64_t value);

  /// Applies an atomic RMW; returns {old value, new value}.
  std::pair<std::uint64_t, std::uint64_t> atomic(const ir::GlobalVar& global, std::size_t index,
                                                 AtomicOpKind op, std::uint64_t operand0,
                                                 std::uint64_t operand1);

  /// The cells of one register array, row-major (empty if the global is
  /// not in this file). They stay in place until the file is destroyed.
  [[nodiscard]] std::span<std::uint64_t> cells(const ir::GlobalVar& global);

  void reset();

  [[nodiscard]] bool contains(const ir::GlobalVar& global) const {
    return storage_.count(&global) != 0;
  }

 private:
  std::unordered_map<const ir::GlobalVar*, std::vector<std::uint64_t>> storage_;
};

}  // namespace netcl::sim
