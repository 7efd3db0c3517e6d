#include "sim/registers.hpp"

#include <cassert>

namespace netcl::sim {

RegisterFile::RegisterFile(const ir::Module& module) {
  for (const auto& global : module.globals()) {
    if (global->is_lookup) continue;
    storage_.emplace(global.get(),
                     std::vector<std::uint64_t>(
                         static_cast<std::size_t>(global->element_count()), 0));
  }
}

std::size_t RegisterFile::flatten(const ir::GlobalVar& global,
                                  const std::vector<std::uint64_t>& indices) const {
  std::size_t linear = 0;
  for (std::size_t d = 0; d < global.dims.size(); ++d) {
    const auto extent = static_cast<std::uint64_t>(global.dims[d]);
    const std::uint64_t index = d < indices.size() ? indices[d] % extent : 0;
    linear = linear * static_cast<std::size_t>(extent) + static_cast<std::size_t>(index);
  }
  return linear;
}

std::uint64_t RegisterFile::read(const ir::GlobalVar& global, std::size_t index) const {
  const auto it = storage_.find(&global);
  assert(it != storage_.end() && "register not in this device");
  return it->second[index % it->second.size()];
}

void RegisterFile::write(const ir::GlobalVar& global, std::size_t index, std::uint64_t value) {
  const auto it = storage_.find(&global);
  assert(it != storage_.end() && "register not in this device");
  it->second[index % it->second.size()] = global.elem_type.truncate(value);
}

std::pair<std::uint64_t, std::uint64_t> RegisterFile::atomic(const ir::GlobalVar& global,
                                                             std::size_t index, AtomicOpKind op,
                                                             std::uint64_t operand0,
                                                             std::uint64_t operand1) {
  const std::uint64_t old_value = read(global, index);
  const std::uint64_t new_value =
      ir::eval_atomic(op, old_value, operand0, operand1, global.elem_type);
  write(global, index, new_value);
  return {old_value, new_value};
}

std::span<std::uint64_t> RegisterFile::cells(const ir::GlobalVar& global) {
  const auto it = storage_.find(&global);
  if (it == storage_.end()) return {};
  return it->second;
}

void RegisterFile::reset() {
  for (auto& [global, values] : storage_) {
    std::fill(values.begin(), values.end(), 0);
  }
}

}  // namespace netcl::sim
