// The simulated PDP switch: executes compiled NetCL pipeline programs
// against live register/table state and exposes the control-plane surface
// the host runtime's managed-memory API uses.
//
// This plays the role bmv2 plays in the paper's evaluation: a behavioral
// model that runs the *compiled artifact* (the predicated linear program the
// TNA backend produced), not the source semantics.
//
// Since ISSUE 7 the device is multi-program (the ClickINC "INC as a
// service" model): independently compiled programs load side by side as
// *tenants*, each with its own register file, lookup tables, RNG stream,
// and DeviceStats, dispatched by computation id. A p4::AdmissionController
// gates every load so the co-resident aggregate always fits StageLimits.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "p4/admission.hpp"
#include "p4/latency.hpp"
#include "p4/pipeline.hpp"
// Header-only and dependency-free by design, so the sim layer can return
// typed errors without linking netcl_runtime (which sits above netcl_sim).
#include "runtime/error.hpp"
// Header-only as well: the Table II action that process() applies.
#include "runtime/device_runtime.hpp"
#include "sim/exec.hpp"
#include "sim/packet.hpp"
#include "sim/registers.hpp"
#include "sim/table.hpp"
#include "support/hashes.hpp"

namespace netcl::sim {

/// Identifies one resident program on a device. driver::make_device loads
/// its single program as tenant 0.
using TenantId = std::uint32_t;

/// What one device step (SwitchDevice::process) did with a packet.
struct StepOutcome {
  runtime::ForwardDecision forward;
  /// Guard-true operations the kernel executed (ComputeOutcome::stage_ops).
  std::uint32_t stage_ops = 0;
  bool executed = false;  // false: no kernel for the computation (passed through)
};

/// Per-switch observability counters (ISSUE 1). The device fills the
/// execution-side counters, and process() the action outcomes
/// (drops/multicasts) as it applies the kernel's decision; the fabric and
/// the daemon fill the forwarding-side ones (transits, recirculations).
/// The host runtime reads them over the control plane via
/// runtime::DeviceConnection::stats_e(). Each tenant additionally keeps its
/// own copy (execution-side counters plus the action outcomes its kernels
/// chose), so co-resident programs are individually observable.
struct DeviceStats {
  std::uint64_t packets_processed = 0;  // packets entering execute()
  std::uint64_t kernels_executed = 0;   // ... that found a kernel
  std::uint64_t no_kernel = 0;          // ... with no kernel here (no-op, §IV)
  std::uint64_t drops_action = 0;       // kernel chose drop()
  std::uint64_t multicasts = 0;         // kernel chose multicast(gid)
  std::uint64_t transits = 0;           // NetCL packets passing through un-asked
  std::uint64_t recirculations = 0;     // packets re-entering this device
  std::uint64_t control_reads = 0;      // managed_read / debug_read
  std::uint64_t control_writes = 0;     // managed_write / lookup updates
  /// Guard-true operations executed per pipeline stage (index = stage as
  /// assigned by the TNA allocator; sized on first use).
  std::vector<std::uint64_t> stage_executions;
};

/// One compiled program, ready to load: everything driver::compile produces
/// that the device needs, including the allocator's per-stage accounting
/// the admission controller charges. An empty `per_stage` loads without
/// admission accounting (driver::make_device, tests).
struct ProgramArtifact {
  std::string name;  // operator-facing label ("CALC", "cache.ncl")
  std::unique_ptr<ir::Module> module;
  std::vector<p4::KernelProgram> kernels;
  int stages_used = 0;
  std::vector<p4::StageUsage> per_stage;
};

/// Compiles NetCL source into a loadable artifact. The real implementation
/// lives in netcl_driver (which owns the whole pipeline) and is injected
/// into the daemon / DeviceConnection as a callback, because the net and
/// sim layers must not link the driver.
using ProgramCompiler = std::function<runtime::Error(
    const std::string& source, const std::map<std::string, std::uint64_t>& defines,
    std::uint16_t device_id, ProgramArtifact& out)>;

/// A resident tenant as reported to operators (kListKernels, ncl-top).
struct TenantInfo {
  TenantId id = 0;
  std::string name;
  int stages_used = 0;
  std::vector<int> computations;
  /// Worst-stage resource row ("sram=3 tcam=0 salu=2 ...") or
  /// "unaccounted" for admission-exempt loads.
  std::string usage;
  DeviceStats stats;
};

class SwitchDevice {
 public:
  /// A device with no NetCL program: a plain forwarding switch until
  /// load_program() makes a tenant resident.
  explicit SwitchDevice(std::uint16_t device_id);

  [[nodiscard]] std::uint16_t device_id() const { return device_id_; }
  /// Max stages over all resident programs (drives the latency model).
  [[nodiscard]] int stages_used() const { return stages_used_; }
  [[nodiscard]] double pipeline_latency_ns() const;

  // --- tenant management (ISSUE 7) -----------------------------------------
  /// Loads a compiled program as `tenant`. Fails with kRejected when the
  /// tenant id is taken, a computation id collides with a resident tenant,
  /// --max-tenants is reached, or the admission controller finds the
  /// aggregate over budget (the error message carries the full per-stage
  /// resource report).
  [[nodiscard]] runtime::Error load_program(TenantId tenant, ProgramArtifact artifact);

  /// Unloads a resident tenant, releasing its admission reservation and
  /// destroying its state. Other tenants are untouched.
  [[nodiscard]] runtime::Error unload_program(TenantId tenant);

  /// Replaces a resident tenant's program in place — the sim half of a
  /// hitless swap. Admission re-evaluates with the old reservation
  /// released; on rejection the old program stays resident and running.
  /// The tenant's stats survive (they belong to the observer); its device
  /// state restarts fresh, to be replayed from the host journal.
  [[nodiscard]] runtime::Error swap_program(TenantId tenant, ProgramArtifact artifact);

  [[nodiscard]] bool has_tenant(TenantId tenant) const { return tenants_.count(tenant) != 0; }
  [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }
  [[nodiscard]] std::vector<TenantInfo> tenant_table() const;
  /// Execution-side counters of one tenant (nullptr if not resident).
  [[nodiscard]] const DeviceStats* tenant_stats(TenantId tenant) const;
  [[nodiscard]] const p4::AdmissionController& admission() const { return admission_; }

  /// Caps resident tenants (0 = unlimited, the default).
  void set_max_tenants(std::size_t max_tenants) { max_tenants_ = max_tenants; }
  [[nodiscard]] std::size_t max_tenants() const { return max_tenants_; }

  /// Replaces the admission budget; only honored while no tenant is
  /// resident (returns false otherwise) so reservations never desync.
  bool set_stage_limits(p4::StageLimits limits, int base_stages = 1);

  /// The kernel specification for a computation id (nullptr if this device
  /// hosts no kernel for it).
  [[nodiscard]] const KernelSpec* spec_for(int computation) const;
  /// Which tenant serves a computation id (nullptr if none).
  [[nodiscard]] const TenantId* tenant_for(int computation) const;

  /// Executes the kernel for `computation` over decoded argument values
  /// (mutated in place: by-ref writes land here) under the given header.
  /// Runs the kernel's ExecProgram, lowered when the program was loaded.
  ComputeOutcome execute(int computation, ArgValues& args, const NetclHeader& header);

  /// The device step for a NetCL packet addressed to this device
  /// (netcl.to == device_id()), shared by sim::Fabric, netcl-swd and the
  /// host fallback: decode the arguments, execute, re-encode them into
  /// packet.payload in place and set netcl.len, then apply the Table II
  /// action to the header (§VI-C) and count drops and multicasts. Makes no
  /// heap allocation once the payload's capacity holds the encoded
  /// arguments. A computation with no resident kernel
  /// passes through (§IV), counted as no_kernel. Callers keep what differs
  /// between them: the INT clock, SLOs, multicast fan-out.
  StepOutcome process(Packet& packet);

  // --- control plane (host runtime's managed-memory path) -----------------
  /// Resolves `name[indices...]`, transparently following access-based
  /// partitioning renames (cms[0][i] finds cms$0[i]). The name is looked up
  /// across all tenants; a unique match wins, an ambiguous one (two tenants
  /// declaring the same global) fails. Prefix "12:" scopes to tenant 12.
  /// An index past its dimension fails too (the data path wraps; the
  /// control plane names one cell).
  bool managed_write(const std::string& name, const std::vector<std::uint64_t>& indices,
                     std::uint64_t value);
  bool managed_read(const std::string& name, const std::vector<std::uint64_t>& indices,
                    std::uint64_t& out);
  bool lookup_insert(const std::string& name, std::uint64_t key_lo, std::uint64_t key_hi,
                     std::uint64_t value);
  bool lookup_remove(const std::string& name, std::uint64_t key);

  /// Unrestricted state access for tests and debugging (not part of the
  /// NetCL API surface).
  bool debug_read(const std::string& name, const std::vector<std::uint64_t>& indices,
                  std::uint64_t& out) const;
  void reset_state();

  // --- health / generation (ISSUE 3) ----------------------------------------
  /// Boot counter carried in PONG responses. A restart bumps it, so hosts
  /// can tell "the device I configured" from "a device that lost my state".
  [[nodiscard]] std::uint32_t generation() const { return generation_; }
  void set_generation(std::uint32_t generation) { generation_ = generation; }
  /// Simulates a power-cycle: registers zeroed, lookup tables re-seeded
  /// from their declarations (control-plane inserts are lost, like a real
  /// daemon restart), generation bumped. Stats survive — they belong to
  /// the observer, not the device state.
  void restart();

  // --- statistics -----------------------------------------------------------
  /// Device-wide aggregate (sum over tenants plus the action and
  /// forwarding-side counters).
  DeviceStats stats;
  /// Per-register-array access counters, keyed by the (possibly
  /// partition-renamed) global name, merged across tenants.
  [[nodiscard]] std::map<std::string, RegisterAccess> register_access() const;
  void reset_stats();

 private:
  /// One resident program with fully isolated state.
  struct Tenant {
    std::string name;
    std::unique_ptr<ir::Module> module;
    std::vector<p4::KernelProgram> kernels;
    int stages_used = 0;
    std::vector<p4::StageUsage> per_stage;
    /// kernels[i] lowered, bound to `registers` and `tables`.
    std::vector<ExecProgram> programs;
    /// kernels[i]'s argument values, shaped once at install: process()
    /// decodes each packet into them, so the step allocates nothing.
    std::vector<ArgValues> args;
    std::unique_ptr<RegisterFile> registers;
    std::unique_ptr<TableSet> tables;
    DeviceStats stats;
    /// Seeded exactly like a single-program device, so a tenant's random
    /// stream — and therefore its outputs — are byte-identical whether it
    /// runs alone or co-resident.
    SplitMix64 rng{0x5EEDBA5E};
    /// Indexed by the global's position in module->globals().
    std::vector<RegisterAccess> register_access;
  };

  /// Where a computation id dispatches to.
  struct Route {
    TenantId id = 0;
    Tenant* tenant = nullptr;
    const p4::KernelProgram* kernel = nullptr;
    ExecProgram* program = nullptr;
    ArgValues* args = nullptr;
  };

  struct Resolved {
    Tenant* tenant = nullptr;
    ir::GlobalVar* global = nullptr;
    std::vector<std::uint64_t> indices;
  };
  /// Follows `name` or `name$<i0>` partition renames and duplication
  /// across tenants (see managed_write for the scoping rules).
  [[nodiscard]] Resolved resolve(const std::string& name,
                                 const std::vector<std::uint64_t>& indices) const;
  [[nodiscard]] Resolved resolve_in(Tenant& tenant, const std::string& name,
                                    const std::vector<std::uint64_t>& indices) const;
  /// Installs a compiled program into `tenant` with fresh state and
  /// lowers its kernels.
  void install(Tenant& tenant, ProgramArtifact artifact);
  void attach(TenantId id, Tenant& tenant);
  void detach(TenantId id, Tenant& tenant);
  void refresh_stages();
  /// execute() once the route is known.
  ComputeOutcome run(const Route& route, ArgValues& args, const NetclHeader& header);

  std::uint16_t device_id_;
  // std::map: node-based, so Tenant* in by_computation_ stays valid across
  // unrelated load/unload.
  std::map<TenantId, Tenant> tenants_;
  std::unordered_map<int, Route> by_computation_;
  p4::AdmissionController admission_;
  std::size_t max_tenants_ = 0;  // 0 = unlimited
  int stages_used_ = 0;
  std::uint32_t generation_ = 1;
  p4::LatencyModel latency_;
};

/// Compiles `source` with `compiler` and installs it on `device` as
/// `tenant`: a fresh load, or with `replace` a hitless swap of the resident
/// program. A non-empty `name` overrides the artifact's label; `stages`
/// receives the program's stage count. The one kernel-install path behind
/// the daemon's kLoadKernel and an in-fabric DeviceConnection.
[[nodiscard]] runtime::Error install_kernel(SwitchDevice& device, const ProgramCompiler& compiler,
                                            TenantId tenant, const std::string& name,
                                            const std::string& source,
                                            const std::map<std::string, std::uint64_t>& defines,
                                            bool replace, std::uint16_t& stages);

}  // namespace netcl::sim
