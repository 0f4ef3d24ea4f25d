// Fleet assembly: N tenant stacks — testbed, monitoring, model shard,
// repair engine — coordinated by one FleetManager and advanced by the
// sharded simulation kernel.
//
//   sim::Simulator sim;                    // the control clock
//   core::FleetOptions opt;
//   opt.tenants = 8;                       // 0 = scenario default
//   opt.sim_threads = 4;                   // worker threads, >= 1
//   auto fleet = core::FrameworkBuilder::build_fleet(sim, opt);
//   fleet->start();
//   fleet->run_until(SimTime::seconds(600));
//
// Each tenant runs on a private ShardSimulator and a SimCoordinator
// advances them concurrently in conservative time windows (DESIGN.md §9);
// `sim` carries only the control events (sweeps, snapshots), so drive the
// run with Fleet::run_until — Simulator::run_until on `sim` would advance
// no tenant traffic. Event order is bit-identical for any sim_threads.
//
// Every tenant is a full Framework (its own probes, gauges, buses, model,
// constraint checker, and repair engine) built from a registered scenario;
// the scenario's `fleet.tenant_index` is looped to clone phase-shifted
// tenants. The per-tenant architecture managers are passive: the
// FleetManager batches their reports and sweeps all of them in parallel.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/fleet_manager.hpp"
#include "core/framework.hpp"
#include "durability/staging.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/shard_sim.hpp"

namespace arcadia::core {

struct FleetOptions {
  /// Registered scenario cloned per tenant (its factory must honour
  /// ScenarioConfig::fleet::tenant_index, as "fleet-4x16" does).
  std::string scenario = "fleet-4x16";
  /// Tenant count; 0 uses the scenario default (config.fleet.tenants).
  int tenants = 0;
  /// Base scenario config; tenant index is overwritten per tenant. Unset
  /// (nullopt-like empty flag below) uses the scenario's defaults.
  sim::ScenarioConfig config;
  bool use_scenario_defaults = true;

  FrameworkConfig framework;
  /// Fleet coordination knobs. check_period/first_check are taken from
  /// `framework` (single source of truth for the check cadence); the
  /// values here apply only to a standalone FleetManager.
  FleetManagerConfig manager;
  /// Must stay true: tenants always run passive managers under the
  /// FleetManager. false (the retired per-tenant loops) throws
  /// arcadia::Error.
  bool coordinated = true;

  /// Shared durability plane: ONE journal/snapshot stream for the whole
  /// fleet, each tenant tagged with its shard index. Tenants stage records
  /// per shard (in windows and in the parallel sweep); barriers drain them
  /// in (time, shard, index) order, so the journal bytes are identical for
  /// any sim_threads setting. An empty dir disables it. (FrameworkConfig::durability is ignored per
  /// tenant here — a fleet must not scatter N private journals.)
  durability::Options durability;

  /// Worker threads of the sharded simulation kernel (DESIGN.md §9): each
  /// tenant gets a private ShardSimulator advanced in conservative time
  /// windows by a SimCoordinator with this many workers. The event order —
  /// and therefore every repair, journal byte, and fault draw — is
  /// bit-identical for sim_threads = 1 and sim_threads = N (windows are
  /// serial per shard; all coupling happens at barriers in shard order).
  /// 0 throws arcadia::Error.
  std::size_t sim_threads = 1;
};

/// One tenant's stack. Heap-allocated and pinned: the framework holds
/// references into the testbed, so neither may relocate. Declaration order
/// matters too — the framework must be destroyed first.
struct FleetTenant {
  std::string name;
  sim::Testbed testbed;
  std::unique_ptr<Framework> framework;
  /// The tenant's sub-simulator (owned by the coordinator; never null once
  /// the Fleet is built). testbed and framework run on its clock, inside
  /// its lane.
  sim::ShardSimulator* shard = nullptr;

  /// SerialLane token for this tenant.
  std::uintptr_t lane() const { return shard->lane(); }
};

class Fleet {
 public:
  /// Build all tenants (does not start anything).
  Fleet(sim::Simulator& sim, FleetOptions options);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Start every tenant's framework and drivers, then the fleet manager.
  void start();

  /// Advance the fleet to `horizon`: the coordinator's window loop, draining
  /// staged journal records at every barrier (and once more at the end).
  /// Returns the events executed (control and shard events together).
  std::uint64_t run_until(SimTime horizon);

  std::size_t tenant_count() const { return tenants_.size(); }
  FleetTenant& tenant(std::size_t i) { return *tenants_[i]; }
  const FleetTenant& tenant(std::size_t i) const { return *tenants_[i]; }
  /// Never null.
  FleetManager* manager() { return manager_.get(); }
  /// Null unless options.durability was set.
  durability::DurabilityPlane* durability_plane() { return plane_.get(); }
  /// Never null.
  sim::SimCoordinator* coordinator() { return coordinator_.get(); }
  const FleetOptions& options() const { return options_; }

  /// One ShardSnapshot per tenant (shard = tenant index), health stamped
  /// from the FleetManager's state machine. What the periodic snapshot task
  /// writes; public so crash tests can force a capture.
  std::vector<durability::ShardSnapshot> capture_snapshot() const;

 private:
  /// Replay every staged journal record into the shared plane, k-way merged
  /// by (time, shard, emission seq) — a total order independent of which
  /// worker ran which shard. Runs at every window barrier and at teardown.
  void drain_staging();

  sim::Simulator& sim_;
  FleetOptions options_;
  /// Declared before the tenants (and the staging sinks): they journal into
  /// it through raw sink pointers, so it must be destroyed after every
  /// framework and after the final drain.
  std::unique_ptr<durability::DurabilityPlane> plane_;
  /// Per-tenant journal staging (parallel windows may not write the
  /// single-writer plane); indexed by shard. Declared before the tenants so
  /// teardown-time journaling still has a sink.
  std::vector<std::unique_ptr<durability::StagingSink>> staging_;
  /// Owns the ShardSimulators the tenant testbeds run on — destroyed after
  /// the tenants that reference them.
  std::unique_ptr<sim::SimCoordinator> coordinator_;
  std::vector<std::unique_ptr<FleetTenant>> tenants_;
  std::unique_ptr<FleetManager> manager_;
  std::unique_ptr<sim::PeriodicTask> snapshot_task_;
  bool started_ = false;
};

}  // namespace arcadia::core
