// The built-in scenario library behind the ScenarioRegistry:
//
//   paper-fig6        the paper's Figure 6 testbed + Figure 7 schedule
//   paper-fig6-bidir  same, with bidirectional competition (the Section 5.3
//                     "monitoring lag" variant)
//   grid-4x16         scaled grid: 4 server groups x 16 clients over a pod
//                     ring (parameterized via ScenarioConfig::grid)
//   flash-crowd       Figure 6 testbed under a sudden request-rate spike
//                     (ScenarioConfig::flash) instead of competition
//   server-churn      Figure 6 testbed with rotating server outages
//                     (ScenarioConfig::churn) the monitoring stack must
//                     detect and repair around
//   churn-mid-repair  server-churn with outages packed so each new fault
//                     lands while the previous repair's plan is still
//                     enacting (exercises plan preemption)
//   fleet-4x16        one tenant shard of a fleet: a grid-4x16 clone whose
//                     workload schedule is phase-shifted and re-seeded by
//                     ScenarioConfig::fleet::tenant_index; core::Fleet
//                     builds one per tenant, each on its own shard clock
#pragma once

#include "sim/scenario.hpp"

namespace arcadia::sim {

class ScenarioRegistry;

/// The parameterized grid-NxM factory (grid shape from `config.grid`);
/// exposed so user code can register other sizes under their own names.
Testbed build_grid_testbed(Simulator& sim, const ScenarioConfig& config);

/// Figure 6 testbed + flash-crowd workload (no competition traffic).
Testbed build_flash_crowd_testbed(Simulator& sim, const ScenarioConfig& config);

/// Figure 6 testbed + rotating SG1 outages on top of the normal workload.
Testbed build_server_churn_testbed(Simulator& sim, const ScenarioConfig& config);

/// One fleet tenant: the grid testbed of `config.grid`, with the Figure 7
/// schedule shifted by `config.fleet.tenant_index * config.fleet.phase_shift`
/// and the RNG seed decorrelated per tenant.
Testbed build_fleet_tenant_testbed(Simulator& sim, const ScenarioConfig& config);

/// Called once by ScenarioRegistry on first access.
void register_builtin_scenarios(ScenarioRegistry& registry);

}  // namespace arcadia::sim
