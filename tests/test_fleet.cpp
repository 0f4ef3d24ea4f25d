// Fleet mode: sharded architecture managers, batched gauge application, and
// the parallel constraint sweep. The load-bearing property is the
// determinism contract — parallel detection, ordered dispatch — proven here
// by running the same fleet with 1 and N sweep threads and demanding
// bit-identical repair sequences.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "acme/adl.hpp"
#include "acme/script.hpp"
#include "core/fleet.hpp"
#include "core/framework_builder.hpp"
#include "events/bus.hpp"
#include "monitor/topics.hpp"
#include "repair/scripts.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/shard_sim.hpp"
#include "util/annotations.hpp"

namespace arcadia {
namespace {

events::Notification gauge_report(const std::string& element,
                                  const std::string& property, double value) {
  events::Notification n(monitor::topics::kGaugeReport);
  n.set(monitor::topics::kAttrElement, events::Value(element));
  n.set(monitor::topics::kAttrProperty, events::Value(property));
  n.set(monitor::topics::kAttrValue, events::Value(value));
  return n;
}

/// A minimal shard: one-component model, local gauge bus, model-only
/// repair engine, passive architecture manager.
struct ShardRig {
  explicit ShardRig(sim::Simulator& sim, const std::string& component)
      : system("ShardSys") {
    auto& comp = system.add_component(component, "ClientT");
    comp.set_property("averageLatency", model::PropertyValue(0.5));
    static acme::Script script = acme::parse_script(repair::extended_script());
    engine = std::make_unique<repair::RepairEngine>(
        sim, system, script, nullptr, nullptr, nullptr,
        repair::RepairEngineConfig{});
    core::ArchManagerConfig cfg;
    cfg.passive = true;
    manager = std::make_unique<core::ArchitectureManager>(sim, system, bus,
                                                          *engine, cfg);
    manager->checker().add_constraint("lat:" + component, component,
                                      "averageLatency <= 2.0", "");
  }

  model::System system;
  events::LocalEventBus bus;
  std::unique_ptr<repair::RepairEngine> engine;
  std::unique_ptr<core::ArchitectureManager> manager;
};

TEST(FleetManagerTest, CoalescesReportsWithinWindow) {
  sim::Simulator sim;
  // Shards before the manager: the FleetManager unsubscribes from the
  // shard buses on destruction, so they must outlive it.
  ShardRig rig(sim, "User1");
  core::FleetManagerConfig cfg;
  cfg.coalesce_window = SimTime::millis(500);
  cfg.first_check = SimTime::seconds(1e6);  // sweeps driven manually
  core::FleetManager fleet(sim, cfg);
  fleet.add_shard("t1", *rig.manager, rig.bus);
  fleet.start();

  rig.bus.publish(gauge_report("User1", "averageLatency", 5.0));
  rig.bus.publish(gauge_report("User1", "averageLatency", 6.0));
  rig.bus.publish(gauge_report("User1", "averageLatency", 7.0));
  // Still coalescing: the model must not have been touched yet.
  EXPECT_DOUBLE_EQ(
      rig.system.component("User1").property("averageLatency").as_double(),
      0.5);

  sim.run_until(SimTime::seconds(1));  // the window timer fires
  EXPECT_DOUBLE_EQ(
      rig.system.component("User1").property("averageLatency").as_double(),
      7.0);  // newest value won
  const core::FleetShardStats& stats = fleet.shard_stats(0);
  EXPECT_EQ(stats.reports_enqueued, 3u);
  EXPECT_EQ(stats.reports_coalesced, 2u);
  EXPECT_EQ(stats.reports_applied, 1u);  // one model write for the burst
  EXPECT_EQ(stats.batches, 1u);
}

TEST(FleetManagerTest, ZeroWindowAppliesOnDelivery) {
  sim::Simulator sim;
  ShardRig rig(sim, "User1");
  core::FleetManagerConfig cfg;
  cfg.coalesce_window = SimTime::zero();
  cfg.first_check = SimTime::seconds(1e6);
  core::FleetManager fleet(sim, cfg);
  fleet.add_shard("t1", *rig.manager, rig.bus);
  fleet.start();

  rig.bus.publish(gauge_report("User1", "averageLatency", 3.5));
  EXPECT_DOUBLE_EQ(
      rig.system.component("User1").property("averageLatency").as_double(),
      3.5);
  EXPECT_EQ(fleet.shard_stats(0).batches, 0u);
  EXPECT_EQ(fleet.shard_stats(0).reports_applied, 1u);
}

TEST(FleetManagerTest, DeadBandKeepsQuietShardsClean) {
  // A gauge re-publishing a steady value must not dirty the shard: the
  // model cannot have moved, so the sweep is skippable. This is what lets
  // idle tenants in a duty-cycled fleet drop out of the sweep entirely.
  sim::Simulator sim;
  ShardRig rig(sim, "User1");
  core::FleetManagerConfig cfg;
  cfg.coalesce_window = SimTime::millis(100);
  cfg.first_check = SimTime::seconds(1e6);
  cfg.sweep_threads = 1;
  core::FleetManager fleet(sim, cfg);
  fleet.add_shard("t1", *rig.manager, rig.bus);
  fleet.start();

  rig.bus.publish(gauge_report("User1", "averageLatency", 1.25));
  fleet.run_sweep();  // applies 1.25 (a real change), sweeps
  EXPECT_EQ(fleet.shard_stats(0).reports_applied, 1u);
  EXPECT_EQ(fleet.shard_stats(0).sweeps, 1u);

  // The same value again — and once more with sub-noise-floor jitter.
  rig.bus.publish(gauge_report("User1", "averageLatency", 1.25));
  rig.bus.publish(gauge_report("User1", "averageLatency", 1.25 + 1e-9));
  fleet.run_sweep();
  EXPECT_EQ(fleet.shard_stats(0).reports_unchanged, 1u);  // after coalescing
  EXPECT_EQ(fleet.shard_stats(0).reports_applied, 1u);
  EXPECT_EQ(fleet.shard_stats(0).sweeps, 1u);  // skipped: provably clean
  EXPECT_EQ(fleet.shard_stats(0).sweeps_skipped, 1u);

  // A genuine change wakes the shard back up.
  rig.bus.publish(gauge_report("User1", "averageLatency", 3.0));
  fleet.run_sweep();
  EXPECT_EQ(fleet.shard_stats(0).sweeps, 2u);
  EXPECT_DOUBLE_EQ(
      rig.system.component("User1").property("averageLatency").as_double(),
      3.0);
}

TEST(FleetManagerTest, SkipsCleanShardsAndKeepsCachedVerdicts) {
  sim::Simulator sim;
  ShardRig hot(sim, "User1");
  ShardRig cold(sim, "User2");
  core::FleetManagerConfig cfg;
  cfg.coalesce_window = SimTime::millis(100);
  cfg.first_check = SimTime::seconds(1e6);
  cfg.sweep_threads = 1;
  core::FleetManager fleet(sim, cfg);
  fleet.add_shard("hot", *hot.manager, hot.bus);
  fleet.add_shard("cold", *cold.manager, cold.bus);
  fleet.start();

  // Shard "hot" goes into violation; "cold" stays quiet.
  hot.bus.publish(gauge_report("User1", "averageLatency", 9.0));
  fleet.run_sweep();  // flushes the pending batch first
  EXPECT_EQ(fleet.shard_stats(0).sweeps, 1u);
  EXPECT_EQ(fleet.shard_stats(1).sweeps, 1u);  // first sweep covers everyone
  EXPECT_EQ(fleet.shard_stats(0).violations, 1u);
  EXPECT_EQ(fleet.shard_stats(1).violations, 0u);

  // Nothing changed: both shards are clean and must be skipped — but the
  // hot shard's standing violation keeps being reported from cache, exactly
  // as the incremental checker would have reported it.
  fleet.run_sweep();
  EXPECT_EQ(fleet.shard_stats(0).sweeps, 1u);
  EXPECT_EQ(fleet.shard_stats(0).sweeps_skipped, 1u);
  EXPECT_EQ(fleet.shard_stats(1).sweeps_skipped, 1u);
  EXPECT_EQ(fleet.shard_stats(0).violations, 2u);

  // A report to the cold shard re-sweeps it — and only it.
  cold.bus.publish(gauge_report("User2", "averageLatency", 0.7));
  sim.run_until(sim.now() + SimTime::seconds(1));  // flush timer
  fleet.run_sweep();
  EXPECT_EQ(fleet.shard_stats(1).sweeps, 2u);
  EXPECT_EQ(fleet.shard_stats(0).sweeps, 1u);
  EXPECT_EQ(fleet.shard_stats(0).sweeps_skipped, 2u);
  EXPECT_EQ(fleet.stats().sweep_rounds, 3u);
}

// ---- full-stack determinism ----

struct FleetFingerprint {
  std::uint64_t events = 0;
  std::vector<std::vector<std::tuple<std::string, std::string, std::string,
                                     double>>>
      repairs;  // per tenant: (constraint, element, strategy, started_s)
  std::vector<std::string> models;
  std::uint64_t reports_applied = 0;
  std::uint64_t repairs_total = 0;
};

FleetFingerprint run_fleet(std::size_t sweep_threads, SimTime coalesce,
                           std::size_t sim_threads = 1) {
  sim::Simulator sim;
  core::FleetOptions opt;
  opt.scenario = "fleet-4x16";
  opt.tenants = 3;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults("fleet-4x16");
  // Small tenants keep the test fast; the bench runs the full-size clones.
  opt.config.grid.groups = 2;
  opt.config.grid.clients = 8;
  opt.config.grid.spares = 1;
  // Compress the Figure 7 schedule so the stress phases (and the repairs
  // they force) land inside a short horizon; keep the per-tenant stagger.
  opt.config.quiescent_end = SimTime::seconds(40);
  opt.config.stress_start = SimTime::seconds(80);
  opt.config.stress_end = SimTime::seconds(220);
  opt.config.normal_rate_hz = 2.0;
  opt.config.fleet.phase_shift = SimTime::seconds(30);
  opt.manager.sweep_threads = sweep_threads;
  opt.manager.coalesce_window = coalesce;
  opt.sim_threads = sim_threads;
  auto fleet = core::FrameworkBuilder::build_fleet(sim, opt);
  fleet->start();
  fleet->run_until(SimTime::seconds(320));

  FleetFingerprint fp;
  fp.events = sim.executed() + fleet->coordinator()->stats().shard_events;
  for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet->tenant(t);
    // Fingerprinting reads shard state; enter the tenant's lane.
    util::SerialLane in_lane(tenant.lane());
    std::vector<std::tuple<std::string, std::string, std::string, double>> rs;
    for (const repair::RepairRecord& r : tenant.framework->engine().records()) {
      rs.emplace_back(r.constraint_id, r.element, r.strategy,
                      r.started.as_seconds());
    }
    fp.repairs_total += rs.size();
    fp.repairs.push_back(std::move(rs));
    fp.models.push_back(acme::print_system(tenant.framework->system()));
    fp.reports_applied +=
        fleet->manager()->shard_stats(t).reports_applied;
    // Fleet mode really is fleet mode: the per-tenant manager never
    // subscribed, every report went through the batched sink.
    EXPECT_EQ(tenant.framework->manager().stats().reports_applied, 0u);
  }
  return fp;
}

TEST(FleetDeterminismTest, IdenticalRepairSequencesForThreadCounts1AndN) {
  FleetFingerprint one = run_fleet(1, SimTime::millis(500));
  FleetFingerprint many = run_fleet(4, SimTime::millis(500));
  EXPECT_EQ(one.events, many.events);
  ASSERT_EQ(one.repairs.size(), many.repairs.size());
  for (std::size_t t = 0; t < one.repairs.size(); ++t) {
    EXPECT_EQ(one.repairs[t], many.repairs[t]) << "tenant " << t;
    EXPECT_EQ(one.models[t], many.models[t]) << "tenant " << t;
  }
  // The run must have exercised the machinery, or the equality is vacuous.
  EXPECT_GT(one.repairs_total, 0u);
  EXPECT_GT(one.reports_applied, 0u);
}

TEST(FleetDeterminismTest, ShardedKernelBitIdenticalFor1AndNSimThreads) {
  // The sharded-kernel oracle: per-tenant sub-simulators advanced in
  // conservative time windows must replay bit-identically whether the
  // windows execute on one worker thread or four.
  FleetFingerprint one = run_fleet(2, SimTime::millis(500), 1);
  FleetFingerprint four = run_fleet(2, SimTime::millis(500), 4);
  EXPECT_EQ(one.events, four.events);
  ASSERT_EQ(one.repairs.size(), four.repairs.size());
  for (std::size_t t = 0; t < one.repairs.size(); ++t) {
    EXPECT_EQ(one.repairs[t], four.repairs[t]) << "tenant " << t;
    EXPECT_EQ(one.models[t], four.models[t]) << "tenant " << t;
  }
  // Vacuity guards: the sharded run really adapted.
  EXPECT_GT(one.repairs_total, 0u);
  EXPECT_GT(one.reports_applied, 0u);
}

TEST(FleetDeterminismTest, BatchingDoesNotChangeRepairDecisions) {
  // Pending batches are flushed before every sweep, so the model state the
  // checker reads at each sweep instant — and therefore every repair — is
  // identical whether reports coalesced or applied on delivery.
  FleetFingerprint batched = run_fleet(2, SimTime::millis(500));
  FleetFingerprint unbatched = run_fleet(2, SimTime::zero());
  ASSERT_EQ(batched.repairs.size(), unbatched.repairs.size());
  for (std::size_t t = 0; t < batched.repairs.size(); ++t) {
    EXPECT_EQ(batched.repairs[t], unbatched.repairs[t]) << "tenant " << t;
    EXPECT_EQ(batched.models[t], unbatched.models[t]) << "tenant " << t;
  }
  EXPECT_GT(batched.repairs_total, 0u);
}

// ---- retired configurations ----

void expect_rejected(const core::FleetOptions& opt, const std::string& field) {
  sim::Simulator sim;
  try {
    core::FrameworkBuilder::build_fleet(sim, opt);
    ADD_FAILURE() << "build_fleet accepted " << field;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(FleetOptionsTest, ZeroSimThreadsIsRejected) {
  // The sharded kernel is the only fleet kernel: there is no shared-
  // simulator mode left for 0 to select.
  core::FleetOptions opt;
  opt.tenants = 1;
  opt.sim_threads = 0;
  expect_rejected(opt, "sim_threads");
}

TEST(FleetOptionsTest, UncoordinatedFleetIsRejected) {
  core::FleetOptions opt;
  opt.tenants = 1;
  opt.coordinated = false;
  expect_rejected(opt, "coordinated");
}

}  // namespace
}  // namespace arcadia
