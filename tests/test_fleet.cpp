// Fleet mode: sharded architecture managers, batched gauge application, and
// the parallel barrier sweep. The load-bearing property is the determinism
// contract — each shard flushes, detects and dispatches on its own, on the
// coordinator's workers — proven here by running the same fleet with 1 and
// N simulation threads and demanding bit-identical repair sequences and
// statistics.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "acme/adl.hpp"
#include "acme/script.hpp"
#include "core/fleet.hpp"
#include "core/framework_builder.hpp"
#include "events/bus.hpp"
#include "model/revision.hpp"
#include "model/types.hpp"
#include "monitor/topics.hpp"
#include "repair/registry.hpp"
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
/// repair engine, passive architecture manager. The latency constraint has
/// no handler unless one is given, so by default violations never repair.
struct ShardRig {
  ShardRig(sim::Simulator& sim, const std::string& component,
           const std::string& handler = "",
           const repair::RepairEngineConfig& engine_cfg = {})
      : system("ShardSys") {
    auto& comp = system.add_component(component, "ClientT");
    comp.set_property("averageLatency", model::PropertyValue(0.5));
    static acme::Script script = acme::parse_script(repair::extended_script());
    engine = std::make_unique<repair::RepairEngine>(
        sim, system, script, nullptr, nullptr, nullptr, engine_cfg);
    core::ArchManagerConfig cfg;
    cfg.passive = true;
    manager = std::make_unique<core::ArchitectureManager>(sim, system, bus,
                                                          *engine, cfg);
    manager->checker().add_constraint("lat:" + component, component,
                                      "averageLatency <= 2.0", handler);
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

TEST(FleetManagerTest, DispatchThrowRethrownFromLowestShard) {
  // The sweep dispatches every shard on the coordinator's workers. When more
  // than one shard throws, run_sweep must rethrow the lowest shard's
  // exception — whichever worker got there first — after every shard ran.
  repair::PolicyRegistry::instance().add_or_replace(
      "test-throw-constraint-id",
      [](const std::vector<const repair::Violation*>& candidates)
          -> std::size_t {
        throw std::runtime_error(candidates.front()->constraint->id);
      });
  repair::RepairEngineConfig engine_cfg;
  engine_cfg.policy_name = "test-throw-constraint-id";

  constexpr int kShards = 6;
  sim::Simulator control;
  sim::SimCoordinatorOptions copt;
  copt.threads = 4;
  sim::SimCoordinator coord(control, copt);
  std::vector<std::unique_ptr<ShardRig>> rigs;
  for (int s = 0; s < kShards; ++s) {
    sim::ShardSimulator& shard = coord.add_shard();
    util::SerialLane in_lane(shard.lane());
    rigs.push_back(std::make_unique<ShardRig>(
        shard.sim(), "User" + std::to_string(s), "fixLatency", engine_cfg));
  }
  core::FleetManagerConfig cfg;
  cfg.first_check = SimTime::seconds(1e6);
  cfg.coalesce_window = SimTime::zero();
  auto fleet = std::make_unique<core::FleetManager>(control, cfg);
  for (int s = 0; s < kShards; ++s) {
    fleet->add_shard("t" + std::to_string(s), *rigs[s]->manager,
                     rigs[s]->bus);
  }
  fleet->bind_coordinator(coord);
  fleet->start();
  // Shards 2, 3 and 5 breach; the others stay healthy.
  for (int s : {2, 3, 5}) {
    util::SerialLane in_lane(coord.shard(s).lane());
    rigs[s]->bus.publish(
        gauge_report("User" + std::to_string(s), "averageLatency", 9.0));
  }
  constexpr int kRounds = 20;
  for (int r = 0; r < kRounds; ++r) {
    try {
      fleet->run_sweep();
      ADD_FAILURE() << "round " << r << ": run_sweep did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "lat:User2") << "round " << r;
    }
  }
  // Every breaching shard reached dispatch in every round, not just the
  // one whose exception won.
  for (int s : {2, 3, 5}) {
    EXPECT_EQ(fleet->shard_stats(s).violations,
              static_cast<std::uint64_t>(kRounds))
        << "shard " << s;
  }
  EXPECT_EQ(fleet->shard_stats(0).violations, 0u);

  fleet.reset();
  for (int s = 0; s < kShards; ++s) {
    util::SerialLane in_lane(coord.shard(s).lane());
    rigs[s].reset();
  }
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

FleetFingerprint run_fleet(SimTime coalesce, std::size_t sim_threads = 1) {
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
  // Two workers over three tenants: the dynamic scheduler hands shards to
  // workers unevenly, and sweeps still land identically.
  FleetFingerprint one = run_fleet(SimTime::millis(500), 1);
  FleetFingerprint many = run_fleet(SimTime::millis(500), 2);
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
  FleetFingerprint one = run_fleet(SimTime::millis(500), 1);
  FleetFingerprint four = run_fleet(SimTime::millis(500), 4);
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

/// Every counter the sweep keeps, flattened: each tenant's FleetShardStats
/// and CheckStats, then the fleet-wide FleetStats counters.
std::vector<std::uint64_t> sweep_counters(std::size_t sim_threads) {
  sim::Simulator sim;
  core::FleetOptions opt;
  opt.scenario = "fleet-4x16";
  opt.tenants = 4;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults("fleet-4x16");
  opt.config.grid.groups = 2;
  opt.config.grid.clients = 8;
  opt.config.grid.spares = 1;
  opt.config.quiescent_end = SimTime::seconds(40);
  opt.config.stress_start = SimTime::seconds(80);
  opt.config.stress_end = SimTime::seconds(220);
  opt.config.normal_rate_hz = 2.0;
  opt.config.fleet.phase_shift = SimTime::seconds(30);
  opt.manager.coalesce_window = SimTime::millis(500);
  opt.sim_threads = sim_threads;
  auto fleet = core::FrameworkBuilder::build_fleet(sim, opt);
  {
    // A non-local invariant on tenant index 1: its reuse decision reads the
    // property clock, which other shards' flushes and repairs advance
    // concurrently during the sweep. It never fails, so it repairs nothing.
    core::FleetTenant& tenant = fleet->tenant(1);
    util::SerialLane in_lane(tenant.lane());
    tenant.framework->manager().checker().add_constraint(
        "no-group-melts", "User1",
        "forall c : ClientT in self.Components | c.averageLatency < 1000000",
        "");
  }
  fleet->start();
  fleet->run_until(SimTime::seconds(320));

  std::vector<std::uint64_t> out;
  core::FleetManager& fm = *fleet->manager();
  for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
    const core::FleetShardStats& s = fm.shard_stats(t);
    out.insert(out.end(),
               {s.reports_enqueued, s.reports_coalesced, s.reports_applied,
                s.reports_unchanged, s.reports_ignored, s.batches, s.sweeps,
                s.sweeps_skipped, s.violations, s.repairs_triggered,
                s.plans_started, s.plans_completed, s.plans_preempted,
                s.plans_failed, s.health_degraded, s.health_quarantined,
                s.health_recovered, s.sweeps_quarantined, s.sweeps_stalled});
    core::FleetTenant& tenant = fleet->tenant(t);
    util::SerialLane in_lane(tenant.lane());
    const repair::ConstraintChecker::CheckStats& cs =
        tenant.framework->manager().checker().check_stats();
    out.insert(out.end(), {cs.sweeps, cs.evaluations, cs.cache_hits,
                           cs.full_sweeps, cs.holds});
  }
  const core::FleetStats& fs = fm.stats();
  out.insert(out.end(), {fs.sweep_rounds, fs.shard_sweeps, fs.shard_skips,
                         fs.shards_quarantined});
  return out;
}

TEST(FleetDeterminismTest, SweepStatsIdenticalFor1And4SimThreads) {
  const std::vector<std::uint64_t> one = sweep_counters(1);
  const std::vector<std::uint64_t> four = sweep_counters(4);
  EXPECT_EQ(one, four);
  // Vacuity guards (layout: 24 counters per tenant, then the fleet's):
  // tenants were swept, constraints re-evaluated and answered from cache,
  // and repairs started.
  constexpr std::size_t kPerTenant = 24;
  ASSERT_EQ(one.size(), 4 * kPerTenant + 4);
  std::uint64_t sweeps = 0, repairs = 0, cache_hits = 0;
  for (std::size_t t = 0; t < 4; ++t) {
    sweeps += one[t * kPerTenant + 6];
    repairs += one[t * kPerTenant + 9];
    EXPECT_GT(one[t * kPerTenant + 20], 0u) << "tenant " << t << " evaluations";
    cache_hits += one[t * kPerTenant + 21];
  }
  EXPECT_GT(sweeps, 0u);
  EXPECT_GT(repairs, 0u);
  EXPECT_GT(cache_hits, 0u);
}

/// A coordinator-bound rig swept three times by hand. Shard 0 is hot:
/// before the second sweep it gets reports that its sweep flushes,
/// including a latency breach that its dispatch repairs by growing a
/// server group (a structural edit). Shards 1.. are quiet: no reports, and
/// a non-local invariant whose reuse reads the property clock. Returns each
/// quiet shard's {evaluations, cache_hits, full_sweeps} after every sweep.
std::vector<std::uint64_t> quiet_shard_checks(unsigned threads) {
  namespace cs = model::cs;
  constexpr int kShards = 6;
  sim::Simulator control;
  sim::SimCoordinatorOptions copt;
  copt.threads = threads;
  sim::SimCoordinator coord(control, copt);
  std::vector<std::unique_ptr<ShardRig>> rigs;
  for (int s = 0; s < kShards; ++s) {
    sim::ShardSimulator& shard = coord.add_shard();
    util::SerialLane in_lane(shard.lane());
    const std::string user = "User" + std::to_string(s);
    rigs.push_back(std::make_unique<ShardRig>(shard.sim(), user,
                                              s == 0 ? "fixLatency" : ""));
    model::System& sys = rigs.back()->system;
    if (s > 0) {
      rigs.back()->manager->checker().add_constraint(
          "all-sane", user,
          "forall c : ClientT in self.Components | c.averageLatency < 1e6",
          "");
      continue;
    }
    // The hot tenant: its client is served by a group that can grow.
    auto& grp = sys.add_component("ServerGrp1", cs::kServerGroupT);
    grp.set_property("load", model::PropertyValue(0.0));
    grp.set_property("replicationCount", model::PropertyValue(1));
    grp.add_port("provide", cs::kProvidePortT);
    grp.representation();
    sys.component(user).add_port("request", cs::kRequestPortT);
    auto& conn = sys.add_connector("Conn_" + user, cs::kConnT);
    conn.add_role("clientSide", cs::kClientRoleT);
    conn.add_role("serverSide", cs::kServerRoleT);
    sys.attach({user, "request", "Conn_" + user, "clientSide"});
    sys.attach({"ServerGrp1", "provide", "Conn_" + user, "serverSide"});
  }
  core::FleetManagerConfig cfg;
  cfg.first_check = SimTime::seconds(1e6);
  cfg.coalesce_window = cfg.check_period;  // sweep-aligned: sweeps flush
  cfg.skip_clean_shards = false;           // quiet shards detect every sweep
  auto fleet = std::make_unique<core::FleetManager>(control, cfg);
  for (int s = 0; s < kShards; ++s) {
    fleet->add_shard("t" + std::to_string(s), *rigs[s]->manager,
                     rigs[s]->bus);
  }
  fleet->bind_coordinator(coord);
  fleet->start();

  std::vector<std::uint64_t> out;
  auto record = [&] {
    for (int s = 1; s < kShards; ++s) {
      util::SerialLane in_lane(coord.shard(s).lane());
      const auto& st = rigs[s]->manager->checker().check_stats();
      out.insert(out.end(), {st.evaluations, st.cache_hits, st.full_sweeps});
    }
  };
  fleet->run_sweep();
  record();
  {
    util::SerialLane in_lane(coord.shard(0).lane());
    rigs[0]->bus.publish(gauge_report("ServerGrp1", "load", 9.0));
    rigs[0]->bus.publish(gauge_report("User0", "averageLatency", 9.0));
  }
  const std::uint64_t structure_before = model::structure_clock();
  fleet->run_sweep();
  record();
  // Vacuity guards: the hot shard really flushed and repaired mid-sweep.
  EXPECT_EQ(fleet->shard_stats(0).reports_applied, 2u);
  EXPECT_EQ(fleet->shard_stats(0).repairs_triggered, 1u);
  EXPECT_GT(model::structure_clock(), structure_before);
  fleet->run_sweep();
  record();

  fleet.reset();
  for (int s = 0; s < kShards; ++s) {
    util::SerialLane in_lane(coord.shard(s).lane());
    rigs[s].reset();
  }
  return out;
}

TEST(FleetDeterminismTest, QuietShardIgnoresOtherShardsSweepWrites) {
  // Pinned to the barrier's clocks, a quiet shard's second sweep answers
  // both constraints from cache, although the hot shard flushed and
  // repaired during that same sweep — whether it ran before the quiet
  // shard (one thread: always) or beside it (four). Those changes reach
  // the quiet shard at the next barrier: a full re-sweep in sweep three.
  const std::vector<std::uint64_t> one = quiet_shard_checks(1);
  const std::vector<std::uint64_t> four = quiet_shard_checks(4);
  EXPECT_EQ(one, four);
  const std::vector<std::uint64_t> per_shard = {2, 0, 1,   // sweep 1
                                                2, 2, 1,   // sweep 2
                                                4, 2, 2};  // sweep 3
  ASSERT_EQ(one.size(), 5 * per_shard.size());
  for (int s = 0; s < 5; ++s) {
    for (int sweep = 0; sweep < 3; ++sweep) {
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(one[sweep * 15 + s * 3 + k], per_shard[sweep * 3 + k])
            << "quiet shard " << s + 1 << ", sweep " << sweep + 1
            << ", counter " << k;
      }
    }
  }
}

TEST(FleetDeterminismTest, BatchingDoesNotChangeRepairDecisions) {
  // Pending batches are flushed before every sweep, so the model state the
  // checker reads at each sweep instant — and therefore every repair — is
  // identical whether reports coalesced or applied on delivery.
  FleetFingerprint batched = run_fleet(SimTime::millis(500));
  FleetFingerprint unbatched = run_fleet(SimTime::zero());
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
