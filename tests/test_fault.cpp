// The deterministic fault plane and the failure-aware adaptation loop on
// top of it: seeded draw streams (same fault seed => bit-identical runs),
// bus-path report faults, gauge-channel disconnects + the liveness
// watchdog, typed operator failures absorbed by retry/backoff, the
// constraint checker's verdict holds on suspect evidence, the fleet
// health state machine, and suite containment of crashing fault cells.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "acme/adl.hpp"
#include "acme/script.hpp"
#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/fleet_manager.hpp"
#include "core/framework_builder.hpp"
#include "core/suite.hpp"
#include "events/bus.hpp"
#include "fault/fault_plane.hpp"
#include "fault/faulty_bus.hpp"
#include "model/types.hpp"
#include "monitor/gauge.hpp"
#include "monitor/gauge_manager.hpp"
#include "monitor/topics.hpp"
#include "repair/constraint.hpp"
#include "repair/engine.hpp"
#include "repair/retry.hpp"
#include "repair/scripts.hpp"
#include "repair/style_ops.hpp"
#include "sim/scenario_registry.hpp"
#include "util/annotations.hpp"

namespace arcadia {
namespace {

namespace topics = monitor::topics;

// ---- retry policy --------------------------------------------------------

TEST(RetryPolicyTest, BackoffIsDeterministicPerSeed) {
  repair::RetryPolicy policy;
  Rng a(1234), b(1234), c(999);
  std::vector<SimTime> seq_a, seq_b, seq_c;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    seq_a.push_back(policy.backoff(attempt, a));
    seq_b.push_back(policy.backoff(attempt, b));
    seq_c.push_back(policy.backoff(attempt, c));
  }
  EXPECT_EQ(seq_a, seq_b);  // same seed, same schedule, bit for bit
  EXPECT_NE(seq_a, seq_c);  // different jitter stream diverges
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithinJitterBounds) {
  repair::RetryPolicy policy;  // base 2 s, x2, max 60 s, jitter 0.25
  Rng rng(42);
  double nominal = 2.0;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double expect_nominal = std::min(nominal, 60.0);
    const double d = policy.backoff(attempt, rng).as_seconds();
    EXPECT_GE(d, expect_nominal * 0.75) << "attempt " << attempt;
    EXPECT_LE(d, expect_nominal * 1.25) << "attempt " << attempt;
    nominal *= 2.0;
  }
}

TEST(RetryPolicyTest, BackoffConsumesExactlyOneDrawPerCall) {
  // Pinned so sweeping one retry knob can never shift another run's jitter
  // sequence: the schedule is a pure function of (policy, seed, attempt#).
  repair::RetryPolicy policy;
  Rng a(7), b(7);
  (void)policy.backoff(1, a);
  (void)b.uniform();  // advance b by the one draw backoff must have used
  EXPECT_EQ(a.next(), b.next());
}

// ---- fault plane ---------------------------------------------------------

fault::FaultProfile lossy_profile(std::uint64_t seed = 0xFA117C0DEULL) {
  fault::FaultProfile p;
  p.enabled = true;
  p.seed = seed;
  p.monitoring.report_loss = 0.2;
  p.monitoring.report_dup = 0.1;
  p.monitoring.report_delay = 0.1;
  p.repair.op_transient = 0.3;
  return p;
}

TEST(FaultPlaneTest, SameSeedSameDrawSequence) {
  sim::Simulator sim;
  fault::FaultPlane a(sim, lossy_profile(1)), b(sim, lossy_profile(1));
  for (int i = 0; i < 200; ++i) {
    const fault::BusFault fa = a.next_report_fault();
    const fault::BusFault fb = b.next_report_fault();
    EXPECT_EQ(fa.action, fb.action);
    EXPECT_EQ(fa.delay, fb.delay);
    EXPECT_EQ(a.next_op_fault(), b.next_op_fault());
  }
  EXPECT_EQ(a.stats().reports_dropped, b.stats().reports_dropped);
  EXPECT_EQ(a.stats().ops_transient, b.stats().ops_transient);
  EXPECT_GT(a.stats().reports_dropped, 0u);  // the rates actually fired
  EXPECT_GT(a.stats().ops_transient, 0u);
}

TEST(FaultPlaneTest, DifferentSeedsDiverge) {
  sim::Simulator sim;
  fault::FaultPlane a(sim, lossy_profile(1)), b(sim, lossy_profile(2));
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = a.next_report_fault().action != b.next_report_fault().action;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultPlaneTest, DisabledProfileNeverDraws) {
  sim::Simulator sim;
  fault::FaultPlane plane(sim, fault::FaultProfile{});
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(plane.next_report_fault().action, fault::BusFaultAction::Deliver);
    EXPECT_EQ(plane.next_op_fault(), fault::OpFault::None);
    EXPECT_FALSE(plane.channel_down(util::Symbol::intern("g")));
  }
  SimTime at, dur;
  EXPECT_FALSE(plane.draw_tenant_crash(at, dur));
}

TEST(FaultPlaneTest, ForcedChannelWindowExpires) {
  sim::Simulator sim;
  fault::FaultProfile p;
  p.enabled = true;  // no disconnect hazard: only the forced window
  fault::FaultPlane plane(sim, p);
  const util::Symbol g = util::Symbol::intern("gauge:lat:U1");
  plane.force_channel_down(g, SimTime::seconds(30));
  EXPECT_TRUE(plane.channel_down(g));
  sim.schedule_at(SimTime::seconds(31), [&] {
    EXPECT_FALSE(plane.channel_down(g));
  });
  sim.run_until(SimTime::seconds(31));
  EXPECT_EQ(plane.stats().reports_suppressed, 1u);
}

TEST(FaultPlaneTest, PermanentWindowGatesEscalation) {
  sim::Simulator sim;
  fault::FaultProfile p;
  p.enabled = true;
  p.repair.op_permanent = 1.0;  // every draw permanent — inside the window
  p.repair.permanent_from = SimTime::seconds(100);
  p.repair.permanent_until = SimTime::seconds(200);
  fault::FaultPlane plane(sim, p);
  EXPECT_EQ(plane.next_op_fault(), fault::OpFault::None);  // t=0: outside
  sim.schedule_at(SimTime::seconds(150), [&] {
    EXPECT_EQ(plane.next_op_fault(), fault::OpFault::Permanent);
  });
  sim.schedule_at(SimTime::seconds(250), [&] {
    EXPECT_EQ(plane.next_op_fault(), fault::OpFault::None);
  });
  sim.run_until(SimTime::seconds(300));
  EXPECT_EQ(plane.stats().ops_permanent, 1u);
}

// ---- faulty bus ----------------------------------------------------------

events::Notification report_for(const std::string& element, double value) {
  events::Notification n(topics::kGaugeReportSym);
  n.set(topics::kAttrElementSym, events::Value(element))
      .set(topics::kAttrValueSym, events::Value(value));
  return n;
}

TEST(FaultyBusTest, DropsReportsButNeverControlTraffic) {
  sim::Simulator sim;
  events::LocalEventBus inner;
  fault::FaultProfile p;
  p.enabled = true;
  p.monitoring.report_loss = 1.0;  // certain drop
  fault::FaultPlane plane(sim, p);
  fault::FaultyBus bus(sim, inner, plane);

  int reports = 0, lifecycle = 0;
  bus.subscribe(events::Filter().topic(topics::kGaugeReport),
                [&](const events::Notification&) { ++reports; });
  bus.subscribe(events::Filter().topic(topics::kGaugeLifecycle),
                [&](const events::Notification&) { ++lifecycle; });

  bus.publish(report_for("U1", 1.0));
  events::Notification ctl(topics::kGaugeLifecycleSym);
  bus.publish(std::move(ctl));
  EXPECT_EQ(reports, 0);    // eaten by the plane
  EXPECT_EQ(lifecycle, 1);  // control channel is not the lossy substrate
  EXPECT_EQ(plane.stats().reports_dropped, 1u);
}

TEST(FaultyBusTest, DuplicateDeliversTwice) {
  sim::Simulator sim;
  events::LocalEventBus inner;
  fault::FaultProfile p;
  p.enabled = true;
  p.monitoring.report_dup = 1.0;
  fault::FaultPlane plane(sim, p);
  fault::FaultyBus bus(sim, inner, plane);
  int reports = 0;
  bus.subscribe(events::Filter().topic(topics::kGaugeReport),
                [&](const events::Notification&) { ++reports; });
  bus.publish(report_for("U1", 1.0));
  EXPECT_EQ(reports, 2);
  EXPECT_EQ(plane.stats().reports_duplicated, 1u);
}

TEST(FaultyBusTest, DelayDefersDelivery) {
  sim::Simulator sim;
  events::LocalEventBus inner;
  fault::FaultProfile p;
  p.enabled = true;
  p.monitoring.report_delay = 1.0;
  p.monitoring.delay_min = SimTime::seconds(3);
  p.monitoring.delay_max = SimTime::seconds(3);
  fault::FaultPlane plane(sim, p);
  fault::FaultyBus bus(sim, inner, plane);
  int reports = 0;
  bus.subscribe(events::Filter().topic(topics::kGaugeReport),
                [&](const events::Notification&) { ++reports; });
  bus.publish(report_for("U1", 1.0));
  EXPECT_EQ(reports, 0);  // in flight, not lost
  sim.run_until(SimTime::seconds(4));
  EXPECT_EQ(reports, 1);
  EXPECT_EQ(plane.stats().reports_delayed, 1u);
}

// ---- gauge-liveness watchdog ---------------------------------------------

TEST(GaugeWatchdogTest, MarksStaleChannelSuspectThenClears) {
  sim::Simulator sim;
  events::LocalEventBus probe_bus, gauge_bus;
  monitor::GaugeManagerConfig cfg;
  cfg.report_period = SimTime::seconds(5);
  cfg.watchdog_period = SimTime::seconds(5);
  cfg.stale_after = SimTime::seconds(15);
  monitor::GaugeManager mgr(sim, probe_bus, gauge_bus, cfg);

  fault::FaultProfile p;
  p.enabled = true;
  fault::FaultPlane plane(sim, p);
  mgr.set_fault_plane(&plane);

  std::vector<std::string> phases;  // lifecycle tape, in order
  gauge_bus.subscribe(events::Filter().topic(topics::kGaugeLifecycle),
                      [&](const events::Notification& n) {
                        phases.push_back(
                            n.get(topics::kAttrPhaseSym).as_string());
                      });

  const std::string id = mgr.deploy(
      monitor::make_bandwidth_gauge(sim, "U1", "Conn_U1.clientSide",
                                    sim::kNoNode));
  sim.run_until(SimTime::seconds(13));  // past the create cost: live
  events::Notification obs(topics::kProbeBandwidthSym);
  obs.set(topics::kAttrClientSym, events::Value(std::string("U1")))
      .set(topics::kAttrValueSym, events::Value(1e6));
  probe_bus.publish(std::move(obs));

  sim.run_until(SimTime::seconds(20));  // reporting normally
  EXPECT_FALSE(mgr.is_suspect(id));
  EXPECT_GT(mgr.stats().reports, 0u);

  // The channel goes dark for 40 s: reports are suppressed at the source,
  // the silence crosses stale_after, and the watchdog flags the gauge.
  plane.force_channel_down(util::Symbol::intern(id), SimTime::seconds(60));
  sim.run_until(SimTime::seconds(45));
  EXPECT_TRUE(mgr.is_suspect(id));
  EXPECT_EQ(mgr.suspect_count(), 1u);
  EXPECT_EQ(mgr.stats().suspects_marked, 1u);
  EXPECT_GT(mgr.stats().reports_suppressed, 0u);

  // The window expires; the first report that gets through clears it.
  sim.run_until(SimTime::seconds(70));
  EXPECT_FALSE(mgr.is_suspect(id));
  EXPECT_EQ(mgr.stats().suspects_cleared, 1u);
  // created -> suspect -> cleared, in that order on the bus.
  ASSERT_GE(phases.size(), 3u);
  EXPECT_EQ(phases[0], "created");
  EXPECT_EQ(phases[1], "suspect");
  EXPECT_EQ(phases[2], "cleared");
}

// ---- checker verdict holds -----------------------------------------------

TEST(CheckerHoldTest, SuspectElementHoldsVerdictsUntilCleared) {
  model::System sys("S");
  auto& comp = sys.add_component("User1", "ClientT");
  comp.set_property("averageLatency", model::PropertyValue(9.0));
  repair::ConstraintChecker checker(sys);
  checker.add_constraint("lat:User1", "User1", "averageLatency <= 2.0", "");

  ASSERT_EQ(checker.check().size(), 1u);  // trusted evidence: violation

  const util::Symbol u1 = util::Symbol::intern("User1");
  checker.set_element_suspect(u1, true);
  EXPECT_TRUE(checker.element_suspect(u1));
  // Suspect-only evidence: the verdict is held, not asserted — a watchdog
  // flag must never trigger a repair off data nobody trusts.
  EXPECT_TRUE(checker.check().empty());
  EXPECT_GT(checker.check_stats().holds, 0u);

  checker.set_element_suspect(u1, false);
  ASSERT_EQ(checker.check().size(), 1u);  // evidence trusted again
}

// ---- retry through the engine --------------------------------------------

model::System make_grid_system() {
  namespace cs = model::cs;
  model::System sys("GridStorage");
  for (int g = 1; g <= 2; ++g) {
    auto& grp = sys.add_component("ServerGrp" + std::to_string(g),
                                  cs::kServerGroupT);
    grp.set_property("load", model::PropertyValue(0.0));
    grp.set_property("replicationCount", model::PropertyValue(2));
    grp.set_property("utilization", model::PropertyValue(0.5));
    grp.add_port("provide", cs::kProvidePortT);
    grp.representation();
  }
  auto& user = sys.add_component("User1", cs::kClientT);
  user.set_property("averageLatency", model::PropertyValue(0.5));
  user.set_property("maxLatency", model::PropertyValue(2.0));
  user.set_property("boundTo", model::PropertyValue("ServerGrp1"));
  user.add_port("request", cs::kRequestPortT);
  auto& conn = sys.add_connector("Conn_User1", cs::kConnT);
  conn.add_role("clientSide", cs::kClientRoleT)
      .set_property("bandwidth", model::PropertyValue(1e7));
  conn.add_role("serverSide", cs::kServerRoleT);
  sys.attach({"User1", "request", "Conn_User1", "clientSide"});
  sys.attach({"ServerGrp1", "provide", "Conn_User1", "serverSide"});
  return sys;
}

/// One-runtime-step strategy: move the violating client to ServerGrp2.
repair::CxxStrategy one_move_strategy() {
  repair::CxxStrategy s;
  s.name = "fixLatency";
  s.policy = repair::StrategyPolicy::TryAll;
  s.tactics.push_back({"moveOnce", [](repair::TacticContext& ctx) {
                         repair::perform_move(ctx.txn, ctx.system, ctx.element,
                                              "ServerGrp2", ctx.conventions);
                         return true;
                       }});
  return s;
}

/// Throws typed OpErrors for the first `failures` applies, then succeeds.
class FlakyTranslator : public repair::Translator {
 public:
  FlakyTranslator(int failures, repair::OpErrorKind kind)
      : failures_(failures), kind_(kind) {}
  int calls = 0;
  SimTime apply(const std::vector<model::OpRecord>&) override {
    ++calls;
    if (calls <= failures_) {
      throw repair::OpError(kind_, "injected operator failure");
    }
    return SimTime::millis(500);
  }

 private:
  int failures_;
  repair::OpErrorKind kind_;
};

struct RetryRig {
  sim::Simulator sim;
  model::System sys = make_grid_system();
  acme::Script script = acme::parse_script(repair::extended_script());
  FlakyTranslator translator;
  std::unique_ptr<repair::RepairEngine> engine;
  repair::ConstraintChecker checker{sys};

  RetryRig(int failures, repair::OpErrorKind kind,
           repair::RetryPolicy policy = {})
      : translator(failures, kind) {
    repair::RepairEngineConfig cfg;
    cfg.use_script = false;
    cfg.retry = policy;
    engine = std::make_unique<repair::RepairEngine>(
        sim, sys, script, nullptr, &translator, nullptr, cfg);
    engine->add_strategy(one_move_strategy());
    checker.add_constraint("lat:User1", "User1", "averageLatency <= 2.0",
                           "fixLatency");
    sys.component("User1").set_property("averageLatency",
                                        model::PropertyValue(9.0));
  }
};

TEST(EngineRetryTest, TransientFailureRetriesThenCommits) {
  repair::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base = SimTime::seconds(1);
  RetryRig rig(/*failures=*/2, repair::OpErrorKind::Transient, policy);
  ASSERT_TRUE(rig.engine->handle_violations(rig.checker.check()));
  rig.sim.run_until(SimTime::seconds(120));

  ASSERT_EQ(rig.engine->records().size(), 1u);
  const repair::RepairRecord& rec = rig.engine->records()[0];
  EXPECT_TRUE(rec.committed);
  EXPECT_TRUE(rec.finished);
  EXPECT_EQ(rec.ops_retried, 2);
  EXPECT_EQ(rig.translator.calls, 3);  // 2 failures + the success
  EXPECT_EQ(rig.engine->stats().ops_retried, 2u);
  EXPECT_EQ(rig.engine->stats().repairs_retried, 1u);
  EXPECT_EQ(rig.engine->stats().committed, 1u);
  // The retries cost sim time: two backoffs pushed completion past 2 s.
  EXPECT_GT(rec.duration(), SimTime::seconds(2));
}

TEST(EngineRetryTest, PermanentFailureAbortsWithoutRetrying) {
  RetryRig rig(/*failures=*/100, repair::OpErrorKind::Permanent);
  ASSERT_TRUE(rig.engine->handle_violations(rig.checker.check()));
  rig.sim.run_until(SimTime::seconds(120));

  ASSERT_EQ(rig.engine->records().size(), 1u);
  const repair::RepairRecord& rec = rig.engine->records()[0];
  EXPECT_TRUE(rec.aborted);
  EXPECT_FALSE(rec.committed);
  EXPECT_EQ(rec.ops_retried, 0);       // permanent => retrying cannot help
  EXPECT_EQ(rig.translator.calls, 1);  // exactly one attempt
  EXPECT_EQ(rig.engine->stats().repairs_retried, 0u);
  // The model was reverted: User1 is back on ServerGrp1.
  EXPECT_FALSE(rig.engine->busy());
}

TEST(EngineRetryTest, ExhaustedRetriesFallThroughToAbort) {
  repair::RetryPolicy policy;
  policy.max_attempts = 2;  // one initial try + one retry
  policy.backoff_base = SimTime::seconds(1);
  RetryRig rig(/*failures=*/100, repair::OpErrorKind::Transient, policy);
  ASSERT_TRUE(rig.engine->handle_violations(rig.checker.check()));
  rig.sim.run_until(SimTime::seconds(120));

  ASSERT_EQ(rig.engine->records().size(), 1u);
  const repair::RepairRecord& rec = rig.engine->records()[0];
  EXPECT_TRUE(rec.aborted);
  EXPECT_EQ(rec.ops_retried, 1);
  EXPECT_EQ(rig.translator.calls, 2);
  EXPECT_EQ(rig.engine->stats().repairs_retried, 1u);
}

// ---- fleet health state machine ------------------------------------------

events::Notification gauge_report(const std::string& element, double value) {
  events::Notification n(topics::kGaugeReport);
  n.set(topics::kAttrElement, events::Value(element));
  n.set(topics::kAttrProperty, events::Value(std::string("averageLatency")));
  n.set(topics::kAttrValue, events::Value(value));
  return n;
}

struct HealthRig {
  sim::Simulator sim;
  model::System system{"ShardSys"};
  events::LocalEventBus bus;
  acme::Script script = acme::parse_script(repair::extended_script());
  std::unique_ptr<repair::RepairEngine> engine;
  std::unique_ptr<core::ArchitectureManager> manager;

  HealthRig() {
    auto& comp = system.add_component("User1", "ClientT");
    comp.set_property("averageLatency", model::PropertyValue(0.5));
    engine = std::make_unique<repair::RepairEngine>(
        sim, system, script, nullptr, nullptr, nullptr,
        repair::RepairEngineConfig{});
    core::ArchManagerConfig cfg;
    cfg.passive = true;
    manager = std::make_unique<core::ArchitectureManager>(sim, system, bus,
                                                          *engine, cfg);
    manager->checker().add_constraint("lat:User1", "User1",
                                      "averageLatency <= 2.0", "");
  }
};

TEST(FleetHealthTest, SilenceWalksHealthyToQuarantinedAndBack) {
  HealthRig rig;
  core::FleetManagerConfig cfg;
  cfg.coalesce_window = SimTime::zero();
  cfg.first_check = SimTime::seconds(1e6);  // sweeps driven manually
  cfg.degraded_after = SimTime::seconds(10);
  cfg.quarantine_after = SimTime::seconds(30);
  cfg.recovery_observation = SimTime::seconds(10);
  core::FleetManager fleet(rig.sim, cfg);
  fleet.add_shard("t1", *rig.manager, rig.bus);
  fleet.start();

  std::vector<std::string> states;  // lifecycle tape from the shard's bus
  rig.bus.subscribe(events::Filter().topic(topics::kFleetHealth),
                    [&](const events::Notification& n) {
                      states.push_back(
                          n.get(topics::kAttrStateSym).as_string());
                    });

  auto at = [&](double t, std::function<void()> fn) {
    rig.sim.schedule_at(SimTime::seconds(t), std::move(fn));
  };
  // Registration at t=0 counts as liveness; pure silence follows.
  at(15, [&] {
    fleet.run_sweep();
    EXPECT_EQ(fleet.shard_health(0), core::ShardHealth::Degraded);
  });
  at(45, [&] {
    fleet.run_sweep();
    EXPECT_EQ(fleet.shard_health(0), core::ShardHealth::Quarantined);
  });
  // Reports resume at t=50: the shard is observed recovering, and only
  // sustained reporting re-admits it.
  at(50, [&] { rig.bus.publish(gauge_report("User1", 0.7)); });
  at(52, [&] {
    fleet.run_sweep();
    EXPECT_EQ(fleet.shard_health(0), core::ShardHealth::Recovering);
  });
  at(58, [&] { rig.bus.publish(gauge_report("User1", 0.8)); });
  at(63, [&] {
    fleet.run_sweep();
    EXPECT_EQ(fleet.shard_health(0), core::ShardHealth::Healthy);
  });
  rig.sim.run_until(SimTime::seconds(70));

  const core::FleetShardStats& ss = fleet.shard_stats(0);
  EXPECT_EQ(ss.health_degraded, 1u);
  EXPECT_EQ(ss.health_quarantined, 1u);
  EXPECT_EQ(ss.health_recovered, 1u);
  EXPECT_GE(ss.sweeps_quarantined, 1u);  // the t=45 sweep skipped it
  EXPECT_EQ(fleet.stats().shards_quarantined, 1u);
  ASSERT_EQ(states.size(), 4u);  // every transition hit the bus, in order
  EXPECT_EQ(states[0], "degraded");
  EXPECT_EQ(states[1], "quarantined");
  EXPECT_EQ(states[2], "recovering");
  EXPECT_EQ(states[3], "healthy");
}

TEST(FleetHealthTest, RecoveringShardRelapsesOnRenewedSilence) {
  HealthRig rig;
  core::FleetManagerConfig cfg;
  cfg.coalesce_window = SimTime::zero();
  cfg.first_check = SimTime::seconds(1e6);
  cfg.degraded_after = SimTime::seconds(10);
  cfg.quarantine_after = SimTime::seconds(30);
  cfg.recovery_observation = SimTime::seconds(20);
  core::FleetManager fleet(rig.sim, cfg);
  fleet.add_shard("t1", *rig.manager, rig.bus);
  fleet.start();

  auto at = [&](double t, std::function<void()> fn) {
    rig.sim.schedule_at(SimTime::seconds(t), std::move(fn));
  };
  at(15, [&] { fleet.run_sweep(); });  // -> Degraded
  at(16, [&] { rig.bus.publish(gauge_report("User1", 0.7)); });
  at(18, [&] {
    fleet.run_sweep();  // -> Recovering (observation window 20 s)
    EXPECT_EQ(fleet.shard_health(0), core::ShardHealth::Recovering);
  });
  // No further reports: silence crosses degraded_after again mid-watch.
  at(30, [&] {
    fleet.run_sweep();
    EXPECT_EQ(fleet.shard_health(0), core::ShardHealth::Degraded);
  });
  rig.sim.run_until(SimTime::seconds(35));
  EXPECT_EQ(fleet.shard_stats(0).health_degraded, 2u);
  EXPECT_EQ(fleet.shard_stats(0).health_recovered, 0u);
}

TEST(FleetHealthTest, StalledShardSkipsSweepsUntilWindowEnds) {
  HealthRig rig;
  core::FleetManagerConfig cfg;
  cfg.coalesce_window = SimTime::millis(500);
  cfg.first_check = SimTime::seconds(1e6);
  cfg.health_tracking = false;  // isolate the stall seam from the FSM
  core::FleetManager fleet(rig.sim, cfg);
  fleet.add_shard("t1", *rig.manager, rig.bus);
  fleet.start();

  auto at = [&](double t, std::function<void()> fn) {
    rig.sim.schedule_at(SimTime::seconds(t), std::move(fn));
  };
  at(1, [&] { rig.bus.publish(gauge_report("User1", 9.0)); });
  at(2, [&] {
    fleet.stall_shard(0, SimTime::seconds(30));
    fleet.run_sweep();  // stalled: no detection despite the violation
    EXPECT_EQ(fleet.shard_stats(0).violations, 0u);
    EXPECT_EQ(fleet.shard_stats(0).sweeps_stalled, 1u);
  });
  at(40, [&] {
    fleet.run_sweep();  // window over: the backlog drains and detects
    EXPECT_EQ(fleet.shard_stats(0).violations, 1u);
    EXPECT_EQ(fleet.shard_stats(0).sweeps, 1u);
  });
  rig.sim.run_until(SimTime::seconds(45));
  EXPECT_EQ(fleet.shard_stats(0).violations, 1u);
}

// ---- fault-seed replay determinism ---------------------------------------

struct FaultFingerprint {
  std::uint64_t events = 0;
  std::uint64_t responses = 0;
  std::vector<std::tuple<std::string, std::string, double>> repairs;
  std::uint64_t dropped = 0, delayed = 0, duplicated = 0, suppressed = 0;
  std::uint64_t ops_transient = 0, ops_retried = 0;
  std::uint64_t verdict_holds = 0;
  std::size_t consistency_issues = 0;

  bool operator==(const FaultFingerprint&) const = default;
};

FaultFingerprint run_lossy_grid(std::uint64_t fault_seed) {
  core::ExperimentOptions opt = core::options_for("lossy-grid");
  // Compress the stress window into a short horizon so repairs — and with
  // them the repair-seam faults — actually fire inside the test budget.
  opt.scenario.horizon = SimTime::seconds(400);
  opt.scenario.stress_start = SimTime::seconds(120);
  opt.scenario.stress_end = SimTime::seconds(280);
  opt.scenario.fault.seed = fault_seed;
  const core::ExperimentResult r = core::run_experiment(opt);

  FaultFingerprint fp;
  fp.events = r.sim_events;
  fp.responses = r.responses_completed;
  for (const repair::RepairRecord& rec : r.repairs) {
    fp.repairs.emplace_back(rec.strategy, rec.element,
                            rec.started.as_seconds());
  }
  fp.dropped = r.fault_stats.reports_dropped;
  fp.delayed = r.fault_stats.reports_delayed;
  fp.duplicated = r.fault_stats.reports_duplicated;
  fp.suppressed = r.fault_stats.reports_suppressed;
  fp.ops_transient = r.fault_stats.ops_transient;
  fp.ops_retried = r.repair_stats.ops_retried;
  fp.verdict_holds = r.verdict_holds;
  fp.consistency_issues = r.consistency_issues.size();
  return fp;
}

TEST(FaultReplayTest, SameFaultSeedBitIdenticalRun) {
  const FaultFingerprint a = run_lossy_grid(0xFA117C0DEULL);
  const FaultFingerprint b = run_lossy_grid(0xFA117C0DEULL);
  EXPECT_EQ(a, b);
  // The run was genuinely lossy — injection fired at every monitoring knob
  // the profile arms — and the loop still converged: the model and runtime
  // agree at the horizon.
  EXPECT_GT(a.dropped, 0u);
  EXPECT_GT(a.delayed, 0u);
  EXPECT_FALSE(a.repairs.empty());  // the stress window forced repairs
  EXPECT_EQ(a.consistency_issues, 0u);
  EXPECT_GT(a.responses, 0u);
}

TEST(FaultReplayTest, DifferentFaultSeedsDivergeWithoutTouchingWorkloadSeed) {
  const FaultFingerprint a = run_lossy_grid(1);
  const FaultFingerprint b = run_lossy_grid(2);
  EXPECT_NE(a, b);  // the fault streams are real inputs to the run
  // Both still converge: robustness is seed-independent.
  EXPECT_EQ(a.consistency_issues, 0u);
  EXPECT_EQ(b.consistency_issues, 0u);
}

// ---- fleet determinism under faults --------------------------------------

struct FleetFaultFingerprint {
  std::uint64_t events = 0;
  std::vector<std::string> models;
  std::vector<std::vector<std::tuple<std::string, std::string, double>>>
      repairs;
  std::uint64_t faults_injected = 0;
  std::uint64_t repairs_total = 0;
  /// Per-tenant FaultPlane::state_digest(): stream positions + draw
  /// counters. Equal digests mean the same draws happened in the same
  /// order — the strongest per-plane determinism witness we have.
  std::vector<std::uint64_t> digests;

  bool operator==(const FleetFaultFingerprint&) const = default;
};

FleetFaultFingerprint run_faulted_fleet(std::size_t sim_threads) {
  sim::Simulator sim;
  core::FleetOptions opt;
  opt.scenario = "fleet-4x16";
  opt.tenants = 3;
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
  // The fault plane rides into every tenant (decorrelated per-tenant seed);
  // every draw happens in the tenant's lane, so the worker count that runs
  // the windows and the sweep must not matter.
  opt.config.fault.enabled = true;
  opt.config.fault.monitoring.report_loss = 0.10;
  opt.config.fault.monitoring.report_delay = 0.05;
  opt.config.fault.repair.op_transient = 0.10;
  opt.manager.coalesce_window = SimTime::millis(500);
  opt.sim_threads = sim_threads;
  auto fleet = core::FrameworkBuilder::build_fleet(sim, opt);
  fleet->start();
  fleet->run_until(SimTime::seconds(320));

  FleetFaultFingerprint fp;
  fp.events = sim.executed() + fleet->coordinator()->stats().shard_events;
  for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet->tenant(t);
    util::SerialLane in_lane(tenant.lane());
    std::vector<std::tuple<std::string, std::string, double>> rs;
    for (const repair::RepairRecord& r :
         tenant.framework->engine().records()) {
      rs.emplace_back(r.strategy, r.element, r.started.as_seconds());
    }
    fp.repairs_total += rs.size();
    fp.repairs.push_back(std::move(rs));
    fp.models.push_back(acme::print_system(tenant.framework->system()));
    if (const fault::FaultPlane* plane = tenant.framework->fault_plane()) {
      fp.faults_injected += plane->stats().reports_dropped +
                            plane->stats().reports_delayed +
                            plane->stats().ops_transient;
      fp.digests.push_back(plane->state_digest());
    }
  }
  return fp;
}

TEST(FleetFaultDeterminismTest, IdenticalFaultedRunsForThreadCounts1AndN) {
  // Two workers over three tenants: uneven dynamic scheduling.
  const FleetFaultFingerprint one = run_faulted_fleet(1);
  const FleetFaultFingerprint many = run_faulted_fleet(2);
  EXPECT_EQ(one, many);
  // Vacuity guards: faults were really injected and repairs really ran.
  EXPECT_GT(one.faults_injected, 0u);
  EXPECT_GT(one.repairs_total, 0u);
}

TEST(FleetFaultDeterminismTest, FaultDrawsIdenticalAcrossSimThreadCounts) {
  // Sharded kernel: each tenant's fault plane lives on its shard's clock,
  // so every draw is a pure function of the shard's serial event stream —
  // the worker-thread count must not move a single stream position.
  const FleetFaultFingerprint one = run_faulted_fleet(/*sim_threads=*/1);
  const FleetFaultFingerprint four = run_faulted_fleet(/*sim_threads=*/4);
  EXPECT_EQ(one, four);
  ASSERT_FALSE(one.digests.empty());
  EXPECT_EQ(one.digests, four.digests);
  EXPECT_GT(one.faults_injected, 0u);
  EXPECT_GT(one.repairs_total, 0u);
}

// ---- suite containment ---------------------------------------------------

TEST(SuiteFaultTest, CrashingCaseIsContainedAndItsFaultSeedRecorded) {
  core::ExperimentSuite suite;
  core::ExperimentOptions bad = core::options_for("grid-4x16");
  bad.scenario_name = "no-such-scenario";  // build_scenario throws
  bad.scenario.fault.seed = 0xDEAD;
  suite.add("bad", bad);
  core::ExperimentOptions good = core::options_for("grid-4x16");
  good.scenario.horizon = SimTime::seconds(60);
  suite.add("good", good);

  const std::vector<core::SuiteOutcome> outcomes = suite.run(2);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[0].error.empty());
  EXPECT_EQ(outcomes[0].fault_seed, 0xDEADu);  // replay handle survives
  EXPECT_TRUE(outcomes[1].ok());  // the failure stayed in its cell
  EXPECT_GT(outcomes[1].result.sim_events, 0u);
}

}  // namespace
}  // namespace arcadia
