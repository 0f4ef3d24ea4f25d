// End-to-end integration: the full adaptation loop on shortened scenarios,
// control-vs-repair comparisons, determinism, and the paper's qualitative
// claims.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "durability/codec.hpp"

namespace arcadia::core {
namespace {

/// Short scenario: trouble starts at 60 s, stress 300-420 s, ends 600 s.
ExperimentOptions short_options() {
  ExperimentOptions opt;
  opt.scenario.horizon = SimTime::seconds(600);
  opt.scenario.quiescent_end = SimTime::seconds(60);
  opt.scenario.stress_start = SimTime::seconds(300);
  opt.scenario.stress_end = SimTime::seconds(420);
  return opt;
}

TEST(IntegrationTest, ControlRunStarvesC3C4) {
  ExperimentOptions opt = short_options();
  opt.adaptation = false;
  ExperimentResult r = run_experiment(opt);
  EXPECT_FALSE(r.adaptive);
  EXPECT_TRUE(r.repairs.empty());
  // User3/User4 (C3/C4) cross the threshold shortly after 60 s and stay up
  // through the bandwidth phase.
  SimTime c3 = r.client_first_crossing(2);
  SimTime c4 = r.client_first_crossing(3);
  EXPECT_LT(c3.as_seconds(), 120.0);
  EXPECT_LT(c4.as_seconds(), 120.0);
  // The unaffected clients stay healthy until the stress phase.
  EXPECT_GT(r.client_first_crossing(0).as_seconds(), 290.0);
  EXPECT_GT(r.client_first_crossing(4).as_seconds(), 290.0);
}

TEST(IntegrationTest, ControlStressOverloadsQueues) {
  ExperimentOptions opt = short_options();
  opt.adaptation = false;
  ExperimentResult r = run_experiment(opt);
  const GroupSeries* sg1 = r.group("ServerGrp1");
  ASSERT_NE(sg1, nullptr);
  // Queue exceeds the overload limit during stress...
  EXPECT_GT(sg1->queue_length.max_over(SimTime::seconds(300),
                                       SimTime::seconds(420)),
            6.0);
  // ...and was healthy before the competition phase.
  EXPECT_LT(sg1->queue_length.max_over(SimTime::zero(), SimTime::seconds(60)),
            6.0);
}

TEST(IntegrationTest, ControlBandwidthCollapses) {
  ExperimentOptions opt = short_options();
  opt.adaptation = false;
  ExperimentResult r = run_experiment(opt);
  const ClientSeries* c3 = r.client("User3");
  ASSERT_NE(c3, nullptr);
  double before = c3->bandwidth_mbps.mean_over(SimTime::seconds(10),
                                               SimTime::seconds(55));
  double during = c3->bandwidth_mbps.min_over(SimTime::seconds(70),
                                              SimTime::seconds(290));
  EXPECT_GT(before, 5.0);
  EXPECT_LT(during, 0.01);  // below the 10 Kbps repair threshold
}

TEST(IntegrationTest, AdaptationRepairsBandwidthPhase) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult r = run_experiment(opt);
  EXPECT_TRUE(r.adaptive);
  ASSERT_FALSE(r.repairs.empty());
  // A move repair for User3 or User4 happened during the bandwidth phase.
  bool moved = false;
  for (const auto& rec : r.repairs) {
    if (rec.committed && rec.moves > 0 && rec.started < SimTime::seconds(300)) {
      moved = true;
      EXPECT_TRUE(rec.element == "User3" || rec.element == "User4");
    }
  }
  EXPECT_TRUE(moved);
}

TEST(IntegrationTest, AdaptationBeatsControl) {
  ExperimentOptions opt = short_options();
  PairedResults pair = run_control_and_repair(opt);
  double control = pair.control.mean_fraction_above();
  double repaired = pair.repair.mean_fraction_above();
  EXPECT_GT(control, 0.15);
  EXPECT_LT(repaired, control * 0.7);  // clear qualitative win
}

TEST(IntegrationTest, RepairsTakeAboutThirtySeconds) {
  // This pins the PAPER's repair shape, so it runs the legacy strictly
  // sequential replay; the plan pipeline intentionally beats these numbers
  // (see PlanPipelineShortensRepairs below and bench_fig11_repair_latency).
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  opt.framework.plan_pipeline = false;
  ExperimentResult r = run_experiment(opt);
  int counted = 0;
  for (const auto& rec : r.repairs) {
    if (!rec.committed || !rec.finished) continue;
    ++counted;
    EXPECT_GT(rec.duration().as_seconds(), 20.0);
    EXPECT_LT(rec.duration().as_seconds(), 45.0);
    // Gauge communication dominates (Section 5.3).
    EXPECT_GT(rec.gauge_cost.as_seconds(), rec.duration().as_seconds() * 0.6);
  }
  EXPECT_GT(counted, 0);
}

TEST(IntegrationTest, PlanPipelineShortensRepairs) {
  // Same experiment, staged-plan enactment (the default): batched gauge
  // re-deployments overlap across elements, so a committed repair's
  // end-to-end time drops well under the sequential baseline's ~30 s.
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult r = run_experiment(opt);
  auto mean_repair = [](const ExperimentResult& res) {
    double sum = 0.0;
    int n = 0;
    for (const auto& rec : res.repairs) {
      if (rec.committed && rec.finished) {
        sum += rec.duration().as_seconds();
        ++n;
      }
    }
    return n ? sum / n : 0.0;
  };
  const double plan_mean = mean_repair(r);
  EXPECT_GT(plan_mean, 0.0);

  opt.framework.plan_pipeline = false;
  const double legacy_mean = mean_repair(run_experiment(opt));
  // Move repairs disturb two gauge elements and halve (15 s vs 30 s);
  // single-element repairs keep their per-element command channel, so the
  // mean lands clearly under the baseline without collapsing to half.
  EXPECT_LT(plan_mean, legacy_mean * 0.9);
  EXPECT_TRUE(r.consistency_issues.empty());
}

TEST(IntegrationTest, GaugeCachingShortensRepairs) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  opt.framework.gauge_caching = true;
  ExperimentResult r = run_experiment(opt);
  int counted = 0;
  for (const auto& rec : r.repairs) {
    if (!rec.committed || !rec.finished) continue;
    ++counted;
    EXPECT_LT(rec.duration().as_seconds(), 8.0);
  }
  EXPECT_GT(counted, 0);
}

TEST(IntegrationTest, StressRecruitsSpareServers) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult r = run_experiment(opt);
  // During the stress phase the framework activates at least one spare.
  bool activated = false;
  for (const auto& ev : r.server_events) {
    if (ev.active && ev.time >= SimTime::seconds(300)) activated = true;
  }
  EXPECT_TRUE(activated);
  EXPECT_GE(r.repair_stats.servers_added, 1u);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult a = run_experiment(opt);
  ExperimentResult b = run_experiment(opt);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.requests_issued, b.requests_issued);
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (std::size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].started, b.repairs[i].started);
    EXPECT_EQ(a.repairs[i].strategy, b.repairs[i].strategy);
    EXPECT_EQ(a.repairs[i].committed, b.repairs[i].committed);
  }
}

TEST(IntegrationTest, SeedChangesTrajectoryNotShape) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult a = run_experiment(opt);
  opt.scenario.seed = 777;
  ExperimentResult b = run_experiment(opt);
  EXPECT_NE(a.requests_issued, b.requests_issued);
  // Shape invariant: both repaired runs keep most clients under the bound.
  EXPECT_LT(a.mean_fraction_above(), 0.35);
  EXPECT_LT(b.mean_fraction_above(), 0.35);
}

TEST(IntegrationTest, NativeStrategiesMatchScriptDecisions) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult script = run_experiment(opt);
  opt.framework.use_script = false;
  ExperimentResult native = run_experiment(opt);
  ASSERT_FALSE(script.repairs.empty());
  ASSERT_FALSE(native.repairs.empty());
  // Identical workloads and thresholds: the first repair decision agrees.
  EXPECT_EQ(script.repairs[0].element, native.repairs[0].element);
  EXPECT_EQ(script.repairs[0].strategy, native.repairs[0].strategy);
  EXPECT_EQ(script.repairs[0].committed, native.repairs[0].committed);
}

TEST(IntegrationTest, ModelStaysStructurallyValid) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  // Run and then rebuild the framework's final model state indirectly:
  // validity is asserted through the absence of exceptions and through the
  // repair records all being well-formed.
  ExperimentResult r = run_experiment(opt);
  for (const auto& rec : r.repairs) {
    EXPECT_FALSE(rec.constraint_id.empty());
    EXPECT_FALSE(rec.element.empty());
    if (rec.committed && rec.finished) {
      EXPECT_GE(rec.completed, rec.started);
      EXPECT_FALSE(rec.ops.empty());
    }
  }
}

TEST(IntegrationTest, MonitoringQosDoesNotBreakLoop) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  opt.framework.monitoring_qos = true;
  ExperimentResult r = run_experiment(opt);
  EXPECT_FALSE(r.repairs.empty());
  EXPECT_LT(r.mean_fraction_above(), 0.35);
}

TEST(IntegrationTest, WorstFirstPolicyRuns) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  opt.framework.policy = repair::ViolationPolicy::WorstFirst;
  ExperimentResult r = run_experiment(opt);
  EXPECT_FALSE(r.repairs.empty());
  EXPECT_LT(r.mean_fraction_above(), 0.35);
}


// ---- sequential enactment golden ----
//
// plan_pipeline = false used to run a separate record replay: translate
// every committed record at once, then re-deploy each affected element's
// gauges one after another. It is now the same AdaptationPlan enacted
// unoptimized, one step at a time. These records were captured from the
// record replay before it was deleted; every RepairRecord field except
// plan_steps / plan_steps_merged (which the replay never set) must still
// match, on the full paper-fig6 run and on the shortened one.

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string golden_line(const repair::RepairRecord& r) {
  std::ostringstream os;
  os << "#" << r.id << " " << r.constraint_id << "/" << r.element << "/"
     << r.strategy << " t=" << r.started.as_micros() << ".."
     << r.completed.as_micros() << " c" << r.committed << "a" << r.aborted
     << "f" << r.finished << "p" << r.preempted << " '" << r.abort_reason
     << "' tactics=";
  for (const auto& [name, ok] : r.tactics) os << name << ":" << ok << ",";
  os << " spans=";
  for (const acme::TacticSpan& span : r.tactic_spans) {
    os << span.name << ":" << span.succeeded << ":" << span.ops_begin << "-"
       << span.ops_end << ",";
  }
  durability::Encoder journal;
  for (const model::OpRecord& op : r.journal) journal.op(op);
  std::string ops;
  for (const std::string& op : r.ops) ops += op + "\n";
  os << " journal=" << r.journal.size() << ":"
     << hex64(durability::fnv1a(journal.bytes())) << " ops=" << r.ops.size()
     << ":" << hex64(durability::fnv1a(ops.data(), ops.size()))
     << " cost=" << r.decision_cost.as_micros() << ","
     << r.query_cost.as_micros() << "," << r.op_cost.as_micros() << ","
     << r.gauge_cost.as_micros() << " m" << r.moves << "+" << r.servers_added
     << "-" << r.servers_removed << " retry" << r.ops_retried << "/"
     << r.ops_timed_out;
  return os.str();
}

void expect_golden(const ExperimentResult& r,
                   const std::vector<std::string>& golden) {
  ASSERT_EQ(r.repairs.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(golden_line(r.repairs[i]), golden[i]) << "repair " << i;
  }
}

const std::vector<std::string> kSequentialGoldenFull = {
    "#0 u:ServerGrp1/ServerGrp1/trimServers t=15000000..15120000"
    " c0a1f1p0 'NothingToTrim' tactics=shrinkGroup:0, spans="
    " journal=0:cbf29ce484222325 ops=0:cbf29ce484222325"
    " cost=100000,20000,0,0 m0+0-0 retry0/0",
    "#1 r:User3/User3/fixLatency t=140000000..170230000 c1a0f1p0 ''"
    " tactics=fixServerLoad:0,fixBandwidth:1,"
    " spans=fixServerLoad:0:0-0,fixBandwidth:1:0-3,"
    " journal=3:054bbfa1bc4c1402 ops=3:4f4f0995c5ee6d98"
    " cost=100000,10000,120000,30000000 m1+0-0 retry0/0",
    "#2 r:User4/User4/fixLatency t=175000000..205230000 c1a0f1p0 ''"
    " tactics=fixServerLoad:0,fixBandwidth:1,"
    " spans=fixServerLoad:0:0-0,fixBandwidth:1:0-3,"
    " journal=3:7e107d62325dd489 ops=3:e6844ee7e6cc82d5"
    " cost=100000,10000,120000,30000000 m1+0-0 retry0/0",
    "#3 r:User3/User3/fixLatency t=210000000..210100000 c0a1f1p0"
    " 'NoApplicableTactic'"
    " tactics=fixServerLoad:0,fixBandwidth:0,fixLoadByMove:0, spans="
    " journal=0:cbf29ce484222325 ops=0:cbf29ce484222325"
    " cost=100000,0,0,0 m0+0-0 retry0/0",
    "#4 r:User4/User4/fixLatency t=240000000..240100000 c0a1f1p0"
    " 'NoApplicableTactic'"
    " tactics=fixServerLoad:0,fixBandwidth:0,fixLoadByMove:0, spans="
    " journal=0:cbf29ce484222325 ops=0:cbf29ce484222325"
    " cost=100000,0,0,0 m0+0-0 retry0/0",
    "#5 u:ServerGrp1/ServerGrp1/trimServers t=415000000..415120000"
    " c0a1f1p0 'NothingToTrim' tactics=shrinkGroup:0, spans="
    " journal=0:cbf29ce484222325 ops=0:cbf29ce484222325"
    " cost=100000,20000,0,0 m0+0-0 retry0/0",
    "#6 r:User2/User2/fixLatency t=625000000..655880000 c1a0f1p0 ''"
    " tactics=fixServerLoad:1, spans=fixServerLoad:1:0-2,"
    " journal=2:f62c10c17e4db194 ops=2:2dd7409ea4ceccfc"
    " cost=100000,140000,640000,30000000 m0+1-0 retry0/0",
    "#7 r:User1/User1/fixLatency t=660000000..690870000 c1a0f1p0 ''"
    " tactics=fixServerLoad:1, spans=fixServerLoad:1:0-2,"
    " journal=2:f250ae0bf965abeb ops=2:4e80eaf1bbd43540"
    " cost=100000,130000,640000,30000000 m0+1-0 retry0/0",
    "#8 r:User3/User3/fixLatency t=880000000..910350000 c1a0f1p0 ''"
    " tactics=fixServerLoad:0,fixBandwidth:0,fixLoadByMove:1,"
    " spans=fixServerLoad:0:0-0,fixBandwidth:0:0-0,fixLoadByMove:1:0-3,"
    " journal=3:7086d28ce62979ae ops=3:0e135c6fd0f42ceb"
    " cost=100000,130000,120000,30000000 m1+0-0 retry0/0",
    "#9 r:User4/User4/fixLatency t=915000000..915100000 c0a1f1p0"
    " 'NoApplicableTactic'"
    " tactics=fixServerLoad:0,fixBandwidth:0,fixLoadByMove:0, spans="
    " journal=0:cbf29ce484222325 ops=0:cbf29ce484222325"
    " cost=100000,0,0,0 m0+0-0 retry0/0",
    "#10 u:ServerGrp1/ServerGrp1/trimServers t=1435000000..1465240000"
    " c1a0f1p0 '' tactics=shrinkGroup:1, spans=shrinkGroup:1:0-2,"
    " journal=2:a7c5865b8d3d6b82 ops=2:8895c5696a8a7b34"
    " cost=100000,20000,120000,30000000 m0+0-1 retry0/0",
};

const std::vector<std::string> kSequentialGoldenShort = {
    "#0 u:ServerGrp1/ServerGrp1/trimServers t=15000000..15120000"
    " c0a1f1p0 'NothingToTrim' tactics=shrinkGroup:0, spans="
    " journal=0:cbf29ce484222325 ops=0:cbf29ce484222325"
    " cost=100000,20000,0,0 m0+0-0 retry0/0",
    "#1 r:User3/User3/fixLatency t=80000000..110230000 c1a0f1p0 ''"
    " tactics=fixServerLoad:0,fixBandwidth:1,"
    " spans=fixServerLoad:0:0-0,fixBandwidth:1:0-3,"
    " journal=3:054bbfa1bc4c1402 ops=3:4f4f0995c5ee6d98"
    " cost=100000,10000,120000,30000000 m1+0-0 retry0/0",
    "#2 r:User4/User4/fixLatency t=115000000..145230000 c1a0f1p0 ''"
    " tactics=fixServerLoad:0,fixBandwidth:1,"
    " spans=fixServerLoad:0:0-0,fixBandwidth:1:0-3,"
    " journal=3:7e107d62325dd489 ops=3:e6844ee7e6cc82d5"
    " cost=100000,10000,120000,30000000 m1+0-0 retry0/0",
    "#3 r:User3/User3/fixLatency t=150000000..150100000 c0a1f1p0"
    " 'NoApplicableTactic'"
    " tactics=fixServerLoad:0,fixBandwidth:0,fixLoadByMove:0, spans="
    " journal=0:cbf29ce484222325 ops=0:cbf29ce484222325"
    " cost=100000,0,0,0 m0+0-0 retry0/0",
    "#4 r:User4/User4/fixLatency t=180000000..180100000 c0a1f1p0"
    " 'NoApplicableTactic'"
    " tactics=fixServerLoad:0,fixBandwidth:0,fixLoadByMove:0, spans="
    " journal=0:cbf29ce484222325 ops=0:cbf29ce484222325"
    " cost=100000,0,0,0 m0+0-0 retry0/0",
    "#5 r:User2/User2/fixLatency t=320000000..350880000 c1a0f1p0 ''"
    " tactics=fixServerLoad:1, spans=fixServerLoad:1:0-2,"
    " journal=2:f62c10c17e4db194 ops=2:2dd7409ea4ceccfc"
    " cost=100000,140000,640000,30000000 m0+1-0 retry0/0",
    "#6 r:User1/User1/fixLatency t=355000000..385870000 c1a0f1p0 ''"
    " tactics=fixServerLoad:1, spans=fixServerLoad:1:0-2,"
    " journal=2:f250ae0bf965abeb ops=2:4e80eaf1bbd43540"
    " cost=100000,130000,640000,30000000 m0+1-0 retry0/0",
    "#7 u:ServerGrp1/ServerGrp1/trimServers t=455000000..485240000"
    " c1a0f1p0 '' tactics=shrinkGroup:1, spans=shrinkGroup:1:0-2,"
    " journal=2:a7c5865b8d3d6b82 ops=2:8895c5696a8a7b34"
    " cost=100000,20000,120000,30000000 m0+0-1 retry0/0",
    "#8 u:ServerGrp1/ServerGrp1/trimServers t=535000000..565240000"
    " c1a0f1p0 '' tactics=shrinkGroup:1, spans=shrinkGroup:1:0-2,"
    " journal=2:3259332ef2cda3a5 ops=2:47abb85d1eb18dce"
    " cost=100000,20000,120000,30000000 m0+0-1 retry0/0",
};

TEST(IntegrationTest, SerializedPlanMatchesSequentialReplayGolden) {
  ExperimentOptions full = options_for("paper-fig6");
  full.adaptation = true;
  full.framework.plan_pipeline = false;
  expect_golden(run_experiment(full), kSequentialGoldenFull);

  ExperimentOptions shortened = short_options();
  shortened.adaptation = true;
  shortened.framework.plan_pipeline = false;
  expect_golden(run_experiment(shortened), kSequentialGoldenShort);
}

}  // namespace
}  // namespace arcadia::core
