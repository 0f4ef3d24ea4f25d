// Crash recovery end to end: the manifest codec, restore_run's refusal
// modes, the recovery property over three stressed profiles (a run killed
// at seeded sim-times — including between a snapshot's tmp write and its
// rename — restores, re-converges, and ends bit-identical to an uncrashed
// run), and the fleet's sweep-thread independence (the shared journal's
// bytes must not depend on detect-phase parallelism).
//
// These are simulation-heavy tests (each recovery segment re-executes from
// t = 0); horizons are compressed the same way examples/fault_smoke.cpp
// compresses them so the stress windows still force repairs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/framework_builder.hpp"
#include "core/recovery.hpp"
#include "durability/io.hpp"
#include "durability/journal.hpp"
#include "fault/crash_plan.hpp"
#include "sim/scenario_registry.hpp"

namespace arcadia::core {
namespace {

std::string scratch_dir(const std::string& name) {
  const std::string dir = "test_recovery-" + name;
  durability::ensure_dir(dir);
  for (const std::string& file : durability::list_dir(dir)) {
    durability::remove_file(dir + "/" + file);
  }
  return dir;
}

/// A profile's calibrated options with the CI-budget horizon compression,
/// as one RecoveryOptions (no crash plan — callers add one).
RecoveryOptions compressed_options(const std::string& profile,
                                   const std::string& dir) {
  ExperimentOptions base = options_for(profile);
  if (profile == "churn-mid-repair") {
    // Pull the churn outages forward so both land inside a 500 s run.
    base.scenario.horizon = SimTime::seconds(500);
    base.scenario.churn.first_outage = SimTime::seconds(100);
    base.framework.plan_preemption = true;  // the profile's intended pairing
  } else {
    // lossy-grid / grid-4x16: the fault_smoke compression.
    base.scenario.horizon = SimTime::seconds(500);
    base.scenario.stress_start = SimTime::seconds(150);
    base.scenario.stress_end = SimTime::seconds(330);
  }
  RecoveryOptions opts;
  opts.dir = dir;
  opts.scenario = profile;
  opts.config = base.scenario;
  opts.framework = base.framework;
  opts.framework.durability.snapshot_period = SimTime::seconds(90);
  return opts;
}

// ---- manifest ------------------------------------------------------------

TEST(ManifestTest, RoundTripsScenarioFrameworkAndDurabilityKnobs) {
  const std::string dir = scratch_dir("manifest");
  Manifest in;
  in.scenario = "lossy-grid";
  in.config = sim::scenario_defaults("lossy-grid");
  in.config.horizon = SimTime::seconds(456);
  in.config.fault.monitoring.report_loss = 0.07;
  in.framework.check_period = SimTime::millis(750);
  in.framework.plan_preemption = true;
  in.framework.durability.dir = "elsewhere";  // rebound on restore
  in.framework.durability.snapshot_period = SimTime::seconds(77);
  in.framework.durability.retention = 9;
  in.framework.durability.sync_interval = SimTime::seconds(11);
  write_manifest(dir, in);

  const Manifest out = read_manifest(dir);
  EXPECT_EQ(out.scenario, "lossy-grid");
  EXPECT_EQ(out.config.horizon, SimTime::seconds(456));
  EXPECT_DOUBLE_EQ(out.config.fault.monitoring.report_loss, 0.07);
  EXPECT_EQ(out.framework.check_period, SimTime::millis(750));
  EXPECT_TRUE(out.framework.plan_preemption);
  EXPECT_EQ(out.framework.durability.snapshot_period, SimTime::seconds(77));
  EXPECT_EQ(out.framework.durability.retention, 9u);
  EXPECT_EQ(out.framework.durability.sync_interval, SimTime::seconds(11));
}

TEST(ManifestTest, MissingAndCorruptManifestsRefuseLoudly) {
  const std::string dir = scratch_dir("no-manifest");
  EXPECT_THROW(read_manifest(dir), durability::DurabilityError);
  EXPECT_THROW(restore_run(dir), durability::DurabilityError);

  Manifest m;
  m.scenario = "lossy-grid";
  m.config = sim::scenario_defaults("lossy-grid");
  write_manifest(dir, m);
  std::vector<std::uint8_t> bytes =
      durability::read_file(dir + "/" + kManifestFile);
  bytes[bytes.size() / 2] ^= 0xFF;  // CRC catches a flipped config byte
  durability::write_file_atomic(dir + "/" + kManifestFile, bytes);
  EXPECT_THROW(read_manifest(dir), durability::DurabilityError);
}

// ---- the recovery property ----------------------------------------------

/// Clean run and crashed run of the same profile must be indistinguishable
/// at the horizon: same model digest, same repair count, byte-identical
/// journal. Crash points are seeded per profile; every second one fires in
/// the snapshot rename gap.
void expect_recovery_invariant(const std::string& profile,
                               std::uint64_t crash_seed) {
  const RecoveryResult clean = run_with_recovery(
      compressed_options(profile, scratch_dir(profile + "-clean")));
  ASSERT_GT(clean.repairs_committed, 0u)
      << profile << ": baseline forced no repairs — the profile is idle";

  RecoveryOptions crash_opts =
      compressed_options(profile, scratch_dir(profile + "-crash"));
  crash_opts.crashes = fault::CrashPlan::seeded(
      crash_seed, 3, SimTime::seconds(100),
      crash_opts.config.horizon - SimTime::seconds(60),
      /*mid_snapshot_every=*/2);
  const RecoveryResult crashed = run_with_recovery(crash_opts);

  EXPECT_GT(crashed.crashes_survived, 0) << profile;
  EXPECT_EQ(crashed.segments, crashed.crashes_survived + 1) << profile;
  EXPECT_EQ(crashed.model_digest, clean.model_digest) << profile;
  EXPECT_EQ(crashed.repairs_committed, clean.repairs_committed) << profile;
  EXPECT_EQ(crashed.final_lsn, clean.final_lsn) << profile;

  const auto clean_journal = durability::read_file(
      "test_recovery-" + profile + "-clean/" + durability::kJournalFile);
  const auto crashed_journal = durability::read_file(
      "test_recovery-" + profile + "-crash/" + durability::kJournalFile);
  EXPECT_EQ(clean_journal, crashed_journal)
      << profile << ": restored run's journal is not bit-identical";
}

TEST(RecoveryPropertyTest, GridSurvivesSeededCrashes) {
  expect_recovery_invariant("grid-4x16", 0xA11CE);
}

TEST(RecoveryPropertyTest, LossyGridSurvivesSeededCrashes) {
  expect_recovery_invariant("lossy-grid", 0xB0B);
}

TEST(RecoveryPropertyTest, ChurnMidRepairSurvivesSeededCrashes) {
  expect_recovery_invariant("churn-mid-repair", 0xCA11);
}

TEST(RecoveryTest, RestoreRunReexecutesToReferenceAndContinues) {
  const std::string dir = scratch_dir("restore-run");
  const RecoveryOptions opts = compressed_options("grid-4x16", dir);
  Manifest manifest;
  manifest.scenario = opts.scenario;
  manifest.config = opts.config;
  manifest.framework = opts.framework;
  manifest.framework.durability.dir = dir;
  write_manifest(dir, manifest);

  // First build: run into the repair window, then die without flushing —
  // the un-synced pending tail is lost, exactly like a kill -9.
  {
    auto first = restore_run(dir);
    EXPECT_FALSE(first->recovered);
    EXPECT_EQ(first->reference_lsn, 0u);
    first->sim.run_until(SimTime::seconds(250));
    first->framework->durability_plane()->abandon();
  }

  // Restore by hand and drive the clock: catchup must byte-verify without
  // a divergence throw and leave the run live past the reference.
  auto run = restore_run(dir);
  EXPECT_TRUE(run->recovered);
  EXPECT_GT(run->reference_lsn, 0u);
  EXPECT_LE(run->reference_horizon, SimTime::seconds(250));
  run->run_to_reference();
  EXPECT_EQ(run->sim.now(), run->reference_horizon);
  run->sim.run_until(SimTime::seconds(300));  // continues past the reference
}

// ---- fleet: worker-count independence ------------------------------------

std::vector<std::uint8_t> run_durable_fleet(std::size_t sim_threads,
                                            const std::string& dir) {
  sim::Simulator sim;
  FleetOptions opt;
  opt.scenario = "fleet-4x16";
  opt.tenants = 4;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults("fleet-4x16");
  opt.config.quiescent_end = SimTime::seconds(40);
  opt.config.normal_rate_hz = 2.5;
  opt.config.fleet.phase_shift = SimTime::seconds(30);
  opt.config.fleet.active_duration = SimTime::seconds(40);
  opt.framework.monitoring_qos = true;
  opt.framework.gauge_costs.report_period = SimTime::millis(250);
  opt.framework.check_period = SimTime::seconds(1);
  opt.manager.coalesce_window = SimTime::seconds(1);
  opt.sim_threads = sim_threads;
  opt.durability.dir = scratch_dir(dir);
  auto fleet = FrameworkBuilder::build_fleet(sim, opt);
  fleet->start();
  fleet->run_until(SimTime::seconds(180));
  fleet.reset();  // closes the shared plane cleanly
  return durability::read_file(opt.durability.dir + "/" +
                               durability::kJournalFile);
}

TEST(FleetDurabilityTest, JournalBytesIdenticalAcrossSweepThreads) {
  // The barrier sweep dispatches shards in parallel on the coordinator's
  // workers; repairs journal into per-shard staging, so two workers
  // dispatching four tenants in whatever order must leave the same bytes.
  const auto serial = run_durable_fleet(1, "fleet-t1");
  const auto parallel = run_durable_fleet(2, "fleet-t2");
  ASSERT_GT(serial.size(), durability::kJournalHeaderSize);
  EXPECT_EQ(serial, parallel)
      << "shared journal bytes depend on sweep worker count — the staged "
         "dispatch contract is broken";
}

TEST(FleetDurabilityTest, JournalBytesIdenticalAcrossSimThreads) {
  // Sharded kernel: workers journal into per-shard staging sinks, drained
  // at window barriers in (time, shard, emission) order. The bytes that
  // reach the shared plane must be independent of how many workers ran the
  // windows — this is the durability half of the determinism contract.
  const auto one = run_durable_fleet(1, "fleet-s1");
  const auto four = run_durable_fleet(4, "fleet-s4");
  ASSERT_GT(one.size(), durability::kJournalHeaderSize);
  EXPECT_EQ(one, four)
      << "shared journal bytes depend on simulation-thread count — the "
         "staged-drain merge order is broken";
}

}  // namespace
}  // namespace arcadia::core
