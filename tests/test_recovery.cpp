// Crash recovery end to end: the manifest codec and its refusal of bad
// enums and v1 files, restore_run's refusal modes, the recovery property
// over three stressed profiles (a run killed at seeded sim-times —
// including between a snapshot's tmp write and its rename — restores,
// re-converges, and ends bit-identical to an uncrashed run), customised
// Table-1 and Remos costs surviving a crash before the first repair, and
// the fleet's sweep-thread independence (the shared journal's bytes must
// not depend on detect-phase parallelism).
//
// These are simulation-heavy tests (each recovery segment re-executes from
// t = 0); horizons are compressed the same way examples/fault_smoke.cpp
// compresses them so the stress windows still force repairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/framework_builder.hpp"
#include "core/recovery.hpp"
#include "durability/codec.hpp"
#include "durability/io.hpp"
#include "durability/journal.hpp"
#include "durability/model_codec.hpp"
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
  // One non-default value in every sub-struct of both configs.
  in.config.horizon = SimTime::seconds(456);
  in.config.request_size = DataSize::bytes(700);
  in.config.link_capacity = Bandwidth::mbps(12.5);
  in.config.thresholds.min_bandwidth = Bandwidth::kbps(25);
  in.config.fault.monitoring.report_loss = 0.07;
  in.config.fault.repair.stall_max = SimTime::seconds(41);
  in.config.fault.fleet.tenant_crash = 0.3;
  in.config.grid.clients = -3;
  in.config.flash.rate_multiplier = 4.5;
  in.config.churn.outages = 7;
  in.config.fleet.active_duration = SimTime::seconds(33);
  in.framework.profile.min_replicas = 5;
  in.framework.policy = repair::ViolationPolicy::WorstFirst;
  in.framework.check_period = SimTime::millis(750);
  in.framework.plan_preemption = true;
  in.framework.gauge_costs.caching = true;
  in.framework.remos_config.cached_query_cost = SimTime::millis(35);
  in.framework.fault.repair.op_transient = 0.2;
  in.framework.retry.max_attempts = 6;
  in.framework.env_costs.rmi_call = SimTime::millis(210);
  in.framework.env_costs.activate_extra = SimTime::millis(650);
  in.framework.conventions.bound_to_prop = "assignedTo";
  in.framework.verify = VerifyMode::Error;
  in.framework.durability.dir = "elsewhere";  // rebound on restore
  in.framework.durability.snapshot_period = SimTime::seconds(77);
  in.framework.durability.retention = 9;
  in.framework.durability.sync_interval = SimTime::seconds(11);
  write_manifest(dir, in);

  const Manifest out = read_manifest(dir);
  EXPECT_EQ(out.scenario, "lossy-grid");
  EXPECT_EQ(out.config.horizon, SimTime::seconds(456));
  EXPECT_DOUBLE_EQ(out.config.request_size.as_bytes(), 700.0);
  EXPECT_DOUBLE_EQ(out.config.link_capacity.as_mbps(), 12.5);
  EXPECT_DOUBLE_EQ(out.config.thresholds.min_bandwidth.as_kbps(), 25.0);
  EXPECT_DOUBLE_EQ(out.config.fault.monitoring.report_loss, 0.07);
  EXPECT_EQ(out.config.fault.repair.stall_max, SimTime::seconds(41));
  EXPECT_DOUBLE_EQ(out.config.fault.fleet.tenant_crash, 0.3);
  EXPECT_EQ(out.config.grid.clients, -3);
  EXPECT_DOUBLE_EQ(out.config.flash.rate_multiplier, 4.5);
  EXPECT_EQ(out.config.churn.outages, 7);
  EXPECT_EQ(out.config.fleet.active_duration, SimTime::seconds(33));
  EXPECT_EQ(out.framework.profile.min_replicas, 5);
  EXPECT_EQ(out.framework.policy, repair::ViolationPolicy::WorstFirst);
  EXPECT_EQ(out.framework.check_period, SimTime::millis(750));
  EXPECT_TRUE(out.framework.plan_preemption);
  EXPECT_TRUE(out.framework.gauge_costs.caching);
  EXPECT_EQ(out.framework.remos_config.cached_query_cost, SimTime::millis(35));
  EXPECT_DOUBLE_EQ(out.framework.fault.repair.op_transient, 0.2);
  EXPECT_EQ(out.framework.retry.max_attempts, 6);
  EXPECT_EQ(out.framework.env_costs.rmi_call, SimTime::millis(210));
  EXPECT_EQ(out.framework.env_costs.activate_extra, SimTime::millis(650));
  EXPECT_EQ(out.framework.conventions.bound_to_prop, "assignedTo");
  EXPECT_EQ(out.framework.verify, VerifyMode::Error);
  EXPECT_EQ(out.framework.durability.dir, "elsewhere");
  EXPECT_EQ(out.framework.durability.snapshot_period, SimTime::seconds(77));
  EXPECT_EQ(out.framework.durability.retention, 9u);
  EXPECT_EQ(out.framework.durability.sync_interval, SimTime::seconds(11));

  // Every member survives: re-encoding what was read gives the same file.
  const std::vector<std::uint8_t> first =
      durability::read_file(dir + "/" + kManifestFile);
  write_manifest(dir, out);
  EXPECT_EQ(durability::read_file(dir + "/" + kManifestFile), first);
}

/// Rewrite the manifest's CRC tail after a deliberate edit, so only the
/// decoder's own checks stand between the edit and a restored run.
void rewrite_with_crc(const std::string& dir,
                      std::vector<std::uint8_t> bytes) {
  durability::Encoder crc;
  crc.u32(durability::crc32(bytes.data(), bytes.size() - 4));
  std::copy(crc.bytes().begin(), crc.bytes().end(), bytes.end() - 4);
  durability::write_file_atomic(dir + "/" + kManifestFile, bytes);
}

TEST(ManifestTest, OutOfRangeEnumIsRefused) {
  const std::string dir = scratch_dir("bad-enum");
  Manifest m;
  m.framework.verify = VerifyMode::Off;
  write_manifest(dir, m);
  const auto off = durability::read_file(dir + "/" + kManifestFile);
  m.framework.verify = VerifyMode::Error;
  write_manifest(dir, m);
  std::vector<std::uint8_t> bytes =
      durability::read_file(dir + "/" + kManifestFile);
  ASSERT_EQ(bytes.size(), off.size());
  // The verify byte is the only one before the CRC tail that differs.
  std::size_t at = 0;
  while (at < bytes.size() - 4 && bytes[at] == off[at]) ++at;
  ASSERT_LT(at, bytes.size() - 4);
  bytes[at] = 9;
  rewrite_with_crc(dir, bytes);
  EXPECT_THROW(read_manifest(dir), durability::DurabilityError);
}

TEST(ManifestTest, VersionOneManifestIsRefused) {
  const std::string dir = scratch_dir("v1");
  write_manifest(dir, Manifest{});
  std::vector<std::uint8_t> bytes =
      durability::read_file(dir + "/" + kManifestFile);
  bytes[4] = 1;  // the u32 version after the magic
  rewrite_with_crc(dir, bytes);
  try {
    read_manifest(dir);
    ADD_FAILURE() << "a v1 manifest (no env_costs/remos_config) was read";
  } catch (const durability::DurabilityError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported manifest"),
              std::string::npos)
        << e.what();
  }
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

/// The run `opts` describes, built straight from the options with no
/// manifest in between and never crashed; its journal stays in opts.dir.
RecoveryResult run_direct(RecoveryOptions opts) {
  opts.framework.durability.dir = opts.dir;
  if (!opts.framework.fault.enabled && opts.config.fault.enabled) {
    opts.framework.fault = opts.config.fault;
  }
  sim::Simulator sim;
  sim::Testbed testbed = sim::build_scenario(sim, opts.scenario, opts.config);
  Framework framework(sim, testbed, opts.framework);
  framework.start();
  testbed.start();
  sim.run_until(opts.config.horizon);
  RecoveryResult result;
  result.repairs_committed = framework.engine().stats().committed;
  result.model_digest =
      durability::fnv1a(durability::encode_system(framework.system()));
  return result;
}

// Table-1 operator costs and Remos query costs first matter when a repair
// runs. A crash before the first repair must restore them from the
// manifest; a restore that fell back to the defaults would byte-verify the
// whole pre-crash prefix and then carry on with different costs.
TEST(RecoveryTest, CustomCostsSurviveACrashBeforeTheFirstRepair) {
  const SimTime crash_at = SimTime::seconds(140);
  auto customised = [](const std::string& dir) {
    RecoveryOptions opts = compressed_options("lossy-grid", dir);
    opts.framework.env_costs.rmi_call = SimTime::millis(900);
    opts.framework.env_costs.activate_extra = SimTime::seconds(4);
    opts.framework.remos_config.first_query_cost = SimTime::seconds(20);
    opts.framework.remos_config.cached_query_cost = SimTime::millis(700);
    return opts;
  };
  run_direct(compressed_options("lossy-grid", scratch_dir("costs-default")));
  const RecoveryResult clean = run_direct(customised(scratch_dir("costs-clean")));
  RecoveryOptions crash_opts = customised(scratch_dir("costs-crash"));
  crash_opts.crashes.points.push_back({crash_at, false});
  const RecoveryResult crashed = run_with_recovery(crash_opts);

  const auto journal = [](const std::string& name) {
    return durability::read_file("test_recovery-" + name + "/" +
                                 durability::kJournalFile);
  };
  const auto clean_journal = journal("costs-clean");
  // The crash lands before the first committed repair...
  SimTime first_repair = SimTime::infinity();
  for (const durability::JournalRecord& r :
       durability::read_journal_bytes(clean_journal).records) {
    if (r.type == durability::RecordType::OpBatch) {
      first_repair = std::min(first_repair, r.at);
    }
  }
  ASSERT_GT(clean.repairs_committed, 0u);
  EXPECT_LT(crash_at, first_repair);
  // ...the customised costs change the run...
  EXPECT_NE(journal("costs-default"), clean_journal);
  // ...and the restored run uses them, not the defaults.
  EXPECT_EQ(crashed.crashes_survived, 1);
  EXPECT_EQ(crashed.model_digest, clean.model_digest);
  EXPECT_EQ(crashed.repairs_committed, clean.repairs_committed);
  EXPECT_EQ(journal("costs-crash"), clean_journal);
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
