// CI crash-matrix smoke driver: runs one profile twice — once clean, once
// killed at seeded sim-times (including between a snapshot's tmp write and
// its rename) and restarted from durable state — and checks the durability
// invariants the journal exists to guarantee: the restored run survives
// every crash, re-converges, and ends bit-identical to the uncrashed run
// (same model digest, same repair count, byte-identical journal). On
// failure it records the crash seed (failing_crash_seed.txt) so the exact
// cell can be replayed; the durable dirs are left behind for arcreplay.
//
// Usage: crash_smoke <lossy-grid|flaky-ops|grid-4x16> [crash-seed]
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/recovery.hpp"
#include "durability/io.hpp"
#include "durability/journal.hpp"
#include "fault/crash_plan.hpp"

using namespace arcadia;

namespace {

int fail(const std::string& profile, std::uint64_t seed,
         const std::string& why) {
  std::cerr << "CRASH SMOKE FAILED [" << profile << "]: " << why << "\n"
            << "failing crash seed: 0x" << std::hex << seed << std::dec
            << "\n";
  std::ofstream out("failing_crash_seed.txt");
  out << profile << " 0x" << std::hex << seed << std::dec << "  # " << why
      << "\n";
  return 1;
}

void wipe_dir(const std::string& dir) {
  durability::ensure_dir(dir);
  for (const std::string& name : durability::list_dir(dir)) {
    durability::remove_file(dir + "/" + name);
  }
}

core::RecoveryOptions profile_options(const std::string& profile,
                                      const std::string& dir) {
  core::ExperimentOptions base = core::options_for(profile);
  // Same CI-budget horizon compressions as fault_smoke, so the stress and
  // churn windows that force repairs still land inside the run.
  if (profile == "lossy-grid") {
    base.scenario.horizon = SimTime::seconds(500);
    base.scenario.stress_start = SimTime::seconds(150);
    base.scenario.stress_end = SimTime::seconds(330);
  } else if (profile == "flaky-ops") {
    base.scenario.horizon = SimTime::seconds(800);
  } else {
    // grid-4x16 keeps the fig-6 default stress at 600 s; pull it inside
    // the compressed horizon so the baseline actually repairs.
    base.scenario.horizon = SimTime::seconds(500);
    base.scenario.stress_start = SimTime::seconds(150);
    base.scenario.stress_end = SimTime::seconds(330);
  }
  core::RecoveryOptions opts;
  opts.dir = dir;
  opts.scenario = profile;
  opts.config = base.scenario;
  opts.framework = base.framework;
  opts.framework.durability.snapshot_period = SimTime::seconds(90);
  // Non-default Table-1 operator and Remos query costs: they first matter
  // when a repair runs, so the restore after each crash must take them
  // from the manifest for the repairs that follow to match the clean run.
  opts.framework.env_costs.rmi_call = SimTime::millis(300);
  opts.framework.env_costs.activate_extra = SimTime::millis(1500);
  opts.framework.remos_config.first_query_cost = SimTime::seconds(30);
  opts.framework.remos_config.cached_query_cost = SimTime::millis(250);
  opts.framework.remos_config.cache_ttl = SimTime::seconds(20);
  return opts;
}

/// Committed repairs in `journal` strictly before `from` and strictly
/// after `until` (compensation batches are not repairs).
std::pair<int, int> repairs_outside(const std::vector<std::uint8_t>& journal,
                                    SimTime from, SimTime until) {
  std::pair<int, int> counts{0, 0};
  for (const auto& r : durability::read_journal_bytes(journal).records) {
    if (r.type != durability::RecordType::OpBatch || r.compensation) continue;
    if (r.at < from) ++counts.first;
    if (r.at > until) ++counts.second;
  }
  return counts;
}

int run_profile(const std::string& profile, std::uint64_t seed) {
  const std::string clean_dir = "crash_smoke-" + profile + "-clean.durable";
  const std::string crash_dir = "crash_smoke-" + profile + ".durable";
  wipe_dir(clean_dir);
  wipe_dir(crash_dir);

  // The uncrashed baseline: same scenario, same seeds, empty crash plan.
  core::RecoveryOptions clean_opts = profile_options(profile, clean_dir);
  const core::RecoveryResult clean = core::run_with_recovery(clean_opts);

  // The crashed run: three seeded kills inside the active window, every
  // second one targeting the snapshot rename gap.
  core::RecoveryOptions crash_opts = profile_options(profile, crash_dir);
  const SimTime horizon = crash_opts.config.horizon;
  crash_opts.crashes = fault::CrashPlan::seeded(
      seed, 3, SimTime::seconds(100), horizon - SimTime::seconds(60),
      /*mid_snapshot_every=*/2);
  const core::RecoveryResult crashed = core::run_with_recovery(crash_opts);

  if (crashed.crashes_survived == 0) {
    return fail(profile, seed, "no crash point fired before the horizon");
  }
  if (crashed.segments != crashed.crashes_survived + 1) {
    return fail(profile, seed,
                "segment count " + std::to_string(crashed.segments) +
                    " != crashes+1 (" +
                    std::to_string(crashed.crashes_survived + 1) + ")");
  }
  if (clean.repairs_committed == 0) {
    return fail(profile, seed, "baseline run committed no repairs — the "
                               "profile is not stressing anything");
  }
  if (crashed.model_digest != clean.model_digest) {
    return fail(profile, seed, "restored run's final model diverged from "
                               "the uncrashed run");
  }
  if (crashed.repairs_committed != clean.repairs_committed) {
    return fail(profile, seed,
                "repair count diverged: crashed " +
                    std::to_string(crashed.repairs_committed) + " vs clean " +
                    std::to_string(clean.repairs_committed));
  }
  // The replay-with-catchup discipline makes the surviving journal
  // byte-identical to the uncrashed one — the strongest oracle we have.
  const std::vector<std::uint8_t> clean_journal =
      durability::read_file(clean_dir + "/" + durability::kJournalFile);
  const std::vector<std::uint8_t> crash_journal =
      durability::read_file(crash_dir + "/" + durability::kJournalFile);
  if (clean_journal != crash_journal) {
    return fail(profile, seed,
                "journals differ: clean " +
                    std::to_string(clean_journal.size()) + " bytes, crashed " +
                    std::to_string(crash_journal.size()) + " bytes");
  }
  // Where the repairs fall relative to the crashes: the ones after the
  // last crash ran live in a restored segment, with the manifest's costs.
  // A mid-snapshot point dies at the next snapshot, up to a period later.
  SimTime last_crash = SimTime::zero();
  for (const fault::CrashPoint& point : crash_opts.crashes.points) {
    last_crash = std::max(
        last_crash,
        point.at + (point.mid_snapshot
                        ? crash_opts.framework.durability.snapshot_period
                        : SimTime::zero()));
  }
  const auto [before, after] = repairs_outside(
      clean_journal, crash_opts.crashes.points.front().at, last_crash);

  std::cout << "OK " << profile << ": survived " << crashed.crashes_survived
            << " crashes across " << crashed.segments << " segments, "
            << crashed.repairs_committed << " repairs committed (" << before
            << " before the first crash, " << after
            << " after the last), journal "
            << crash_journal.size() << " bytes bit-identical to clean run";
  for (const std::string& warning : crashed.warnings) {
    if (!warning.empty()) {
      std::cout << "\n  recovered past torn tail: " << warning;
    }
  }
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: crash_smoke <lossy-grid|flaky-ops|grid-4x16> "
                 "[crash-seed]\n";
    return 2;
  }
  const std::string profile = argv[1];
  std::uint64_t seed = 0xC4A5ECAFEULL;
  if (argc > 2) seed = std::strtoull(argv[2], nullptr, 0);

  if (profile != "lossy-grid" && profile != "flaky-ops" &&
      profile != "grid-4x16") {
    std::cerr << "unknown crash profile: " << profile << "\n";
    return 2;
  }
  try {
    return run_profile(profile, seed);
  } catch (const std::exception& e) {
    return fail(profile, seed, std::string("exception: ") + e.what());
  }
}
