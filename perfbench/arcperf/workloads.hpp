// The benchmark's workloads. Each builds its deployments from the workload
// seed, drives them only through arcadia's public entry points, and returns
// one PassResult per pass: wall times, the sim-time outcome (deterministic
// for a seed) and the per-layer counters read from the modules' stats.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace arcperf {

/// Variations a pass can run under. The defaults are the timed workload;
/// the traced run flips one knob at a time for its A/B probes.
struct Knobs {
  bool setup_only = false;  ///< build and start, then tear down unrun
  bool remos_prequery = true;
  arcadia::core::VerifyMode verify = arcadia::core::VerifyMode::Warn;
  std::size_t sim_threads = 4;  ///< fleets only
  bool durable = true;          ///< lossy-journal: journal through the plane
  bool crash = true;            ///< lossy-journal: abandon and restore
  /// Latency bins (sample_bin of microseconds) whose samples the pass keeps
  /// in PassResult::latency_kept: pass 2 of the exact percentiles.
  std::vector<std::size_t> keep_bins;
};

struct PassResult {
  // ---- wall (host) seconds ----
  double setup_s = 0.0;  ///< first build call .. every start() returned
  std::vector<double> case_setup_s;  ///< setup_s per deployment, in order
  double run_s = 0.0;    ///< run phase, restore excluded
  std::vector<double> case_run_s;  ///< run phase per deployment, in order
  double restore_open_s = 0.0;    ///< restore_run of crashed deployments
  /// Re-execution of the same up to their crash point: run_to_reference()
  /// and on from the journal's last record to the crash.
  double restore_reexec_s = 0.0;
  double scenario_s = 0.0;  ///< sim::build_scenario calls (solo only)
  double build_s = 0.0;     ///< FrameworkBuilder::build / build_fleet
  double start_s = 0.0;     ///< Framework::start / Fleet::start
  std::uint64_t restores = 0;

  // ---- sim-time outcome: bit-identical for a seed ----
  /// Completed requests' latencies are not stored: they are counted into
  /// sample_bin()s of whole microseconds and hashed in arrival order per
  /// deployment. Only the samples of Knobs::keep_bins are kept.
  std::vector<std::uint64_t> latency_counts =
      std::vector<std::uint64_t>(kSampleBins, 0);
  std::vector<std::int64_t> latency_kept;  ///< microseconds, any order
  std::uint64_t latency_digest = kFnvOffset;
  RequestTally requests;
  std::vector<double> repair_durations;  ///< committed repairs, sim seconds
  std::uint64_t repairs_committed = 0;
  std::uint64_t repairs_aborted = 0;
  std::uint64_t cases = 0;     ///< deployments attempted (fleet: tenants)
  std::uint64_t cases_ok = 0;  ///< ran clean and model matches runtime
  std::uint64_t cases_checked = 0;  ///< quiescent at the horizon
  double deployment_sim_s = 0.0;
  /// FNV-1a over every repair (strategy, element, start, end) and every
  /// printed model, deployment by deployment.
  std::uint64_t fingerprint = kFnvOffset;
  std::vector<std::string> failures;

  /// Per-layer counters and program-side wall timers, by metric name.
  std::map<std::string, double> layer;

  /// Hash of everything sim-time above: two passes of one seed must agree.
  std::uint64_t sim_digest() const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual PassResult pass(const Knobs& knobs, Tracer& tracer) = 0;
  /// Deployment-sim-seconds a full pass must account, from the workload's
  /// configs alone (tenants x horizon per deployment built).
  virtual double expected_deployment_sim_s() const = 0;
  virtual bool fleet() const { return false; }
  virtual bool durable() const { return false; }
  /// Wall of sim::build_scenario over the workload's deployment configs,
  /// called on a scratch simulator: fleets and restores build scenarios
  /// internally, so this is how the sim layer's set-up share is seen from
  /// outside. Workloads that call build_scenario themselves time it inline.
  virtual double probe_scenario_s() { return 0.0; }
};

/// Names in the order the benchmark documents them.
const std::vector<std::string>& workload_names();

/// `journal_dir` holds the durable workloads' journals, one subdirectory
/// per deployment, wiped before each deployment and after each pass.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& journal_dir);

}  // namespace arcperf
