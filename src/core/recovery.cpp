#include "core/recovery.hpp"

#include <algorithm>
#include <utility>

#include "durability/codec.hpp"
#include "durability/io.hpp"
#include "durability/model_codec.hpp"
#include "sim/scenario_registry.hpp"
#include "util/log.hpp"

// The manifest's field lists. Every sub-config is listed, so a knob that
// first matters after a crash resumes with the value the run was built
// with; only the code-valued FrameworkParts stay out.
namespace arcadia::durability {

template <>
struct EnumRange<repair::ViolationPolicy> {
  static constexpr auto first = repair::ViolationPolicy::FirstReported,
                        last = repair::ViolationPolicy::WorstFirst;
};
template <>
struct EnumRange<core::VerifyMode> {
  static constexpr auto first = core::VerifyMode::Off,
                        last = core::VerifyMode::Error;
};

void fields(auto& io, fault::MonitoringFaults& m) {
  auto& [report_loss, report_dup, report_delay, delay_min, delay_max,
         channel_disconnect, disconnect_min, disconnect_max] = m;
  io(report_loss, report_dup, report_delay, delay_min, delay_max,
     channel_disconnect, disconnect_min, disconnect_max);
}

void fields(auto& io, fault::RepairFaults& r) {
  auto& [op_transient, op_permanent, permanent_from, permanent_until,
         op_stall, stall_min, stall_max] = r;
  io(op_transient, op_permanent, permanent_from, permanent_until, op_stall,
     stall_min, stall_max);
}

void fields(auto& io, fault::FleetFaults& f) {
  auto& [tenant_crash, crash_min, crash_max, crash_duration] = f;
  io(tenant_crash, crash_min, crash_max, crash_duration);
}

void fields(auto& io, fault::FaultProfile& f) {
  auto& [enabled, seed, monitoring, repair, fleet] = f;
  io(enabled, seed, monitoring, repair, fleet);
}

void fields(auto& io, sim::Thresholds& t) {
  auto& [max_latency, max_server_load, min_bandwidth, min_utilization] = t;
  io(max_latency, max_server_load, min_bandwidth, min_utilization);
}

void fields(auto& io, sim::GridScaleConfig& g) {
  auto& [groups, servers_per_group, clients, clients_per_pod, spares] = g;
  io(groups, servers_per_group, clients, clients_per_pod, spares);
}

void fields(auto& io, sim::FlashCrowdConfig& f) {
  auto& [start, end, rate_multiplier] = f;
  io(start, end, rate_multiplier);
}

void fields(auto& io, sim::ChurnConfig& c) {
  auto& [first_outage, period, outage, outages] = c;
  io(first_outage, period, outage, outages);
}

void fields(auto& io, sim::FleetConfig& f) {
  auto& [tenants, tenant_index, phase_shift, active_duration] = f;
  io(tenants, tenant_index, phase_shift, active_duration);
}

void fields(auto& io, sim::ScenarioConfig& c) {
  auto& [seed, horizon, quiescent_end, stress_start, stress_end,
         normal_rate_hz, stress_rate_hz, request_size, normal_response_mean,
         stress_response_size, normal_response_sigma, service_base,
         service_per_kb, service_sigma, link_capacity, comp_sg1_phase1_mbps,
         comp_sg1_stress_mbps, comp_sg1_final_mbps, comp_sg2_phase1_mbps,
         comp_sg2_stress_mbps, comp_sg2_final_mbps, comp_bidirectional,
         thresholds, fault, grid, flash, churn, fleet] = c;
  io(seed, horizon, quiescent_end, stress_start, stress_end, normal_rate_hz,
     stress_rate_hz, request_size, normal_response_mean, stress_response_size,
     normal_response_sigma, service_base, service_per_kb, service_sigma,
     link_capacity, comp_sg1_phase1_mbps, comp_sg1_stress_mbps,
     comp_sg1_final_mbps, comp_sg2_phase1_mbps, comp_sg2_stress_mbps,
     comp_sg2_final_mbps, comp_bidirectional, thresholds, fault, grid, flash,
     churn, fleet);
}

void fields(auto& io, task::PerformanceProfile& p) {
  auto& [max_latency, max_server_load, min_bandwidth, min_utilization,
         min_replicas] = p;
  io(max_latency, max_server_load, min_bandwidth, min_utilization,
     min_replicas);
}

void fields(auto& io, monitor::GaugeManagerConfig& g) {
  auto& [report_period, create_cost, destroy_cost, relocate_cost, caching,
         watchdog_period, stale_after] = g;
  io(report_period, create_cost, destroy_cost, relocate_cost, caching,
     watchdog_period, stale_after);
}

void fields(auto& io, remos::RemosConfig& r) {
  auto& [first_query_cost, cached_query_cost, cache_ttl] = r;
  io(first_query_cost, cached_query_cost, cache_ttl);
}

void fields(auto& io, repair::RetryPolicy& r) {
  auto& [max_attempts, backoff_base, backoff_multiplier, backoff_max, jitter,
         jitter_seed, op_timeout] = r;
  io(max_attempts, backoff_base, backoff_multiplier, backoff_max, jitter,
     jitter_seed, op_timeout);
}

void fields(auto& io, rt::EnvironmentCosts& e) {
  auto& [rmi_call, activate_extra] = e;
  io(rmi_call, activate_extra);
}

void fields(auto& io, repair::StyleConventions& c) {
  auto& [request_port, provide_port, client_role, server_role, bound_to_prop,
         dynamic_prop] = c;
  io(request_port, provide_port, client_role, server_role, bound_to_prop,
     dynamic_prop);
}

void fields(auto& io, Options& o) {
  auto& [dir, snapshot_period, retention, gauge_batch_cap, sync_interval] = o;
  io(dir, snapshot_period, retention, gauge_batch_cap, sync_interval);
}

void fields(auto& io, core::FrameworkConfig& f) {
  auto& [profile, use_script, script_source, policy, policy_name, damping,
         settle_time, abort_cooldown, load_improvement, plan_pipeline,
         plan_preemption, plan_preempt_factor, gauge_costs, remos_prequery,
         remos_config, monitoring_qos, bus_base_delay, probe_period,
         gauge_window, check_period, first_check, fleet_managed, fault, retry,
         env_costs, conventions, verify, durability] = f;
  io(profile, use_script, script_source, policy, policy_name, damping,
     settle_time, abort_cooldown, load_improvement, plan_pipeline,
     plan_preemption, plan_preempt_factor, gauge_costs, remos_prequery,
     remos_config, monitoring_qos, bus_base_delay, probe_period, gauge_window,
     check_period, first_check, fleet_managed, fault, retry, env_costs,
     conventions, verify, durability);
}

void fields(auto& io, core::Manifest& m) {
  auto& [scenario, config, framework] = m;
  io(scenario, config, framework);
}

}  // namespace arcadia::durability

namespace arcadia::core {

namespace {

constexpr char kManifestMagic[4] = {'A', 'R', 'C', 'M'};
constexpr std::uint32_t kManifestVersion = 2;

using durability::DurabilityError;

}  // namespace

void write_manifest(const std::string& dir, const Manifest& manifest) {
  durability::write_file_atomic(
      dir + "/" + kManifestFile,
      durability::encode_container(kManifestMagic, kManifestVersion,
                                   manifest));
}

Manifest read_manifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestFile;
  if (!durability::file_exists(path)) {
    throw DurabilityError("no manifest at " + path +
                          " — not a durable run directory");
  }
  return durability::decode_container<Manifest>(
      durability::read_file(path), kManifestMagic, kManifestVersion,
      "manifest at " + path);
}

std::unique_ptr<RestoredRun> restore_run(const std::string& dir) {
  auto run = std::make_unique<RestoredRun>();
  run->manifest = read_manifest(dir);
  run->manifest.framework.durability.dir = dir;  // the manifest moved with it
  run->testbed =
      sim::build_scenario(run->sim, run->manifest.scenario,
                          run->manifest.config);
  run->framework = std::make_unique<Framework>(run->sim, run->testbed,
                                               run->manifest.framework);
  durability::DurabilityPlane* plane = run->framework->durability_plane();
  if (plane == nullptr) {
    throw DurabilityError(
        "restore: manifest has durability disabled — nothing to recover");
  }
  run->reference_lsn = plane->reference_last_lsn();
  run->reference_horizon = plane->reference_horizon();
  run->recovered = run->reference_lsn > 0;
  run->warning = plane->reference_warning();
  if (run->recovered) {
    ARC_INFO << "recovery: re-executing " << run->manifest.scenario
             << " to LSN " << run->reference_lsn << " (t="
             << run->reference_horizon.as_seconds()
             << "s) with catchup verification";
  }
  // start() journals snapshot-0 — already under catchup verification, so a
  // config/code change that altered even the initial model fails loudly
  // here, not minutes into the replay.
  run->framework->start();
  run->testbed.start();
  return run;
}

std::unique_ptr<RestoredRun> Framework::restore(const std::string& dir) {
  return restore_run(dir);
}

RecoveryResult run_with_recovery(const RecoveryOptions& options) {
  if (options.dir.empty()) {
    throw DurabilityError("run_with_recovery: durable dir required");
  }
  durability::ensure_dir(options.dir);

  Manifest manifest{options.scenario, options.config, options.framework};
  // Mirror the experiment runner: the scenario's fault profile rides into
  // the framework unless the caller set one explicitly.
  if (!manifest.framework.fault.enabled && manifest.config.fault.enabled) {
    manifest.framework.fault = manifest.config.fault;
  }
  manifest.framework.durability.dir = options.dir;
  write_manifest(options.dir, manifest);

  const SimTime horizon = options.horizon > SimTime::zero()
                              ? options.horizon
                              : manifest.config.horizon;

  std::vector<fault::CrashPoint> points = options.crashes.points;
  std::sort(points.begin(), points.end(),
            [](const fault::CrashPoint& a, const fault::CrashPoint& b) {
              return a.at < b.at;
            });

  RecoveryResult result;
  std::size_t next = 0;
  for (;;) {
    std::unique_ptr<RestoredRun> run = restore_run(options.dir);
    ++result.segments;
    if (run->recovered && !run->warning.empty()) {
      result.warnings.push_back(run->warning);
    }
    durability::DurabilityPlane* plane = run->framework->durability_plane();

    bool crashed = false;
    if (next < points.size() && points[next].at < horizon) {
      const fault::CrashPoint point = points[next];
      ++next;
      if (point.mid_snapshot) {
        // Arm at the crash time; the *next* periodic snapshot dies between
        // its tmp-file write and the rename — the torn-snapshot seam.
        RestoredRun* raw = run.get();
        plane->set_snapshot_crash_hook([raw] {
          throw fault::CrashSignal{raw->sim.now(), "mid-snapshot crash"};
        });
        run->sim.schedule_in(point.at, [plane] {
          plane->crash_next_snapshot();
        });
        try {
          run->sim.run_until(horizon);
        } catch (const fault::CrashSignal& signal) {
          ARC_WARN << "crash injected mid-snapshot at t="
                   << signal.at.as_seconds() << "s";
          crashed = true;
        }
      } else {
        run->sim.run_until(point.at);
        ARC_WARN << "crash injected at t=" << point.at.as_seconds() << "s";
        crashed = true;
      }
    } else {
      run->sim.run_until(horizon);
    }

    if (crashed) {
      ++result.crashes_survived;
      // kill -9 semantics: no gauge flush, no final sync, no close — the
      // journal ends wherever the last synced frame left it.
      plane->abandon();
      continue;  // run destroyed; next iteration restores from disk
    }

    result.final_lsn = plane->last_lsn();
    result.journal_bytes = plane->journal_bytes();
    result.repairs_committed = run->framework->engine().stats().committed;
    const std::vector<std::uint8_t> model =
        durability::encode_system(run->framework->system());
    result.model_digest = durability::fnv1a(model.data(), model.size());
    return result;  // clean destruction closes the journal
  }
}

}  // namespace arcadia::core
