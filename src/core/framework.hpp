// The adaptation framework facade: wires the three layers of Figure 1 over
// a built testbed — monitoring (probes -> gauges -> architecture manager),
// the architectural model with its constraints, the repair engine, and the
// translator back down to the environment manager.
#pragma once

#include <memory>

#include "acme/script.hpp"
#include "core/arch_manager.hpp"
#include "durability/plane.hpp"
#include "events/bus.hpp"
#include "fault/profile.hpp"
#include "monitor/gauge_manager.hpp"
#include "monitor/probes.hpp"
#include "remos/remos.hpp"
#include "repair/engine.hpp"
#include "repair/scripts.hpp"
#include "runtime/environment.hpp"
#include "runtime/model_builder.hpp"
#include "runtime/queries.hpp"
#include "runtime/translator.hpp"
#include "sim/scenario.hpp"
#include "task/task.hpp"

namespace arcadia::fault {
class FaultPlane;
class FaultyBus;
class FaultyTranslator;
}  // namespace arcadia::fault

namespace arcadia::core {

struct RestoredRun;  // core/recovery.hpp

/// Startup semantic verification (core/verify.hpp) behavior.
enum class VerifyMode {
  Off,   ///< skip verification entirely
  Warn,  ///< log every issue, never fail (the default)
  Error, ///< log every issue; throw if any has error severity
};

struct FrameworkConfig {
  task::PerformanceProfile profile;

  /// Interpreted script strategies (default) vs native C++ strategies
  /// (resolved through repair::StrategyRegistry).
  bool use_script = true;
  /// Repair-script source; empty selects repair::extended_script().
  std::string script_source;

  repair::ViolationPolicy policy = repair::ViolationPolicy::FirstReported;
  /// Registry name of the violation policy (repair::PolicyRegistry);
  /// overrides the `policy` enum when non-empty.
  std::string policy_name;
  bool damping = true;
  SimTime settle_time = SimTime::seconds(30);
  SimTime abort_cooldown = SimTime::seconds(60);
  double load_improvement = 2.0;

  /// Optimize repair plans and overlap their independent steps. Off = the
  /// same plan unoptimized, one step at a time: the paper's strictly
  /// sequential shape, kept as the measured baseline of
  /// bench_fig11_repair_latency.
  bool plan_pipeline = true;
  /// Let a strictly worse violation abort a plan in flight (compensating
  /// enacted steps) and start its own repair — pair with the
  /// churn-mid-repair scenario.
  bool plan_preemption = false;
  double plan_preempt_factor = 2.0;

  /// Gauge caching/relocation (Section 5.3's proposed speed-up) vs
  /// destroy-and-create.
  bool gauge_caching = false;
  monitor::GaugeManagerConfig gauge_costs;

  /// Pre-query Remos at start-up, as the paper's experiment did.
  bool remos_prequery = true;
  remos::RemosConfig remos_config;

  /// Prioritize monitoring traffic (QoS) instead of sharing the
  /// application's network.
  bool monitoring_qos = false;
  SimTime bus_base_delay = SimTime::millis(50);

  SimTime probe_period = SimTime::seconds(1);
  SimTime gauge_window = SimTime::seconds(30);
  SimTime check_period = SimTime::seconds(5);
  SimTime first_check = SimTime::seconds(15);

  /// Fleet mode: the ArchitectureManager is assembled passive — no gauge
  /// subscription, no periodic check — and a core::FleetManager batches the
  /// reports and drives the sweep across all tenants (see core/fleet.hpp).
  bool fleet_managed = false;

  /// Fault injection (usually copied from ScenarioConfig::fault by the
  /// experiment runner). When enabled, the framework constructs a
  /// FaultPlane, wraps the probe/gauge buses and the translator in their
  /// faulty decorators, arms the gauge-liveness watchdog, and schedules
  /// the tenant-crash draw at start().
  fault::FaultProfile fault;
  /// Retry/backoff + per-op timeouts for runtime steps (repair/retry.hpp);
  /// forwarded to the repair engine's plan executor.
  repair::RetryPolicy retry;

  rt::EnvironmentCosts env_costs;
  repair::StyleConventions conventions;

  /// Run arcverify's semantic checks (script effect/flow analysis +
  /// cross-artifact deployment verification) at the end of start().
  VerifyMode verify = VerifyMode::Warn;

  /// Durability plane (durability/plane.hpp): an empty dir (the default)
  /// disables journaling/snapshots entirely — bit-identical behavior and
  /// zero overhead. With a dir set, the framework owns a DurabilityPlane,
  /// journals every repair commit / plan event / applied gauge delta, and
  /// snapshots periodically; see core/recovery.hpp for crash restore.
  durability::Options durability;
};

/// The framework's pluggable assembly points. A null member selects the
/// default wiring (what the paper's experiment ran); FrameworkBuilder is
/// the ergonomic way to fill these in.
struct FrameworkParts {
  using RemosFactory = std::function<std::unique_ptr<remos::RemosService>(
      sim::Simulator&, sim::Testbed&, const FrameworkConfig&)>;
  using BusFactory = std::function<std::unique_ptr<events::SimEventBus>(
      sim::Simulator&, sim::Testbed&, const FrameworkConfig&)>;
  using ModelFactory = std::function<std::unique_ptr<model::System>(
      const sim::Testbed&, const FrameworkConfig&)>;
  using TranslatorFactory = std::function<std::unique_ptr<repair::Translator>(
      rt::SimEnvironmentManager&, const FrameworkConfig&)>;
  using ProbeFactory = std::function<monitor::ProbeSet(
      sim::Simulator&, sim::Testbed&, remos::RemosService&, events::EventBus&,
      const FrameworkConfig&)>;
  using GaugeDeployer =
      std::function<void(sim::Simulator&, sim::Testbed&, monitor::GaugeManager&,
                         const FrameworkConfig&)>;

  RemosFactory remos;            ///< default: RemosService over testbed.net
  BusFactory probe_bus;          ///< default: fixed 5 ms colocated delivery
  BusFactory gauge_bus;          ///< default: shared-network delay (+QoS knob)
  ModelFactory model;            ///< default: rt::build_grid_model (the task
                                 ///  profile is applied on top either way)
  TranslatorFactory translator;  ///< default: rt::SimTranslator
  ProbeFactory probes;           ///< default: monitor::make_standard_probes
  GaugeDeployer gauges;          ///< default: latency/bw per client, load/util
                                 ///  per group
};

class Framework {
 public:
  Framework(sim::Simulator& sim, sim::Testbed& testbed, FrameworkConfig config);
  /// Assemble with substituted parts (see FrameworkBuilder).
  Framework(sim::Simulator& sim, sim::Testbed& testbed, FrameworkConfig config,
            FrameworkParts parts);
  ~Framework();

  Framework(const Framework&) = delete;
  Framework& operator=(const Framework&) = delete;

  /// Deploy probes and gauges, warm Remos, arm constraint checking.
  void start();

  model::System& system() { return *system_; }
  const acme::Script& script() const { return script_; }
  repair::RepairEngine& engine() { return *engine_; }
  ArchitectureManager& manager() { return *manager_; }
  monitor::GaugeManager& gauges() { return *gauge_manager_; }
  remos::RemosService& remos() { return *remos_; }
  rt::SimEnvironmentManager& environment() { return *env_; }
  repair::Translator& translator() { return *translator_; }
  events::SimEventBus& probe_bus() { return *probe_bus_; }
  events::SimEventBus& gauge_bus() { return *gauge_bus_; }
  const FrameworkConfig& config() const { return config_; }
  /// Null unless config().fault.enabled.
  fault::FaultPlane* fault_plane() { return fault_plane_.get(); }

  /// The journal/snapshot plane this framework owns (config().durability),
  /// or null when durability is off. Fleet tenants own none: they journal
  /// through attach_journal_sink().
  durability::DurabilityPlane* durability_plane() {
    return durability_plane_.get();
  }

  /// Journal into a bare JournalSink: a fleet gives every tenant a
  /// per-shard durability::StagingSink (drained into the shared plane at
  /// window barriers), so tenants never touch the single-writer plane from
  /// pool workers. Every repair commit, plan event, and applied gauge fold
  /// is journaled under `shard`; snapshot capture stays with the Fleet,
  /// which owns the real plane. Call before start().
  void attach_journal_sink(durability::JournalSink* sink, std::uint32_t shard);

  /// Capture this framework's durable state for a snapshot: the full model
  /// encoding + digest, every gauge channel's liveness state, and the fault
  /// plane's RNG stream positions. Health is Healthy here; the fleet's
  /// snapshot task overwrites it from FleetManager::shard_health().
  durability::ShardSnapshot capture_shard_snapshot() const;

  /// Rebuild a started run from a durable directory (manifest + snapshots +
  /// journal): re-executes the deterministic run from t=0, byte-verifying
  /// every re-journaled frame against the crashed journal's valid prefix.
  /// Defined in core/recovery.cpp (see DESIGN.md §8).
  static std::unique_ptr<RestoredRun> restore(const std::string& dir);

 private:
  void deploy_gauges();
  void warm_remos();

  sim::Simulator& sim_;
  sim::Testbed& testbed_;
  FrameworkConfig config_;
  FrameworkParts parts_;

  std::unique_ptr<remos::RemosService> remos_;
  std::unique_ptr<events::SimEventBus> probe_bus_;
  std::unique_ptr<events::SimEventBus> gauge_bus_;
  // Fault plane + decorators (null unless config_.fault.enabled). The
  // wrapped buses carry only *publishes*; subscriptions stay on the inner
  // buses, so accessors above keep returning the real SimEventBus.
  std::unique_ptr<fault::FaultPlane> fault_plane_;
  std::unique_ptr<fault::FaultyBus> lossy_probe_bus_;
  std::unique_ptr<fault::FaultyBus> lossy_gauge_bus_;
  std::unique_ptr<fault::FaultyTranslator> flaky_translator_;
  std::unique_ptr<model::System> system_;
  acme::Script script_;
  std::unique_ptr<rt::SimEnvironmentManager> env_;
  std::unique_ptr<rt::SimRuntimeQueries> queries_;
  std::unique_ptr<repair::Translator> translator_;
  std::unique_ptr<monitor::GaugeManager> gauge_manager_;
  std::unique_ptr<repair::RepairEngine> engine_;
  std::unique_ptr<ArchitectureManager> manager_;
  monitor::ProbeSet probes_;
  // Durability: the owned plane (solo mode, null when config_.durability is
  // empty or a fleet plane was attached) and the active sink (own or shared).
  std::unique_ptr<durability::DurabilityPlane> durability_plane_;
  std::uint32_t durability_shard_ = 0;
  std::unique_ptr<sim::PeriodicTask> snapshot_task_;
  bool started_ = false;
};

}  // namespace arcadia::core
