#include "core/framework.hpp"

#include "acme/checker.hpp"
#include "core/verify.hpp"
#include "durability/model_codec.hpp"
#include "fault/fault_plane.hpp"
#include "fault/faulty_bus.hpp"
#include "fault/faulty_translator.hpp"
#include "model/types.hpp"
#include "monitor/gauge.hpp"
#include "util/log.hpp"

namespace arcadia::core {

Framework::Framework(sim::Simulator& sim, sim::Testbed& testbed,
                     FrameworkConfig config)
    : Framework(sim, testbed, std::move(config), FrameworkParts{}) {}

Framework::Framework(sim::Simulator& sim, sim::Testbed& testbed,
                     FrameworkConfig config, FrameworkParts parts)
    : sim_(sim),
      testbed_(testbed),
      config_(std::move(config)),
      parts_(std::move(parts)),
      script_(acme::parse_script(config_.script_source.empty()
                                     ? repair::extended_script()
                                     : config_.script_source)) {
  // Static-check the repair script against the style before trusting it
  // with the live model (misspelled properties, bad arities, ...).
  {
    static const model::Style style = model::client_server_style();
    acme::ScriptChecker checker = acme::make_client_server_checker(style);
    for (const acme::CheckIssue& problem : checker.check_script(script_)) {
      ARC_WARN << "repair script: " << problem.to_string();
    }
  }

  sim::GridApp& app = *testbed_.app;

  remos_ = parts_.remos
               ? parts_.remos(sim_, testbed_, config_)
               : std::make_unique<remos::RemosService>(sim_, *testbed_.net,
                                                       config_.remos_config);

  // Probe bus: probes and gauges are effectively colocated per machine, so
  // delivery is a small fixed cost. Gauge bus: reports cross the shared
  // network to the manager machine, so congestion delays them — unless the
  // QoS option prioritizes monitoring traffic (Section 5.3).
  probe_bus_ = parts_.probe_bus
                   ? parts_.probe_bus(sim_, testbed_, config_)
                   : std::make_unique<events::SimEventBus>(
                         sim_, events::fixed_delay(SimTime::millis(5)));
  gauge_bus_ = parts_.gauge_bus
                   ? parts_.gauge_bus(sim_, testbed_, config_)
                   : std::make_unique<events::SimEventBus>(
                         sim_, events::network_delay(*testbed_.net,
                                                     config_.bus_base_delay,
                                                     config_.monitoring_qos));

  // Fault plane first, so the decorators below can reference it. Disabled
  // profiles construct nothing — the wiring is bit-identical to pre-fault
  // builds.
  if (config_.fault.enabled) {
    fault_plane_ = std::make_unique<fault::FaultPlane>(sim_, config_.fault);
    lossy_probe_bus_ =
        std::make_unique<fault::FaultyBus>(sim_, *probe_bus_, *fault_plane_);
    lossy_gauge_bus_ =
        std::make_unique<fault::FaultyBus>(sim_, *gauge_bus_, *fault_plane_);
  }

  if (parts_.model) {
    system_ = parts_.model(testbed_, config_);
  } else {
    rt::ModelBuildOptions model_opts;
    model_opts.conventions = config_.conventions;
    model_opts.max_latency = config_.profile.max_latency;
    system_ = rt::build_grid_model(testbed_, model_opts);
  }
  // Task-layer objectives are applied on top of whatever the factory
  // built, so a substituted model cannot silently run un-profiled.
  task::apply_profile(*system_, config_.profile);

  env_ = std::make_unique<rt::SimEnvironmentManager>(app, *testbed_.topo,
                                                     *remos_, config_.env_costs);
  queries_ = std::make_unique<rt::SimRuntimeQueries>(app, *env_, *remos_);
  translator_ = parts_.translator
                    ? parts_.translator(*env_, config_)
                    : std::make_unique<rt::SimTranslator>(*env_,
                                                          config_.conventions);

  monitor::GaugeManagerConfig gauge_cfg = config_.gauge_costs;
  gauge_cfg.caching = config_.gauge_caching;
  if (fault_plane_ && gauge_cfg.watchdog_period <= SimTime::zero()) {
    // Faults are on but nobody armed the watchdog: channel disconnects
    // would silently starve the model. Default to one report period.
    gauge_cfg.watchdog_period = SimTime::seconds(5);
  }
  // Gauges publish reports into the lossy bus (when faults are on); their
  // probe subscriptions and lifecycle events are control-path and go
  // through either way.
  gauge_manager_ = std::make_unique<monitor::GaugeManager>(
      sim_, *probe_bus_,
      lossy_gauge_bus_ ? static_cast<events::EventBus&>(*lossy_gauge_bus_)
                       : *gauge_bus_,
      gauge_cfg);
  if (fault_plane_) gauge_manager_->set_fault_plane(fault_plane_.get());

  repair::RepairEngineConfig engine_cfg;
  engine_cfg.policy = config_.policy;
  engine_cfg.policy_name = config_.policy_name;
  engine_cfg.damping = config_.damping;
  engine_cfg.settle_time = config_.settle_time;
  engine_cfg.abort_cooldown = config_.abort_cooldown;
  engine_cfg.use_script = config_.use_script;
  engine_cfg.use_plan = config_.plan_pipeline;
  engine_cfg.preemption = config_.plan_preemption;
  engine_cfg.preempt_factor = config_.plan_preempt_factor;
  engine_cfg.max_server_load = config_.profile.max_server_load;
  engine_cfg.min_bandwidth = config_.profile.min_bandwidth;
  engine_cfg.min_utilization = config_.profile.min_utilization;
  engine_cfg.min_replicas = config_.profile.min_replicas;
  engine_cfg.load_improvement = config_.load_improvement;
  engine_cfg.conventions = config_.conventions;
  engine_cfg.retry = config_.retry;
  repair::Translator* engine_translator = translator_.get();
  if (fault_plane_) {
    flaky_translator_ = std::make_unique<fault::FaultyTranslator>(
        *translator_, *fault_plane_);
    engine_translator = flaky_translator_.get();
  }
  engine_ = std::make_unique<repair::RepairEngine>(
      sim_, *system_, script_, queries_.get(), engine_translator,
      gauge_manager_.get(), engine_cfg);
  // Plan lifecycle notifications share the gauge bus: fleet managers and
  // tools observe repairs in flight without new wiring.
  engine_->set_event_bus(gauge_bus_.get());

  ArchManagerConfig mgr_cfg;
  mgr_cfg.check_period = config_.check_period;
  mgr_cfg.first_check = config_.first_check;
  mgr_cfg.manager_node = testbed_.manager_node;
  mgr_cfg.passive = config_.fleet_managed;
  manager_ = std::make_unique<ArchitectureManager>(sim_, *system_, *gauge_bus_,
                                                   *engine_, mgr_cfg);

  // Task-layer thresholds visible in constraint expressions.
  repair::ConstraintChecker& checker = manager_->checker();
  checker.bind_global("maxServerLoad",
                      acme::EvalValue(config_.profile.max_server_load));
  checker.bind_global(
      "minBandwidth",
      acme::EvalValue(config_.profile.min_bandwidth.as_bps()));
  checker.bind_global("minUtilization",
                      acme::EvalValue(config_.profile.min_utilization));
  checker.bind_global(
      "minReplicas",
      acme::EvalValue(static_cast<double>(config_.profile.min_replicas)));
  checker.instantiate(script_);

  // Durability plane last: every collaborator it journals for exists now.
  // (A fleet disables it per tenant and attaches a staging sink instead.)
  if (config_.durability.enabled()) {
    durability_plane_ =
        std::make_unique<durability::DurabilityPlane>(config_.durability);
    attach_journal_sink(durability_plane_.get(), /*shard=*/0);
  }
}

Framework::~Framework() = default;

void Framework::attach_journal_sink(durability::JournalSink* sink,
                                    std::uint32_t shard) {
  durability_shard_ = shard;
  engine_->set_journal_sink(sink, shard);
  manager_->set_journal_sink(sink, shard);
}

durability::ShardSnapshot Framework::capture_shard_snapshot() const {
  durability::ShardSnapshot shard;
  shard.shard = durability_shard_;
  shard.name = testbed_.scenario.empty() ? std::string("solo")
                                         : testbed_.scenario;
  shard.model = durability::encode_system(*system_);
  shard.model_digest = durability::fnv1a(shard.model.data(),
                                         shard.model.size());
  for (const monitor::GaugeManager::ChannelState& ch :
       gauge_manager_->snapshot_state()) {
    durability::GaugeState g;
    g.id = ch.id;
    g.live = ch.live;
    g.suspect = ch.suspect;
    g.last_report = ch.last_report;
    shard.gauges.push_back(std::move(g));
  }
  if (fault_plane_) shard.rng_streams = fault_plane_->rng_states();
  shard.repairs_committed = engine_->stats().committed;
  return shard;
}

void Framework::warm_remos() {
  if (!config_.remos_prequery) return;
  sim::GridApp& app = *testbed_.app;
  std::vector<std::pair<sim::NodeId, sim::NodeId>> pairs;
  for (sim::ClientIdx c = 0; c < static_cast<sim::ClientIdx>(app.client_count());
       ++c) {
    for (sim::GroupIdx g = 0;
         g < static_cast<sim::GroupIdx>(app.group_count()); ++g) {
      pairs.emplace_back(app.group_node(g), app.client_node(c));
    }
    for (sim::ServerIdx s = 0;
         s < static_cast<sim::ServerIdx>(app.server_count()); ++s) {
      pairs.emplace_back(app.server_node(s), app.client_node(c));
    }
  }
  remos_->prequery(pairs);
  ARC_INFO << "remos: pre-queried " << pairs.size() << " pairs";
}

void Framework::deploy_gauges() {
  if (parts_.gauges) {
    parts_.gauges(sim_, testbed_, *gauge_manager_, config_);
    return;
  }
  sim::GridApp& app = *testbed_.app;
  const sim::Topology& topo = *testbed_.topo;
  (void)topo;
  for (sim::ClientIdx c = 0; c < static_cast<sim::ClientIdx>(app.client_count());
       ++c) {
    const std::string client = app.client_name(c);
    gauge_manager_->deploy(monitor::make_latency_gauge(
        sim_, client, app.client_node(c), config_.gauge_window));
    const std::string role_element =
        "Conn_" + client + "." + config_.conventions.client_role;
    gauge_manager_->deploy(monitor::make_bandwidth_gauge(
        sim_, client, role_element, app.client_node(c)));
  }
  for (sim::GroupIdx g = 0; g < static_cast<sim::GroupIdx>(app.group_count());
       ++g) {
    const std::string group = app.group_name(g);
    gauge_manager_->deploy(monitor::make_load_gauge(
        sim_, group, app.queue_node(), config_.gauge_window));
    gauge_manager_->deploy(monitor::make_utilization_gauge(
        sim_, group, app.queue_node(), /*alpha=*/0.1));
  }
}

void Framework::start() {
  if (started_) throw Error("Framework::start called twice");
  started_ = true;
  warm_remos();
  // Probes publish into the lossy bus when faults are on — probe-report
  // loss/delay/duplication is the first monitoring seam.
  events::EventBus& probe_pub = lossy_probe_bus_
                                    ? static_cast<events::EventBus&>(
                                          *lossy_probe_bus_)
                                    : *probe_bus_;
  probes_ = parts_.probes
                ? parts_.probes(sim_, testbed_, *remos_, probe_pub, config_)
                : monitor::make_standard_probes(sim_, *testbed_.app, *remos_,
                                                probe_pub,
                                                config_.probe_period);
  probes_.start_all();
  deploy_gauges();
  manager_->start();
  // Fleet seam: one crash draw per tenant. The crash takes every gauge
  // channel dark for its duration; the watchdog and (in fleet mode) the
  // health state machine do the rest.
  if (fault_plane_) {
    SimTime crash_at, crash_duration;
    if (fault_plane_->draw_tenant_crash(crash_at, crash_duration)) {
      sim_.schedule_in(crash_at, [this, crash_duration] {
        gauge_manager_->crash(crash_duration);
      });
    }
  }
  // Solo durability: snapshot-0 anchors replay (arcreplay rebuilds any LSN
  // from it + the journal), then periodic captures bound recovery work. A
  // fleet arms one task covering all shards instead (core/fleet.cpp).
  if (durability_plane_) {
    durability_plane_->take_snapshot(sim_.now(), {capture_shard_snapshot()});
    const SimTime period = config_.durability.snapshot_period;
    if (period > SimTime::zero()) {
      snapshot_task_ = std::make_unique<sim::PeriodicTask>(
          sim_, sim_.now() + period, period, [this] {
            durability_plane_->take_snapshot(sim_.now(),
                                             {capture_shard_snapshot()});
            return true;
          });
    }
  }

  ARC_INFO << "framework: started (" << gauge_manager_->gauge_count()
           << " gauges deploying, script="
           << (config_.use_script ? "interpreted" : "native") << ")";

  // Semantic verification over the assembled deployment: script effect/flow
  // rules plus the cross-artifact checks (constraints vs gauge feeds,
  // operator costs). Gauges are registered synchronously by deploy_gauges(),
  // so the view is complete even though their creation cost is still
  // in flight.
  if (config_.verify != VerifyMode::Off) {
    std::size_t errors = 0;
    for (const acme::analysis::AnalysisIssue& issue : verify_framework(*this)) {
      if (issue.severity == acme::Severity::Error) ++errors;
      ARC_WARN << "arcverify: " << issue.to_string();
    }
    if (config_.verify == VerifyMode::Error && errors > 0) {
      throw Error("arcverify: deployment failed verification (" +
                  std::to_string(errors) + " error(s); see log)");
    }
  }
}

}  // namespace arcadia::core
