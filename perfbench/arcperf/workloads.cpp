#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "acme/adl.hpp"
#include "core/fleet.hpp"
#include "core/framework_builder.hpp"
#include "core/recovery.hpp"
#include "fault/fault_plane.hpp"
#include "model/types.hpp"
#include "repair/style_ops.hpp"
#include "runtime/translator.hpp"
#include "sim/scenario_registry.hpp"
#include "util/annotations.hpp"

namespace arcperf {

namespace {

using namespace arcadia;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: independent per-deployment seeds from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}
void fnv_str(std::uint64_t& h, const std::string& s) { fnv(h, s.data(), s.size()); }
void fnv_f64(std::uint64_t& h, double x) { fnv(h, &x, sizeof(x)); }
void fnv_u64(std::uint64_t& h, std::uint64_t x) { fnv(h, &x, sizeof(x)); }

/// Client-side latency recorder, chained in front of whatever on_response
/// hook the framework's probes installed. Must outlive the app it hooks.
/// It stores no latency list: it counts latencies into bins, hashes them in
/// arrival order and keeps only the samples of the bins a pass asks for, so
/// the harness adds next to nothing to the process's peak RSS.
struct Recorder {
  double bound_s = 2.0;
  const std::vector<std::size_t>* keep_bins = nullptr;
  std::vector<std::uint64_t> counts = std::vector<std::uint64_t>(kSampleBins, 0);
  std::vector<std::int64_t> kept;
  std::uint64_t completed = 0;
  std::uint64_t late = 0;
  std::uint64_t digest = kFnvOffset;

  void install(sim::GridApp& app, const Knobs& knobs, double bound) {
    bound_s = bound;
    keep_bins = &knobs.keep_bins;
    auto prev = std::move(app.on_response);
    app.on_response = [this, prev = std::move(prev)](const sim::Request& r) {
      const std::int64_t us = r.latency().as_micros();
      const std::size_t bin = sample_bin(static_cast<std::uint64_t>(us));
      ++counts[bin];
      ++completed;
      fnv_u64(digest, static_cast<std::uint64_t>(us));
      if (r.latency().as_seconds() > bound_s) ++late;
      for (std::size_t b : *keep_bins) {
        if (b == bin) kept.push_back(us);
      }
      if (prev) prev(r);
    };
  }
};

/// The model<->runtime correspondence the experiment runner checks at a
/// quiescent horizon; returns the first mismatch, or "" when they agree.
std::string consistency_issue(core::Framework& fw, const sim::GridApp& app) {
  const model::System& system = fw.system();
  const repair::StyleConventions conv = fw.config().conventions;
  for (sim::ClientIdx c = 0;
       c < static_cast<sim::ClientIdx>(app.client_count()); ++c) {
    const std::string& client = app.client_name(c);
    const sim::GroupIdx g = app.client_group(c);
    const std::string runtime = g == sim::kNoGroup ? "" : app.group_name(g);
    if (repair::group_of_client(system, client, conv) != runtime) {
      return "client " + client + " attachment differs from the runtime";
    }
  }
  for (sim::GroupIdx g = 0; g < static_cast<sim::GroupIdx>(app.group_count());
       ++g) {
    const std::string& group = app.group_name(g);
    if (!system.has_component(group)) return "group " + group + " missing";
    const std::int64_t replicas =
        system.component(group)
            .property_or(model::cs::kPropReplication, model::PropertyValue(0))
            .as_int();
    if (replicas != static_cast<std::int64_t>(app.active_servers(g).size())) {
      return "group " + group + " replicationCount differs from the runtime";
    }
  }
  return "";
}

/// Folds one finished deployment (solo framework or fleet tenant) into the
/// pass: requests, repairs, correctness, fingerprint and layer counters.
void collect_deployment(core::Framework& fw, sim::Testbed& tb,
                        const Recorder& rec, const std::string& label,
                        PassResult& out) {
  sim::GridApp& app = *tb.app;
  for (std::size_t b = 0; b < kSampleBins; ++b) {
    out.latency_counts[b] += rec.counts[b];
  }
  out.latency_kept.insert(out.latency_kept.end(), rec.kept.begin(),
                          rec.kept.end());
  fnv_u64(out.latency_digest, rec.digest);
  out.requests.issued += app.total_issued();
  out.requests.completed += rec.completed;
  out.requests.late += rec.late;
  if (rec.completed != app.total_completed()) {
    out.failures.push_back(label + ": recorder saw " +
                           std::to_string(rec.completed) +
                           " responses, app completed " +
                           std::to_string(app.total_completed()));
  }

  repair::RepairEngine& engine = fw.engine();
  for (const auto& [start, end] : engine.repair_windows()) {
    out.repair_durations.push_back((end - start).as_seconds());
  }
  const repair::RepairStats& rs = engine.stats();
  out.repairs_committed += rs.committed;
  out.repairs_aborted += rs.aborted;

  std::uint64_t& h = out.fingerprint;
  for (const repair::RepairRecord& r : engine.records()) {
    fnv_str(h, r.strategy);
    fnv_str(h, r.element);
    fnv_f64(h, r.started.as_seconds());
    fnv_f64(h, r.completed.as_seconds());
    fnv_u64(h, r.committed ? 1 : 0);
  }
  fnv_str(h, acme::print_system(fw.system()));

  auto& L = out.layer;
  const events::BusStats& pb = fw.probe_bus().stats();
  const events::BusStats& gb = fw.gauge_bus().stats();
  L["events.probe_bus.delivered"] += pb.delivered;
  L["events.gauge_bus.published"] += gb.published;
  L["events.gauge_bus.delivered"] += gb.delivered;
  L["events.dropped_no_match"] += pb.dropped_no_match + gb.dropped_no_match;
  const monitor::GaugeManagerStats& gs = fw.gauges().stats();
  L["monitor.gauge_reports"] += gs.reports;
  L["monitor.redeploys"] += gs.redeploys;
  L["monitor.redeploy_batches"] += gs.redeploy_batches;
  L["monitor.suspects_marked"] += gs.suspects_marked;
  L["remos.queries"] += fw.remos().stats().queries;
  L["remos.cold_queries"] += fw.remos().stats().cold_queries;
  L["core.check_wall_s"] += fw.manager().stats().check_wall_s;
  const auto& cs = fw.manager().checker().check_stats();
  L["repair.check.evaluations"] += cs.evaluations;
  L["repair.check.cache_hits"] += cs.cache_hits;
  L["repair.committed"] += rs.committed;
  L["repair.aborted"] += rs.aborted;
  L["repair.plan_steps_executed"] += rs.plan_steps_executed;
  L["repair.plan_steps_merged"] += rs.plan_steps_merged;
  L["repair.ops_retried"] += rs.ops_retried;
  L["repair.ops_timed_out"] += rs.ops_timed_out;
  L["runtime.ops"] += fw.environment().stats().ops;
  if (fault::FaultPlane* fp = fw.fault_plane()) {
    const fault::FaultPlaneStats& f = fp->stats();
    L["fault.reports_lost"] += f.reports_dropped;
    L["fault.reports_duplicated"] += f.reports_duplicated;
    L["fault.reports_delayed"] += f.reports_delayed;
    L["fault.ops_failed"] += f.ops_transient + f.ops_permanent;
  }
  const sim::FlowNetworkStats& ns = tb.net->stats();
  L["sim.net.reallocations"] += ns.reallocations;
  L["sim.net.waterfill_rounds"] += ns.waterfill_rounds;
}

/// Model<->runtime lockstep is assessable only at a plan boundary (as in
/// run_experiment). Past the horizon a deployment runs on in kDrainStep
/// increments, untimed and after every metric was read, until its engine
/// is idle; one still busy after kDrainSteps counts as failed.
constexpr SimTime kDrainStep = SimTime::millis(250);
constexpr int kDrainSteps = 240;

/// Checks the deployment if it is at a plan boundary; returns whether it
/// was checked. A mismatch is recorded as a failure.
bool check_if_quiescent(core::Framework& fw, const sim::GridApp& app,
                        const std::string& label, PassResult& out,
                        bool& ok) {
  if (fw.engine().busy()) return false;
  ++out.cases_checked;
  const std::string issue = consistency_issue(fw, app);
  if (!issue.empty()) {
    out.failures.push_back(label + ": " + issue);
    ok = false;
  }
  return true;
}

/// Drains one solo deployment to a plan boundary and checks it.
bool drain_and_check(sim::Simulator& sim, core::Framework& fw,
                     const sim::GridApp& app, const std::string& label,
                     PassResult& out) {
  bool ok = true;
  SimTime t = sim.now();
  for (int i = 0; !check_if_quiescent(fw, app, label, out, ok); ++i) {
    if (i == kDrainSteps) {
      out.failures.push_back(label + ": no plan boundary within the drain");
      return false;
    }
    t = t + kDrainStep;
    sim.run_until(t);
  }
  return ok;
}

void collect_sim(const sim::Simulator& s, PassResult& out) {
  out.layer["sim.events"] += s.executed();
  out.layer["sim.pool_growths"] += s.pool_growths();
  out.layer["sim.queue_growths"] += s.queue_growths();
}

void collect_plane(durability::DurabilityPlane& plane, PassResult& out) {
  out.layer["durability.journal_bytes"] += plane.journal_bytes();
  out.layer["durability.records"] += plane.records_written();
  out.layer["durability.plane_wall_s"] += plane.wall_s();
}

/// Times every Translator::apply of a solo framework as a "runtime" span.
class TimedTranslator : public repair::Translator {
 public:
  TimedTranslator(std::unique_ptr<repair::Translator> inner, Tracer& tracer,
                  int case_id)
      : inner_(std::move(inner)), tracer_(tracer), case_id_(case_id) {}

  SimTime apply(const std::vector<model::OpRecord>& records) override {
    Tracer::Scope span(tracer_, "Translator::apply", "runtime", case_id_);
    return inner_->apply(records);
  }
  SimTime estimate(const std::vector<model::OpRecord>& records) const override {
    return inner_->estimate(records);
  }

 private:
  std::unique_ptr<repair::Translator> inner_;
  Tracer& tracer_;
  int case_id_;
};

core::FrameworkConfig framework_config(const sim::ScenarioConfig& sc,
                                       const Knobs& k) {
  core::FrameworkConfig fw;
  // The scenario's fault profile rides into the framework, as the
  // experiment runner does it.
  if (sc.fault.enabled) fw.fault = sc.fault;
  fw.remos_prequery = k.remos_prequery;
  fw.verify = k.verify;
  return fw;
}

/// One solo deployment: build the scenario, build and start its framework,
/// run it to the horizon, read its results, drain it to a plan boundary and
/// check it. paper-sweep's cases and lossy-journal's plain side.
void run_solo(const std::string& scenario, const sim::ScenarioConfig& config,
              int id, const Knobs& knobs, Tracer& tracer, PassResult& out) {
  struct Deployment {
    Recorder recorder;  // first: it must outlive the app it hooks
    sim::Simulator sim;
    sim::Testbed testbed;
    std::unique_ptr<core::Framework> framework;
  };
  const std::string label = scenario + "#" + std::to_string(id);
  ++out.cases;
  auto d = std::make_unique<Deployment>();
  try {
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "sim::build_scenario", "sim", id);
      d->testbed = sim::build_scenario(d->sim, scenario, config);
    }
    const double scenario_s = since(t0);
    d->recorder.install(*d->testbed.app, knobs,
                        config.thresholds.max_latency.as_seconds());
    core::FrameworkBuilder builder(d->sim, d->testbed);
    builder.with_config(framework_config(config, knobs));
    if (tracer.enabled()) {
      builder.with_translator(
          [&tracer, id](rt::SimEnvironmentManager& env,
                        const core::FrameworkConfig& cfg)
              -> std::unique_ptr<repair::Translator> {
            return std::make_unique<TimedTranslator>(
                std::make_unique<rt::SimTranslator>(env, cfg.conventions),
                tracer, id);
          });
    }
    const auto t1 = Clock::now();
    {
      Tracer::Scope span(tracer, "FrameworkBuilder::build", "core", id);
      d->framework = builder.build();
    }
    const auto t2 = Clock::now();
    {
      Tracer::Scope span(tracer, "Framework::start", "core", id);
      d->framework->start();
    }
    d->testbed.start();
    out.case_setup_s.push_back(since(t0));
    out.setup_s += out.case_setup_s.back();
    out.scenario_s += scenario_s;
    out.build_s += std::chrono::duration<double>(t2 - t1).count();
    out.start_s += since(t2);
    if (!knobs.setup_only) {
      const auto t3 = Clock::now();
      {
        Tracer::Scope span(tracer, "Simulator::run_until", "unattributed", id);
        d->sim.run_until(config.horizon);
      }
      out.case_run_s.push_back(since(t3));
      out.run_s += out.case_run_s.back();
      out.deployment_sim_s +=
          deployment_sim_seconds(1, config.horizon.as_seconds());
      collect_deployment(*d->framework, d->testbed, d->recorder, label, out);
      collect_sim(d->sim, out);
      tracer.credit("core", d->framework->manager().stats().check_wall_s);
      if (drain_and_check(d->sim, *d->framework, *d->testbed.app, label,
                          out)) {
        ++out.cases_ok;
      }
    } else {
      ++out.cases_ok;
    }
  } catch (const std::exception& e) {
    out.failures.push_back(label + ": " + e.what());
  }
  Tracer::Scope span(tracer, "teardown", "core", id);
  d.reset();
}

// ---------------------------------------------------------------- solo ----

/// paper-sweep: the paper's single deployments, one after another.
class PaperSweep : public Workload {
 public:
  static constexpr int kSeedsPerScenario = 10;

  explicit PaperSweep(std::uint64_t seed) {
    const char* names[] = {"paper-fig6",   "paper-fig6-bidir",
                           "flash-crowd",  "server-churn",
                           "churn-mid-repair", "flaky-ops"};
    std::uint64_t salt = 0;
    for (const char* name : names) {
      for (int k = 0; k < kSeedsPerScenario; ++k) {
        Case c{name, sim::scenario_defaults(name)};
        c.config.seed = mix(seed, salt++);
        c.config.fault.seed = mix(seed, salt++);
        cases_.push_back(std::move(c));
      }
    }
  }

  PassResult pass(const Knobs& knobs, Tracer& tracer) override {
    PassResult out;
    Tracer::Scope pass_span(tracer, "pass", "bench", 0);
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      run_solo(cases_[i].scenario, cases_[i].config, static_cast<int>(i) + 1,
               knobs, tracer, out);
    }
    return out;
  }

  double expected_deployment_sim_s() const override {
    double s = 0.0;
    for (const Case& c : cases_) s += c.config.horizon.as_seconds();
    return s;
  }

 private:
  struct Case {
    std::string scenario;
    sim::ScenarioConfig config;
  };
  std::vector<Case> cases_;
};

// --------------------------------------------------------------- fleets ----

/// fleet-4x16x8: fleets of 8 fleet-4x16 tenants under the control-plane
/// config of bench_fleet_scaling, one fleet per seed.
class FleetWorkload : public Workload {
 public:
  static constexpr const char* kScenario = "fleet-4x16";
  static constexpr int kTenants = 8;
  static constexpr double kHorizonS = 1200.0;
  /// Fleets per pass. The p999 latency of one fleet spreads ~16% (IQR over
  /// median) from seed to seed; pooled over four it spreads ~8%.
  static constexpr int kFleets = 4;

  explicit FleetWorkload(std::uint64_t seed) {
    for (int k = 0; k < kFleets; ++k) seeds_.push_back(mix(seed, k));
  }

  bool fleet() const override { return true; }

  double expected_deployment_sim_s() const override {
    return static_cast<double>(seeds_.size()) * kTenants * kHorizonS;
  }

  static core::FleetOptions options(const Knobs& k, std::uint64_t seed) {
    core::FleetOptions opt;
    opt.scenario = kScenario;
    opt.tenants = kTenants;
    opt.use_scenario_defaults = false;
    opt.config = sim::scenario_defaults(kScenario);
    opt.config.seed = seed;
    opt.config.horizon = SimTime::seconds(kHorizonS);
    // Always-on Figure 7 schedule compressed into the horizon, chatty
    // gauges and a 1 s sweep: the regime the sharded kernel exists for.
    opt.config.quiescent_end = SimTime::seconds(10);
    opt.config.stress_start = SimTime::seconds(kHorizonS * 0.3);
    opt.config.stress_end = SimTime::seconds(kHorizonS * 0.8);
    opt.config.fleet.phase_shift = SimTime::seconds(2);
    opt.config.fleet.active_duration = SimTime::zero();
    opt.framework.monitoring_qos = true;
    opt.framework.gauge_costs.report_period = SimTime::millis(250);
    opt.framework.check_period = SimTime::seconds(1);
    opt.framework.remos_prequery = k.remos_prequery;
    opt.framework.verify = k.verify;
    opt.manager.coalesce_window = SimTime::seconds(1);
    opt.manager.sweep_threads = 1;
    opt.coordinated = true;
    opt.sim_threads = k.sim_threads;
    return opt;
  }

  PassResult pass(const Knobs& knobs, Tracer& tracer) override {
    PassResult out;
    Tracer::Scope pass_span(tracer, "pass", "bench", 0);
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      run_fleet(seeds_[i], static_cast<int>(i) + 1, knobs, tracer, out);
    }
    return out;
  }

 private:
  struct Deployment {
    std::vector<std::unique_ptr<Recorder>> recorders;  // outlive the fleet
    sim::Simulator sim;
    std::unique_ptr<core::Fleet> fleet;
  };

  void run_fleet(std::uint64_t seed, int id, const Knobs& knobs,
                 Tracer& tracer, PassResult& out) const {
    out.cases += kTenants;
    const core::FleetOptions opt = options(knobs, seed);
    auto d = std::make_unique<Deployment>();
    try {
      const auto t0 = Clock::now();
      {
        Tracer::Scope span(tracer, "FrameworkBuilder::build_fleet", "core",
                           id);
        d->fleet = core::FrameworkBuilder::build_fleet(d->sim, opt);
      }
      const auto t1 = Clock::now();
      d->recorders.resize(d->fleet->tenant_count());
      for (std::size_t t = 0; t < d->fleet->tenant_count(); ++t) {
        core::FleetTenant& tenant = d->fleet->tenant(t);
        util::SerialLane in_lane(tenant.lane());
        d->recorders[t] = std::make_unique<Recorder>();
        d->recorders[t]->install(
            *tenant.testbed.app, knobs,
            opt.config.thresholds.max_latency.as_seconds());
      }
      {
        Tracer::Scope span(tracer, "Fleet::start", "core", id);
        d->fleet->start();
      }
      out.case_setup_s.push_back(since(t0));
      out.setup_s += out.case_setup_s.back();
      out.build_s += std::chrono::duration<double>(t1 - t0).count();
      out.start_s += since(t1);
      if (!knobs.setup_only) {
        const SimTime horizon = SimTime::seconds(kHorizonS);
        const auto t2 = Clock::now();
        {
          Tracer::Scope span(tracer, "Fleet::run_until", "unattributed", id);
          d->fleet->run_until(horizon);
        }
        out.case_run_s.push_back(since(t2));
        out.run_s += out.case_run_s.back();
        out.deployment_sim_s +=
            deployment_sim_seconds(d->fleet->tenant_count(), kHorizonS);
        collect(*d, out, tracer);
        drain_and_check(*d, horizon, out);
      } else {
        out.cases_ok += kTenants;
      }
    } catch (const std::exception& e) {
      out.failures.push_back(std::string(kScenario) + "#" +
                             std::to_string(id) + ": " + e.what());
    }
    Tracer::Scope span(tracer, "teardown", "core", id);
    d.reset();
  }

 public:
  double probe_scenario_s() override {
    const auto t0 = Clock::now();
    for (std::uint64_t seed : seeds_) {
      const core::FleetOptions opt = options(Knobs{}, seed);
      for (int k = 0; k < kTenants; ++k) {
        sim::ScenarioConfig cfg = opt.config;
        cfg.fleet.tenants = kTenants;
        cfg.fleet.tenant_index = k;
        sim::Simulator scratch;
        sim::Testbed tb = sim::build_scenario(scratch, opt.scenario, cfg);
      }
    }
    return since(t0);
  }

 private:
  /// Fleet form of drain_and_check: every tenant is checked at the first
  /// step boundary where its engine is idle.
  void drain_and_check(Deployment& d, SimTime horizon, PassResult& out) const {
    core::Fleet& fleet = *d.fleet;
    std::vector<bool> done(fleet.tenant_count(), false);
    std::size_t left = done.size();
    SimTime t = horizon;
    for (int i = 0;; ++i) {
      for (std::size_t k = 0; k < done.size(); ++k) {
        if (done[k]) continue;
        core::FleetTenant& tenant = fleet.tenant(k);
        util::SerialLane in_lane(tenant.lane());
        bool ok = true;
        if (check_if_quiescent(*tenant.framework, *tenant.testbed.app,
                               label(tenant), out, ok)) {
          done[k] = true;
          --left;
          if (ok) ++out.cases_ok;
        }
      }
      if (left == 0) return;
      if (i == kDrainSteps) break;
      t = t + kDrainStep;
      fleet.run_until(t);
    }
    for (std::size_t k = 0; k < done.size(); ++k) {
      if (!done[k]) {
        out.failures.push_back(label(fleet.tenant(k)) +
                               ": no plan boundary within the drain");
      }
    }
  }

  static std::string label(const core::FleetTenant& tenant) {
    return std::string(kScenario) + "/" + tenant.name;
  }

  void collect(Deployment& d, PassResult& out, Tracer& tracer) const {
    core::Fleet& fleet = *d.fleet;
    for (std::size_t t = 0; t < fleet.tenant_count(); ++t) {
      core::FleetTenant& tenant = fleet.tenant(t);
      util::SerialLane in_lane(tenant.lane());
      collect_deployment(*tenant.framework, tenant.testbed, *d.recorders[t],
                         label(tenant), out);
    }
    collect_sim(d.sim, out);
    auto& L = out.layer;
    if (sim::SimCoordinator* coord = fleet.coordinator()) {
      for (std::size_t i = 0; i < coord->shard_count(); ++i) {
        collect_sim(coord->shard(i).sim(), out);
      }
      const sim::SimCoordinatorStats cs = coord->stats();
      L["sim.coord.rounds"] += cs.rounds;
      L["sim.coord.shard_events"] += cs.shard_events;
      L["sim.coord.mail_delivered"] += cs.mail_delivered;
    }
    if (core::FleetManager* fm = fleet.manager()) {
      const core::FleetStats& fs = fm->stats();
      L["core.fleet.sweep_wall_s"] += fs.sweep_wall_s;
      L["core.fleet.shard_sweeps"] += fs.shard_sweeps;
      L["core.fleet.shard_skips"] += fs.shard_skips;
      for (std::size_t s = 0; s < fm->shard_count(); ++s) {
        const core::FleetShardStats& ss = fm->shard_stats(s);
        L["core.fleet.reports_enqueued"] += ss.reports_enqueued;
        L["core.fleet.reports_coalesced"] += ss.reports_coalesced;
      }
      tracer.credit("core", fs.sweep_wall_s);
    }
  }

  std::vector<std::uint64_t> seeds_;
};

// -------------------------------------------------------- lossy-journal ----

/// lossy-journal: lossy-grid deployments built through write_manifest /
/// restore_run with the durability plane on, abandoned (kill -9 semantics)
/// at a seeded point in the second half, restored with byte-verifying
/// catchup and run on to the horizon.
class LossyJournal : public Workload {
 public:
  static constexpr const char* kScenario = "lossy-grid";
  static constexpr int kSeeds = 16;

  LossyJournal(std::uint64_t seed, std::string journal_dir)
      : dir_(std::move(journal_dir)) {
    for (int k = 0; k < kSeeds; ++k) {
      Case c;
      c.config = sim::scenario_defaults(kScenario);
      c.config.seed = mix(seed, 3 * k);
      c.config.fault.seed = mix(seed, 3 * k + 1);
      const double h = c.config.horizon.as_seconds();
      const double u = static_cast<double>(mix(seed, 3 * k + 2) >> 11) /
                       static_cast<double>(1ULL << 53);
      // Whole milliseconds keep the crash instant exact in sim-time.
      c.crash_at = SimTime::millis(std::floor((0.5 + 0.45 * u) * h * 1e3));
      cases_.push_back(c);
    }
  }

  bool durable() const override { return true; }

  double expected_deployment_sim_s() const override {
    double s = 0.0;
    for (const Case& c : cases_) s += c.config.horizon.as_seconds();
    return s;
  }

  PassResult pass(const Knobs& knobs, Tracer& tracer) override {
    PassResult out;
    Tracer::Scope pass_span(tracer, "pass", "bench", 0);
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const int id = static_cast<int>(i) + 1;
      if (!knobs.durable) {
        run_solo(kScenario, cases_[i].config, id, knobs, tracer, out);
        continue;
      }
      ++out.cases;
      try {
        run_durable(cases_[i], id, knobs, tracer, out);
      } catch (const std::exception& e) {
        out.failures.push_back(label(id) + ": " + e.what());
      }
    }
    std::filesystem::remove_all(dir_);
    return out;
  }

  double probe_scenario_s() override {
    const auto t0 = Clock::now();
    for (const Case& c : cases_) {
      sim::Simulator scratch;
      sim::Testbed tb = sim::build_scenario(scratch, kScenario, c.config);
    }
    return since(t0);
  }

 private:
  struct Case {
    sim::ScenarioConfig config;
    SimTime crash_at;
  };

  /// Recorder first: it must outlive the run whose app it hooks.
  struct Restored {
    Recorder recorder;
    std::unique_ptr<core::RestoredRun> run;
  };

  std::string case_dir(int id) const {
    return dir_ + "/case-" + std::to_string(id);
  }

  static std::string label(int id) {
    return std::string(kScenario) + "#" + std::to_string(id);
  }

  void run_durable(const Case& c, int id, const Knobs& knobs, Tracer& tracer,
                   PassResult& out) {
    const std::string dir = case_dir(id);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const double bound = c.config.thresholds.max_latency.as_seconds();

    core::Manifest manifest;
    manifest.scenario = kScenario;
    manifest.config = c.config;
    manifest.framework = framework_config(c.config, knobs);
    manifest.framework.durability.dir = dir;
    // One snapshot at start and one mid-run, instead of one every 120 sim-s
    // (two fsyncs and a model encoding each). Every op batch is committed
    // and synced as it happens, so the journal a crash leaves holds every
    // repair up to the crash, and the restore byte-verifies all of it.
    manifest.framework.durability.snapshot_period = c.config.horizon * 0.5;
    manifest.framework.durability.sync_interval = SimTime::zero();
    {
      // Writing the run's description precedes the first build call, so it
      // is not set-up time.
      Tracer::Scope span(tracer, "core::write_manifest", "core", id);
      core::write_manifest(dir, manifest);
    }

    const SimTime horizon = c.config.horizon;
    auto first = std::make_unique<Restored>();
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "core::restore_run", "core", id);
      first->run = core::restore_run(dir);
    }
    // restore_run builds and starts in one call: all of it is start time.
    out.case_setup_s.push_back(since(t0));
    out.setup_s += out.case_setup_s.back();
    out.start_s += out.case_setup_s.back();
    first->recorder.install(*first->run->testbed.app, knobs, bound);
    if (knobs.setup_only) {
      ++out.cases_ok;
      Tracer::Scope span(tracer, "teardown", "core", id);
      first.reset();
      return;
    }

    std::unique_ptr<Restored> last;
    double run_s = 0.0;
    bool verified = true;
    const auto t1 = Clock::now();
    if (knobs.crash) {
      {
        Tracer::Scope span(tracer, "Simulator::run_until", "unattributed", id);
        first->run->sim.run_until(c.crash_at);
      }
      run_s += since(t1);
      durability::DurabilityPlane* plane =
          first->run->framework->durability_plane();
      tracer.credit("durability", plane->wall_s());
      tracer.credit("core",
                    first->run->framework->manager().stats().check_wall_s);
      plane->abandon();  // kill -9: no flush, no final sync
      {
        Tracer::Scope span(tracer, "teardown", "core", id);
        first.reset();
      }

      last = std::make_unique<Restored>();
      const auto t2 = Clock::now();
      {
        Tracer::Scope span(tracer, "core::restore_run", "core", id);
        last->run = core::restore_run(dir);
      }
      // The restored run re-executes from t=0, so this recorder sees the
      // whole timeline exactly once.
      last->recorder.install(*last->run->testbed.app, knobs, bound);
      const auto t3 = Clock::now();
      {
        Tracer::Scope span(tracer, "RestoredRun::run_to_reference",
                           "unattributed", id);
        last->run->run_to_reference();
      }
      {
        // From the journal's last record on to the crash point: sim-time
        // the first run already covered, so this too is re-execution.
        Tracer::Scope span(tracer, "Simulator::run_until", "unattributed", id);
        last->run->sim.run_until(c.crash_at);
      }
      out.restore_open_s += std::chrono::duration<double>(t3 - t2).count();
      out.restore_reexec_s += since(t3);
      ++out.restores;
      if (!last->run->recovered) {
        out.failures.push_back(label(id) +
                               ": restore found no journal to verify");
        verified = false;
      }
    } else {
      last = std::move(first);
    }
    const auto t4 = Clock::now();
    {
      Tracer::Scope span(tracer, "Simulator::run_until", "unattributed", id);
      last->run->sim.run_until(horizon);
    }
    run_s += since(t4);
    out.run_s += run_s;
    out.case_run_s.push_back(run_s);
    if (finish(*last, label(id), horizon, tracer, out) && verified) {
      ++out.cases_ok;
    }
    Tracer::Scope span(tracer, "teardown", "core", id);
    last.reset();
  }

  /// Reads the finished run's results; returns whether it passed the
  /// quiescent model<->runtime check.
  bool finish(Restored& r, const std::string& label, SimTime horizon,
              Tracer& tracer, PassResult& out) {
    core::Framework& fw = *r.run->framework;
    out.deployment_sim_s += deployment_sim_seconds(1, horizon.as_seconds());
    collect_deployment(fw, r.run->testbed, r.recorder, label, out);
    collect_sim(r.run->sim, out);
    if (durability::DurabilityPlane* plane = fw.durability_plane()) {
      collect_plane(*plane, out);
      tracer.credit("durability", plane->wall_s());
    }
    tracer.credit("core", fw.manager().stats().check_wall_s);
    return drain_and_check(r.run->sim, fw, *r.run->testbed.app, label, out);
  }

  std::string dir_;
  std::vector<Case> cases_;
};

}  // namespace

std::uint64_t PassResult::sim_digest() const {
  std::uint64_t h = fingerprint;
  fnv_u64(h, latency_digest);
  for (double r : repair_durations) fnv_f64(h, r);
  fnv_u64(h, requests.issued);
  fnv_u64(h, requests.completed);
  fnv_u64(h, requests.late);
  fnv_u64(h, repairs_committed);
  fnv_u64(h, repairs_aborted);
  fnv_u64(h, cases_ok);
  fnv_f64(h, deployment_sim_s);
  return h;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-sweep", "fleet-4x16x8", "lossy-journal"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& journal_dir) {
  if (name == "paper-sweep") return std::make_unique<PaperSweep>(seed);
  if (name == "fleet-4x16x8") return std::make_unique<FleetWorkload>(seed);
  if (name == "lossy-journal") {
    return std::make_unique<LossyJournal>(seed, journal_dir);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace arcperf
