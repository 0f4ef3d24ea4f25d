#include "repair/engine.hpp"

#include <algorithm>

#include "model/types.hpp"
#include "monitor/topics.hpp"
#include "repair/plan_optimizer.hpp"
#include "repair/registry.hpp"
#include "util/log.hpp"

namespace arcadia::repair {

RepairEngine::RepairEngine(sim::Simulator& sim, model::System& root,
                           const acme::Script& script, RuntimeQueries* queries,
                           Translator* translator,
                           monitor::GaugeManager* gauges,
                           RepairEngineConfig config)
    : sim_(sim),
      root_(root),
      script_(script),
      queries_(queries),
      translator_(translator),
      gauges_(gauges),
      config_(config),
      interpreter_(root, script),
      executor_(sim, translator, gauges) {
  executor_.set_retry_policy(config_.retry);
  OperatorThresholds op_th;
  op_th.min_bandwidth = config_.min_bandwidth;
  op_th.load_improvement = config_.load_improvement;
  register_client_server_ops(interpreter_, root_, queries_,
                             config_.conventions, op_th);
  interpreter_.bind_global("maxServerLoad",
                           acme::EvalValue(config_.max_server_load));
  interpreter_.bind_global("minBandwidth",
                           acme::EvalValue(config_.min_bandwidth.as_bps()));
  interpreter_.bind_global("minUtilization",
                           acme::EvalValue(config_.min_utilization));
  interpreter_.bind_global(
      "minReplicas",
      acme::EvalValue(static_cast<double>(config_.min_replicas)));

  // Seed the native catalog from the registry; add_strategy() entries
  // shadow it per engine.
  for (const std::string& name : StrategyRegistry::instance().names()) {
    native_[name] = StrategyRegistry::instance().at(name);
  }
  chooser_ = PolicyRegistry::instance().at(
      config_.policy_name.empty()
          ? (config_.policy == ViolationPolicy::WorstFirst ? "worst-first"
                                                           : "first-reported")
          : config_.policy_name);
}

void RepairEngine::add_strategy(CxxStrategy strategy) {
  native_[strategy.name] = std::move(strategy);
}

std::vector<std::string> RepairEngine::strategy_names() const {
  std::vector<std::string> out;
  out.reserve(native_.size());
  for (const auto& [name, strategy] : native_) out.push_back(name);
  return out;
}

bool RepairEngine::suppressed(util::Symbol element) const {
  const SimTime* until = settle_until_.find(element);
  return until && sim_.now() < *until;
}

bool RepairEngine::constraint_cooling(util::Symbol constraint_id) const {
  const SimTime* until = cooldown_until_.find(constraint_id);
  return until && sim_.now() < *until;
}

bool RepairEngine::touched_by_active(util::Symbol element) const {
  if (!active_) return false;
  return std::find(active_->touched.begin(), active_->touched.end(),
                   element) != active_->touched.end();
}

bool RepairEngine::handle_violations(const std::vector<Violation>& violations) {
  const bool preemptable =
      busy_ && config_.preemption && active_.has_value();
  if (busy_ && !preemptable) return false;
  std::vector<const Violation*> candidates;
  for (const Violation& v : violations) {
    if (v.constraint->handler.empty()) continue;
    if (config_.damping) {
      // The constraint carries pre-interned symbols: no string hashing on
      // the per-check damping filter.
      if (suppressed(v.constraint->element_sym)) continue;
      if (constraint_cooling(v.constraint->id_sym)) continue;
    }
    // Never preempt a plan on behalf of an element it is itself acting on:
    // the in-flight repair has not had the chance to take effect there.
    if (busy_ && touched_by_active(v.constraint->element_sym)) continue;
    candidates.push_back(&v);
  }
  if (candidates.empty()) return false;
  const std::size_t pick = chooser_(candidates);
  if (pick >= candidates.size()) return false;  // the policy declined
  const Violation& chosen = *candidates[pick];
  if (busy_) {
    // Preemption: only for a strictly worse violation than the one the
    // active plan is repairing. Severities are only comparable when both
    // are positive threshold readings (Violation.observed is 0 for
    // non-threshold constraints, and an idle-group utilization reads 0 —
    // either would let every candidate "win" and defeat the thrash bound).
    if (!active_ || active_->observed <= 0.0 ||
        !(chosen.observed > active_->observed * config_.preempt_factor)) {
      return false;
    }
    preempt_active("PreemptedBy:" + chosen.constraint->id);
  }
  execute(chosen);
  return true;
}

acme::StrategyOutcome RepairEngine::run_native(const std::string& handler,
                                               const std::string& element,
                                               model::Transaction& txn) {
  auto it = native_.find(handler);
  if (it == native_.end()) {
    acme::StrategyOutcome out;
    out.aborted = true;
    out.abort_reason = "UnknownStrategy:" + handler;
    return out;
  }
  TacticContext ctx{root_,
                    txn,
                    queries_,
                    config_.conventions,
                    config_.max_server_load,
                    config_.min_bandwidth,
                    config_.min_utilization,
                    config_.min_replicas,
                    config_.load_improvement,
                    element};
  return it->second.run(ctx);
}

void RepairEngine::execute(const Violation& violation) {
  // Consume the preemption carry-over now: it belongs to THIS repair (the
  // challenger), never to a later unrelated one.
  const SimTime start_delay = pending_start_delay_;
  pending_start_delay_ = SimTime::zero();
  RepairRecord record;
  record.id = records_.size();
  record.constraint_id = violation.constraint->id;
  record.element = violation.element;
  record.strategy = violation.constraint->handler;
  record.started = sim_.now();
  record.decision_cost = config_.decision_cost;

  ARC_INFO << "[" << sim_.now().as_seconds() << "s] repair: " << record.strategy
           << "(" << record.element << ") triggered by "
           << record.constraint_id;

  model::Transaction txn(root_);
  acme::StrategyOutcome outcome;
  try {
    if (config_.use_script && script_.find_strategy(record.strategy)) {
      acme::EvalValue arg(acme::ElementRef::of_component(
          root_, root_.component(record.element)));
      outcome = interpreter_.run_strategy(record.strategy, {arg}, txn);
    } else {
      outcome = run_native(record.strategy, record.element, txn);
    }
  } catch (const Error& e) {
    outcome.aborted = true;
    outcome.abort_reason = e.what();
  }
  record.tactics = outcome.tactics_run;
  record.query_cost = queries_ ? queries_->drain_query_cost() : SimTime::zero();

  if (outcome.committed && txn.op_count() > 0) {
    std::vector<model::OpRecord> op_records = txn.records();
    txn.commit();
    record.committed = true;
    record.tactic_spans = outcome.spans;
    record.journal = op_records;
    summarize_ops(op_records, record);
    std::size_t idx = records_.size();
    if (journal_sink_) {
      // WAL point: the commit is durable before the translator enacts it.
      journal_sink_->on_ops(journal_shard_, sim_.now(), idx,
                            /*compensation=*/false, op_records);
    }
    busy_ = true;
    const SimTime pre = record.decision_cost + record.query_cost + start_delay;

    // Lift the committed journal into a plan and enact it after the
    // decision + query charge.
    AdaptationPlan plan =
        build_plan(op_records, config_.conventions, translator_, gauges_);
    if (config_.use_plan) {
      const PlanOptimizerStats opt = optimize_plan(plan, &effect_table_);
      stats_.plan_steps_merged += opt.moves_merged + opt.gauges_batched;
      record.plan_steps_merged =
          static_cast<int>(opt.moves_merged + opt.gauges_batched);
    } else {
      // The paper's sequential shape: each step waits for the one before.
      for (std::size_t i = 1; i < plan.steps.size(); ++i) {
        plan.steps[i].deps = {i - 1};
      }
    }
    record.plan_steps = static_cast<int>(plan.steps.size());
    ARC_DEBUG << "  plan: " << plan.steps.size() << " steps ("
              << plan.runtime_step_count() << " runtime), est critical "
              << plan.estimated_critical_path().as_seconds() << "s vs serial "
              << plan.estimated_serial_cost().as_seconds() << "s";
    records_.push_back(std::move(record));
    active_.emplace();
    active_->idx = idx;
    active_->observed = violation.observed;
    active_->plan = std::move(plan);
    std::set<util::Symbol> touched;
    touched.insert(util::Symbol::intern(records_[idx].element));
    for (const PlanStep& step : active_->plan.steps) {
      for (const std::string& el : step.elements) {
        touched.insert(util::Symbol::intern(el));
      }
      if (!step.subject.empty()) {
        touched.insert(util::Symbol::intern(step.subject));
      }
    }
    for (const std::string& el :
         affected_gauge_elements(active_->plan.journal, nullptr)) {
      touched.insert(util::Symbol::intern(el));
    }
    active_->touched.assign(touched.begin(), touched.end());
    publish_plan_event(monitor::topics::kPhasePlanStarted, idx,
                       active_->plan.steps.size());
    active_->pre_event =
        sim_.schedule_in(pre, [this, idx] { start_plan(idx); });
    return;
  }

  // Abort (or a commit that changed nothing — nothing to translate).
  if (txn.is_open()) txn.rollback();
  record.aborted = true;
  record.abort_reason = outcome.committed ? "NoEffect" : outcome.abort_reason;
  record.completed =
      sim_.now() + record.decision_cost + record.query_cost + start_delay;
  record.finished = true;
  ++stats_.aborted;
  if (config_.damping) {
    cooldown_until_.insert_or_assign(util::Symbol::intern(record.constraint_id),
                                     sim_.now() + config_.abort_cooldown);
  }
  ARC_INFO << "  -> aborted: " << record.abort_reason;
  records_.push_back(std::move(record));
}

void RepairEngine::summarize_ops(const std::vector<model::OpRecord>& op_records,
                                 RepairRecord& record) {
  bool moved = false;
  for (const model::OpRecord& op : op_records) {
    record.ops.push_back(op.describe());
    switch (op.kind) {
      case model::OpKind::AddComponent:
        if (!op.scope.empty()) ++record.servers_added;
        break;
      case model::OpKind::RemoveComponent:
        if (!op.scope.empty()) ++record.servers_removed;
        break;
      case model::OpKind::Attach:
        moved = true;
        break;
      default:
        break;
    }
  }
  if (moved) ++record.moves;
}

// ---- plan pipeline ----

void RepairEngine::start_plan(std::size_t idx) {
  if (!active_ || active_->idx != idx) return;  // preempted before starting
  PlanExecutor::Callbacks cb;
  cb.on_step_done = [this](std::size_t) { ++stats_.plan_steps_executed; };
  cb.on_done = [this, idx] { finish_plan(idx); };
  cb.on_failed = [this, idx](std::size_t step, const std::string& reason,
                             SimTime compensation_cost) {
    fail_plan(idx, step, reason, compensation_cost);
  };
  executor_.run(&active_->plan, std::move(cb));
}

void RepairEngine::note_fault_stats(RepairRecord& record) {
  const PlanExecutor::FaultStats& fs = executor_.fault_stats();
  record.ops_retried = static_cast<int>(fs.ops_retried);
  record.ops_timed_out = static_cast<int>(fs.ops_timed_out);
  stats_.ops_retried += fs.ops_retried;
  stats_.ops_timed_out += fs.ops_timed_out;
  if (fs.ops_retried > 0) ++stats_.repairs_retried;
}

void RepairEngine::finish_plan(std::size_t idx) {
  if (!active_) return;  // preempted between the executor's done and here
  RepairRecord& record = records_[idx];
  record.op_cost = executor_.runtime_cost();
  record.gauge_cost = executor_.gauge_wall();
  note_fault_stats(record);
  // Settle exactly what was re-deployed: the plan's gauge steps are the
  // source of truth (distinct elements by construction). Model-only rigs
  // have no gauge steps; fall back to the journal's component set so
  // settle damping still covers the touched elements.
  std::vector<std::string> affected;
  for (const PlanStep& step : active_->plan.steps) {
    affected.insert(affected.end(), step.elements.begin(),
                    step.elements.end());
  }
  if (affected.empty()) {
    affected = affected_gauge_elements(active_->plan.journal, nullptr);
  }
  publish_plan_event(monitor::topics::kPhasePlanCompleted, idx,
                     active_->plan.steps.size());
  active_.reset();
  finish(idx, affected);
}

void RepairEngine::abort_in_flight(std::size_t idx, const std::string& reason,
                                   SimTime completed_at, bool cooldown) {
  RepairRecord& record = records_[idx];
  record.committed = false;
  record.aborted = true;
  record.abort_reason = reason;
  record.completed = completed_at;
  record.finished = true;
  busy_ = false;
  ++stats_.aborted;
  if (cooldown && config_.damping) {
    cooldown_until_.insert_or_assign(util::Symbol::intern(record.constraint_id),
                                     sim_.now() + config_.abort_cooldown);
  }
}

void RepairEngine::fail_plan(std::size_t idx, std::size_t step,
                             const std::string& reason,
                             SimTime compensation_cost) {
  if (!active_) return;  // preempted between the executor's failure and here
  // The runtime rejected a step (paper Section 7: "if the server load is
  // too high and there are no available servers ... it may be necessary to
  // alert a human observer"). The executor already compensated the enacted
  // steps at the runtime layer; revert the model symmetrically so the two
  // stay convergent, then cool the constraint down and surface it loudly.
  revert_model(active_->plan.journal, idx);
  note_fault_stats(records_[idx]);
  abort_in_flight(idx, std::string("RuntimeFailure: ") + reason,
                  sim_.now() + compensation_cost, /*cooldown=*/true);
  publish_plan_event(monitor::topics::kPhasePlanFailed, idx,
                     active_->plan.steps.size());
  ARC_ERROR << "repair #" << records_[idx].id << " failed at plan step "
            << step << ": " << reason << " — operator attention required";
  active_.reset();
}

void RepairEngine::preempt_active(const std::string& reason) {
  if (!active_) return;
  const std::size_t idx = active_->idx;
  PlanExecutor::AbortResult aborted;
  if (executor_.active()) {
    aborted = executor_.abort();
    note_fault_stats(records_[idx]);
  } else {
    // Still inside the decision-charge delay: nothing launched yet.
    active_->pre_event.cancel();
    aborted.steps_skipped = active_->plan.steps.size();
  }
  stats_.plan_steps_preempted += aborted.steps_skipped;
  ++stats_.plans_preempted;
  revert_model(active_->plan.journal, idx);
  abort_in_flight(idx, reason, sim_.now() + aborted.compensation_cost,
                  /*cooldown=*/false);
  records_[idx].preempted = true;
  // The challenger's enactment queues behind the inverse ops still
  // clearing the runtime; its decision phase absorbs the wait.
  pending_start_delay_ = aborted.compensation_cost;
  publish_plan_event(monitor::topics::kPhasePlanPreempted, idx,
                     active_->plan.steps.size());
  ARC_INFO << "[" << sim_.now().as_seconds() << "s] repair #"
           << records_[idx].id << " preempted (" << reason << "): "
           << aborted.steps_enacted << " step(s) compensated, "
           << aborted.steps_skipped << " skipped";
  active_.reset();
}

void RepairEngine::revert_model(const std::vector<model::OpRecord>& journal,
                                std::size_t idx) {
  model::Transaction txn(root_);
  try {
    for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
      if (std::optional<model::OpRecord> inv = it->inverse()) {
        model::apply_op(txn, *inv);
      }
    }
    txn.commit();
    if (journal_sink_ && txn.op_count() > 0) {
      // Compensation commit: journaled like any other, tagged so replay
      // knows these ops undo repair `idx` rather than advance it.
      journal_sink_->on_ops(journal_shard_, sim_.now(), idx,
                            /*compensation=*/true, txn.records());
    }
  } catch (const Error& e) {
    ARC_ERROR << "plan compensation: model revert failed: " << e.what();
    if (txn.is_open()) txn.rollback();
  }
}

void RepairEngine::publish_plan_event(util::Symbol phase, std::size_t idx,
                                      std::size_t steps) {
  if (journal_sink_) {
    journal_sink_->on_plan_event(journal_shard_, sim_.now(), phase.str(), idx,
                                 steps);
  }
  if (!bus_) return;
  events::Notification n(monitor::topics::kRepairPlanSym);
  n.set(monitor::topics::kAttrRepairSym, static_cast<double>(idx))
      .set(monitor::topics::kAttrPhaseSym, phase)
      .set(monitor::topics::kAttrStepsSym, static_cast<double>(steps));
  n.wire_size = DataSize::bytes(256);
  bus_->publish(std::move(n));
}

void RepairEngine::finish(std::size_t idx,
                          const std::vector<std::string>& affected) {
  RepairRecord& record = records_[idx];
  record.completed = sim_.now();
  record.finished = true;
  busy_ = false;
  ++stats_.committed;
  stats_.moves += record.moves;
  stats_.servers_added += record.servers_added;
  stats_.servers_removed += record.servers_removed;
  stats_.repair_seconds_total += record.duration().as_seconds();
  windows_.emplace_back(record.started, record.completed);
  if (config_.damping) {
    for (const std::string& element : affected) {
      settle_until_.insert_or_assign(util::Symbol::intern(element),
                                     sim_.now() + config_.settle_time);
    }
    settle_until_.insert_or_assign(util::Symbol::intern(record.element),
                                   sim_.now() + config_.settle_time);
  }
  ARC_INFO << "[" << sim_.now().as_seconds() << "s] repair #" << record.id
           << " done in " << record.duration().as_seconds() << "s (ops "
           << record.op_cost.as_seconds() << "s, gauges "
           << record.gauge_cost.as_seconds() << "s): moves=" << record.moves
           << " +servers=" << record.servers_added
           << " -servers=" << record.servers_removed;
}

}  // namespace arcadia::repair
