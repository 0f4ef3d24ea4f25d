#include "core/fleet_manager.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "model/revision.hpp"
#include "monitor/topics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/symbol.hpp"

namespace arcadia::core {

FleetManager::FleetManager(sim::Simulator& sim, FleetManagerConfig config)
    : sim_(sim), config_(config) {}

FleetManager::~FleetManager() { stop(); }

FleetManager::ShardId FleetManager::add_shard(std::string name,
                                              ArchitectureManager& manager,
                                              events::EventBus& gauge_bus,
                                              sim::NodeId manager_node) {
  serial_.check();
  if (started_) throw Error("FleetManager: add_shard after start");
  Shard shard;
  shard.name = std::move(name);
  shard.name_sym = util::Symbol::intern(shard.name);
  shard.manager = &manager;
  shard.bus = &gauge_bus;
  shard.manager_node = manager_node;
  shard.clock = &sim_;  // unbound default; bind_coordinator overrides
  shards_.push_back(std::move(shard));
  return shards_.size() - 1;
}

void FleetManager::bind_coordinator(sim::SimCoordinator& coordinator) {
  serial_.check();
  if (started_) throw Error("FleetManager: bind_coordinator after start");
  if (coordinator.shard_count() != shards_.size()) {
    throw Error("FleetManager: bind_coordinator needs one coordinator shard "
                "per fleet shard");
  }
  coordinator_ = &coordinator;
  for (ShardId id = 0; id < shards_.size(); ++id) {
    shards_[id].clock = &coordinator.shard(id).sim();
    shards_[id].lane = coordinator.shard(id).lane();
  }
}

void FleetManager::start() {
  serial_.check();
  if (started_) throw Error("FleetManager::start called twice");
  started_ = true;
  for (ShardId id = 0; id < shards_.size(); ++id) {
    Shard& shard = shards_[id];
    // The bus belongs to the shard's serial context: subscribe from inside
    // its lane so the bus's own SerialDomain keys on the lane, not on
    // whichever thread assembles the fleet.
    util::SerialLane in_lane(shard.lane);
    shard.sub = shard.bus->subscribe(
        events::Filter::topic(monitor::topics::kGaugeReportSym),
        [this, id](const events::Notification& n) { enqueue(id, n); },
        shard.manager_node);
    // Observe the tenant's repair plans in flight (overlapped lifecycle:
    // detection keeps sweeping while these enact).
    shard.plan_sub = shard.bus->subscribe(
        events::Filter::topic(monitor::topics::kRepairPlanSym),
        [this, id](const events::Notification& n) { note_plan_event(id, n); },
        shard.manager_node);
    // Route the watchdog's suspect/cleared marks into the (passive) shard
    // manager's verdict holds — in fleet mode nobody else is listening.
    shard.lifecycle_sub = shard.bus->subscribe(
        events::Filter::topic(monitor::topics::kGaugeLifecycleSym),
        [this, id](const events::Notification& n) { note_lifecycle(id, n); },
        shard.manager_node);
    // Registration counts as liveness: a shard is not silent until it has
    // had degraded_after of quiet from the moment the fleet starts.
    shard.last_report_at = shard.clock->now();
  }
  sweep_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + config_.first_check, config_.check_period, [this] {
        run_sweep();
        return true;
      });
  ARC_INFO << "fleet: started (" << shards_.size() << " shards, "
           << sweep_threads() << " sweep threads, coalesce "
           << config_.coalesce_window.as_seconds() << " s)";
}

void FleetManager::stop() {
  serial_.check();
  sweep_task_.reset();
  for (Shard& shard : shards_) {
    util::SerialLane in_lane(shard.lane);  // bus + timer live in the lane
    if (shard.sub != 0) {
      shard.bus->unsubscribe(shard.sub);
      shard.sub = 0;
    }
    if (shard.plan_sub != 0) {
      shard.bus->unsubscribe(shard.plan_sub);
      shard.plan_sub = 0;
    }
    if (shard.lifecycle_sub != 0) {
      shard.bus->unsubscribe(shard.lifecycle_sub);
      shard.lifecycle_sub = 0;
    }
    shard.flush_timer.cancel();
    for (std::uint32_t idx : shard.touched) shard.slots[idx].armed = false;
    shard.touched.clear();
  }
  started_ = false;
}

void FleetManager::apply(Shard& shard, const Shard::PendingSlot& slot) {
  switch (shard.manager->apply_gauge_value(slot.element, slot.role,
                                           slot.property, slot.value)) {
    case ArchitectureManager::GaugeApply::Applied:
      ++shard.stats.reports_applied;
      shard.dirty = true;
      break;
    case ArchitectureManager::GaugeApply::Unchanged:
      // The model did not move, so neither could any verdict: the shard
      // stays clean and a quiet tenant's sweep is skipped outright.
      ++shard.stats.reports_unchanged;
      break;
    case ArchitectureManager::GaugeApply::NoTarget:
      ++shard.stats.reports_ignored;
      break;
  }
}

void FleetManager::note_plan_event(ShardId id, const events::Notification& n) {
  const events::Value* phase = n.get_if(monitor::topics::kAttrPhaseSym);
  if (!phase || !phase->is_string()) return;
  shards_[id].serial.check();
  FleetShardStats& stats = shards_[id].stats;
  const util::Symbol sym = phase->to_symbol();
  if (sym == monitor::topics::kPhasePlanStarted) {
    ++stats.plans_started;
  } else if (sym == monitor::topics::kPhasePlanCompleted) {
    ++stats.plans_completed;
  } else if (sym == monitor::topics::kPhasePlanPreempted) {
    ++stats.plans_preempted;
  } else if (sym == monitor::topics::kPhasePlanFailed) {
    ++stats.plans_failed;
  }
}

void FleetManager::note_lifecycle(ShardId id, const events::Notification& n) {
  util::Symbol element, phase;
  if (!ArchitectureManager::parse_gauge_lifecycle(n, element, phase)) return;
  shards_[id].serial.check();
  if (phase == monitor::topics::kPhaseSuspect) {
    shards_[id].manager->note_gauge_liveness(element, true);
  } else if (phase == monitor::topics::kPhaseCleared) {
    shards_[id].manager->note_gauge_liveness(element, false);
  }
}

void FleetManager::enqueue(ShardId id, const events::Notification& n) {
  Shard& shard = shards_[id];
  // Delivered on the shard's clock, inside its lane (a pool worker under
  // the sharded kernel). Everything touched below is this shard's state.
  shard.serial.check();
  ++shard.stats.reports_enqueued;
  // Any report — even one the parse below rejects — proves the tenant's
  // monitoring path is alive.
  shard.last_report_at = shard.clock->now();
  // Parse and intern once, at delivery (shared address convention); from
  // here the report is three symbol ids and a value.
  util::Symbol element_sym, role_sym, property;
  if (!ArchitectureManager::parse_gauge_report(n, element_sym, role_sym,
                                               property)) {
    ++shard.stats.reports_ignored;  // malformed, same verdict as unbatched
    return;
  }
  const events::Value& value = *n.get_if(monitor::topics::kAttrValueSym);

  if (config_.coalesce_window <= SimTime::zero()) {
    Shard::PendingSlot direct;
    direct.element = element_sym;
    direct.role = role_sym;
    direct.property = property;
    direct.value = value;
    apply(shard, direct);
    return;
  }

  // Coalesce into the key's persistent slot: a newer report supersedes the
  // armed value in place — one model write per key per window.
  const std::array<std::uint32_t, 3> key = {element_sym.id(), role_sym.id(),
                                            property.id()};
  auto [it, inserted] =
      shard.slot_index.emplace(key, static_cast<std::uint32_t>(shard.slots.size()));
  if (inserted) {
    Shard::PendingSlot slot;
    slot.element = element_sym;
    slot.role = role_sym;
    slot.property = property;
    shard.slots.push_back(std::move(slot));
  }
  Shard::PendingSlot& slot = shard.slots[it->second];
  slot.value = value;
  if (slot.armed) {
    ++shard.stats.reports_coalesced;
    return;
  }
  slot.armed = true;
  shard.touched.push_back(it->second);
  // Sweep-aligned batching: when the window spans a whole sweep period the
  // periodic sweep's own flush is always soon enough — no timer needed.
  if (config_.coalesce_window >= config_.check_period) return;
  if (!shard.flush_timer.valid()) {
    // On the shard's own clock: under the sharded kernel the timer must
    // fire inside a window (in the shard's lane), not on the control loop.
    shard.flush_timer = shard.clock->schedule_in(config_.coalesce_window,
                                                 [this, id] { flush(id); });
  }
}

void FleetManager::stall_shard(ShardId id, SimTime duration) {
  Shard& shard = shards_[id];
  util::SerialLane in_lane(shard.lane);
  shard.serial.check();
  shard.stalled_until =
      std::max(shard.stalled_until, shard.clock->now() + duration);
  ARC_WARN << "fleet: shard '" << shard.name << "' stalled for "
           << duration.as_seconds() << " s";
}

void FleetManager::update_health(ShardId id) {
  Shard& shard = shards_[id];
  const SimTime silence = sim_.now() - shard.last_report_at;
  const ShardHealth prev = shard.health;
  switch (shard.health) {
    case ShardHealth::Healthy:
      if (silence > config_.quarantine_after) {
        shard.health = ShardHealth::Quarantined;
      } else if (silence > config_.degraded_after) {
        shard.health = ShardHealth::Degraded;
      }
      break;
    case ShardHealth::Degraded:
      if (silence > config_.quarantine_after) {
        shard.health = ShardHealth::Quarantined;
      } else if (silence <= config_.degraded_after) {
        shard.health = ShardHealth::Recovering;
        shard.recovering_since = sim_.now();
      }
      break;
    case ShardHealth::Quarantined:
      if (silence <= config_.degraded_after) {
        shard.health = ShardHealth::Recovering;
        shard.recovering_since = sim_.now();
      }
      break;
    case ShardHealth::Recovering:
      if (silence > config_.degraded_after) {
        shard.health = ShardHealth::Degraded;  // relapsed while observing
      } else if (sim_.now() - shard.recovering_since >=
                 config_.recovery_observation) {
        shard.health = ShardHealth::Healthy;
      }
      break;
  }
  if (shard.health == prev) return;
  switch (shard.health) {
    case ShardHealth::Healthy:
      ++shard.stats.health_recovered;
      break;
    case ShardHealth::Degraded:
      ++shard.stats.health_degraded;
      break;
    case ShardHealth::Quarantined:
      ++shard.stats.health_quarantined;
      ARC_WARN << "fleet: shard '" << shard.name << "' quarantined after "
               << silence.as_seconds() << " s of report silence";
      break;
    case ShardHealth::Recovering:
      break;
  }
  publish_health(shard);
}

void FleetManager::publish_health(Shard& shard) {
  util::Symbol state;
  switch (shard.health) {
    case ShardHealth::Healthy:
      state = monitor::topics::kStateHealthy;
      break;
    case ShardHealth::Degraded:
      state = monitor::topics::kStateDegraded;
      break;
    case ShardHealth::Quarantined:
      state = monitor::topics::kStateQuarantined;
      break;
    case ShardHealth::Recovering:
      state = monitor::topics::kStateRecovering;
      break;
  }
  events::Notification n(monitor::topics::kFleetHealthSym);
  n.set(monitor::topics::kAttrShardSym, shard.name_sym)
      .set(monitor::topics::kAttrStateSym, state);
  n.wire_size = DataSize::bytes(128);
  shard.bus->publish(std::move(n));
}

void FleetManager::flush(ShardId id) {
  Shard& shard = shards_[id];
  util::SerialLane in_lane(shard.lane);
  shard.serial.check();
  shard.flush_timer.cancel();
  // A stalled control loop applies nothing; the backlog stays armed in its
  // slots and lands at the first flush after the stall lifts.
  if (shard.stalled_until > shard.clock->now()) return;
  if (shard.touched.empty()) return;
  ++shard.stats.batches;
  // One model pass, in first-touch order of each key. Keys are distinct
  // (element, role, property) triples, so relative order cannot change the
  // resulting model state.
  for (std::uint32_t idx : shard.touched) {
    Shard::PendingSlot& slot = shard.slots[idx];
    apply(shard, slot);
    slot.armed = false;
  }
  shard.touched.clear();  // capacity retained: steady state allocates nothing
}

void FleetManager::run_sweep() {
  serial_.check();
  const auto wall0 = std::chrono::steady_clock::now();
  ++stats_.sweep_rounds;
  // Barrier-time clocks, read once. Any structural edit since the last
  // round (repairs are the only in-run source) re-sweeps every shard: the
  // clock is process-global, so we cannot attribute it to one shard —
  // spurious detection for the untouched ones, never a stale verdict.
  const std::uint64_t structure_now = model::structure_clock();
  const std::uint64_t property_now = model::property_clock();
  const bool structure_moved = structure_now != structure_seen_;
  // A rig bound to no coordinator sweeps serially, in shard order.
  auto for_each_shard = [this](const std::function<void(std::size_t)>& fn) {
    if (coordinator_ != nullptr) return coordinator_->for_each_shard(fn);
    for (ShardId id = 0; id < shards_.size(); ++id) fn(id);
  };

  // One pass, each shard on its own: flush, health, selection, detect, then
  // dispatch, while other shards flush and repair. The view pins this
  // shard's clocks to the ones read above plus its own changes, and every
  // journal record goes to the shard's own staging sink: no shard sees
  // another's effects, so the order shards run in cannot matter.
  for_each_shard([&](std::size_t id) {
    Shard& shard = shards_[id];
    model::ClockView clock_view(structure_now, property_now);
    // Apply everything still coalescing so this sweep sees values at least
    // as fresh as an unbatched manager would at the same instant.
    flush(id);
    if (config_.health_tracking) update_health(id);
    // Degraded-mode fleet: a stalled or quarantined shard is neither swept
    // nor dispatched this round — its cached verdicts are held, not acted
    // on, until the control loop (or the monitoring substrate) returns.
    if (shard.stalled_until > sim_.now()) {
      ++shard.stats.sweeps_stalled;
      return;
    }
    if (config_.health_tracking && shard.health == ShardHealth::Quarantined) {
      ++shard.stats.sweeps_quarantined;
      return;
    }
    const bool clean = config_.skip_clean_shards && shard.swept_once &&
                       !shard.dirty && !structure_moved &&
                       !shard.manager->repair_active();
    if (clean) {
      // Re-dispatch the cached verdicts below — exactly what the
      // incremental checker would have returned verbatim.
      ++shard.stats.sweeps_skipped;
    } else {
      shard.last_violations = shard.manager->detect();
      shard.swept_once = true;
      shard.dirty = false;
      ++shard.stats.sweeps;
    }
    if (shard.last_violations.empty()) return;
    shard.stats.violations += shard.last_violations.size();
    if (shard.manager->dispatch(shard.last_violations)) {
      ++shard.stats.repairs_triggered;
      // The repair just mutated this shard's model; whatever it changed
      // must be re-examined next round even if no report arrives meanwhile.
      shard.dirty = true;
    }
  });
  structure_seen_ = structure_now;

  // Fleet-wide counters are sums of per-shard ones, taken on the control
  // thread: no worker writes shared state.
  stats_.shard_sweeps = stats_.shard_skips = stats_.shards_quarantined = 0;
  for (const Shard& shard : shards_) {
    stats_.shard_sweeps += shard.stats.sweeps;
    stats_.shard_skips += shard.stats.sweeps_skipped;
    stats_.shards_quarantined += shard.stats.health_quarantined;
  }
  stats_.sweep_wall_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
}

}  // namespace arcadia::core
