// Fleet-scale adaptation: N independent tenant applications, each with its
// own architectural model *shard* (an ArchitectureManager in passive mode),
// and a single FleetManager coordinating the control loop across all of
// them:
//
//   * batched gauge application — reports landing on a shard's gauge bus
//     within a coalescing window are applied in one model pass; reports for
//     the same (element, property) are superseded in place, so a burst of
//     samples costs one property write instead of one per report;
//   * parallel barrier sweep — the periodic check runs each shard's part
//     on the SimCoordinator's workers, inside the shard's lane. Shards own
//     disjoint models, so workers never contend on model state;
//   * clean-shard skipping — a shard that received no reports, ran no
//     repair, and saw no structural edit since its last sweep is not swept
//     at all; its cached verdicts (what the incremental checker would have
//     returned verbatim) are re-dispatched instead.
//
// Determinism contract (DESIGN.md §3c): each shard flushes, detects and
// dispatches on its own while the others do the same. Detection runs under
// a model::ClockView pinned to the barrier's revision clocks; dispatch
// reads no clock and journals into per-shard staging. No shard sees
// another's effects during the sweep, so a fleet run is bit-for-bit
// identical for any simulation-thread count.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/arch_manager.hpp"
#include "events/bus.hpp"
#include "repair/constraint.hpp"
#include "sim/shard_sim.hpp"
#include "sim/simulator.hpp"
#include "util/annotations.hpp"

namespace arcadia::core {

struct FleetManagerConfig {
  /// Constraint-sweep period across the whole fleet.
  SimTime check_period = SimTime::seconds(5);
  SimTime first_check = SimTime::seconds(15);
  /// Gauge reports arriving within this window are applied per-shard in one
  /// pass, newest value per (element, property) winning. Zero applies every
  /// report on delivery (unbatched). A window >= check_period is
  /// sweep-aligned: no per-shard flush timers at all — batches are applied
  /// exactly when the sweep needs them.
  SimTime coalesce_window = SimTime::millis(500);
  /// No-op: the sweep runs on the bound SimCoordinator's workers
  /// (FleetOptions::sim_threads). Kept only because perfbench assigns it.
  std::size_t sweep_threads = 0;
  /// Skip shards whose model provably did not change since their last
  /// sweep. Disable to force every shard through detection every period.
  bool skip_clean_shards = true;
  /// Per-tenant health state machine (healthy -> degraded -> quarantined ->
  /// recovering). Driven by report silence: gauges report every few
  /// seconds, so a shard that has been silent past degraded_after has lost
  /// its monitoring substrate, and past quarantine_after it is quarantined
  /// — not swept, not dispatched — until reports resume and hold for
  /// recovery_observation. Healthy fleets never trip these (the thresholds
  /// are several report periods), so tracking is on by default.
  bool health_tracking = true;
  SimTime degraded_after = SimTime::seconds(20);
  SimTime quarantine_after = SimTime::seconds(60);
  SimTime recovery_observation = SimTime::seconds(20);
};

/// Per-tenant health (the fleet seam of the failure model).
enum class ShardHealth : std::uint8_t {
  Healthy,
  Degraded,     ///< report silence past degraded_after
  Quarantined,  ///< silence past quarantine_after; sweep + dispatch skipped
  Recovering,   ///< reports resumed; observing before returning to Healthy
};

struct FleetShardStats {
  std::uint64_t reports_enqueued = 0;   ///< gauge reports received
  std::uint64_t reports_coalesced = 0;  ///< superseded inside a batch
  std::uint64_t reports_applied = 0;    ///< property writes that reached the model
  std::uint64_t reports_unchanged = 0;  ///< dead-band: repeated steady values
  std::uint64_t reports_ignored = 0;    ///< malformed / unknown element
  std::uint64_t batches = 0;            ///< batch flushes
  std::uint64_t sweeps = 0;             ///< detections actually run
  std::uint64_t sweeps_skipped = 0;     ///< clean-shard skips
  std::uint64_t violations = 0;         ///< violations dispatched (incl. cached)
  std::uint64_t repairs_triggered = 0;
  // Repair-plan lifecycle observed on the shard's bus (topics::kRepairPlan;
  // the engine publishes when the framework wires its event bus).
  std::uint64_t plans_started = 0;
  std::uint64_t plans_completed = 0;
  std::uint64_t plans_preempted = 0;
  std::uint64_t plans_failed = 0;  ///< runtime failure mid-plan
  // Health state machine transitions.
  std::uint64_t health_degraded = 0;     ///< entries into Degraded
  std::uint64_t health_quarantined = 0;  ///< entries into Quarantined
  std::uint64_t health_recovered = 0;    ///< returns to Healthy
  std::uint64_t sweeps_quarantined = 0;  ///< sweeps skipped while quarantined
  std::uint64_t sweeps_stalled = 0;      ///< sweeps skipped while stalled
};

struct FleetStats {
  std::uint64_t sweep_rounds = 0;     ///< periodic sweeps of the whole fleet
  std::uint64_t shard_sweeps = 0;     ///< sum of per-shard detections
  std::uint64_t shard_skips = 0;      ///< sum of per-shard skips
  std::uint64_t shards_quarantined = 0;  ///< quarantine entries, fleet-wide
  /// Real (host) wall-clock spent inside run_sweep. The fleet counterpart
  /// of ArchManagerStats::check_wall_s.
  double sweep_wall_s = 0.0;
};

/// Coordinates the adaptation control loop over N model shards. Shards are
/// registered once at assembly (see core::Fleet), then start() subscribes
/// the batched report sinks and arms the periodic sweep.
///
/// Lifetime: every registered manager and gauge bus must outlive this
/// object (or its stop()) — the destructor unsubscribes from the buses.
/// core::Fleet destroys the FleetManager before the tenants for exactly
/// this reason; hand-rolled rigs must declare shards first.
class FleetManager {
 public:
  using ShardId = std::size_t;

  FleetManager(sim::Simulator& sim, FleetManagerConfig config);
  ~FleetManager();

  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  /// Register a shard: its (passive) architecture manager and the gauge bus
  /// its tenant's monitoring reports on. `manager_node` is where the
  /// tenant's control loop runs — reports cross the simulated network to
  /// it, exactly as they would to a non-fleet ArchitectureManager. Shard
  /// ids are dense, in registration order — which is also the
  /// deterministic dispatch order.
  ShardId add_shard(std::string name, ArchitectureManager& manager,
                    events::EventBus& gauge_bus,
                    sim::NodeId manager_node = sim::kNoNode);

  /// Subscribe the report sinks and arm the periodic sweep.
  void start();
  void stop();

  std::size_t shard_count() const { return shards_.size(); }
  const std::string& shard_name(ShardId id) const { return shards_[id].name; }
  const FleetShardStats& shard_stats(ShardId id) const {
    return shards_[id].stats;
  }
  ShardHealth shard_health(ShardId id) const { return shards_[id].health; }

  /// Sharded-kernel binding (what core::Fleet does): shard `id`'s events,
  /// coalescing timers and liveness stamps use `coordinator.shard(id)`'s
  /// clock and lane, and run_sweep runs on the coordinator's threads. An
  /// unbound rig keeps the manager's simulator and lane 0, and sweeps
  /// serially. Call after every add_shard, before start().
  void bind_coordinator(sim::SimCoordinator& coordinator);

  /// Fault seam: stall a shard's control loop — its sweeps and dispatches
  /// are skipped until `duration` elapses (reports keep coalescing; the
  /// backlog applies at the first sweep after the stall lifts).
  void stall_shard(ShardId id, SimTime duration);
  const FleetStats& stats() const { return stats_; }
  /// Workers the sweep runs on: the bound coordinator's, else 1.
  unsigned sweep_threads() const {
    return coordinator_ != nullptr ? coordinator_->effective_threads() : 1;
  }

  /// Apply a shard's pending coalesced reports immediately (also happens
  /// automatically before every sweep and when the window timer fires).
  void flush(ShardId id);

  /// One fleet sweep: per shard, flush, health and detect (unless clean),
  /// then dispatch — shards in parallel on the bound coordinator. Runs from
  /// the periodic task; public so tests and benches can drive sweeps
  /// explicitly (between windows).
  void run_sweep();

 private:
  struct Shard {
    std::string name;
    util::Symbol name_sym;
    ArchitectureManager* manager = nullptr;
    events::EventBus* bus = nullptr;
    sim::NodeId manager_node = sim::kNoNode;
    events::SubscriptionId sub = 0;
    events::SubscriptionId plan_sub = 0;
    events::SubscriptionId lifecycle_sub = 0;

    /// Executor binding (bind_coordinator): the clock tenant events run
    /// on — the shard's private ShardSimulator, or the manager's own
    /// simulator when unbound — and the SerialLane token of that shard
    /// (0 = none). All per-shard mutation goes through
    /// `serial`, keyed on the lane, instead of the fleet-wide serial_.
    sim::Simulator* clock = nullptr;
    std::uintptr_t lane = 0;
    util::SerialDomain serial;

    /// One coalescing slot per distinct (element, role, property) gauge key
    /// this shard has ever reported. The key set is the gauge deployment —
    /// stable across windows — so slots and their index persist: after the
    /// first window, enqueue is an integer-keyed lookup plus a value store,
    /// with no parsing state, no notification copies, and (for numeric
    /// values) no allocation.
    struct PendingSlot {
      util::Symbol element;  ///< component, or connector when role set
      util::Symbol role;
      util::Symbol property;
      events::Value value;
      bool armed = false;  ///< holds a value for the current window
    };
    std::vector<PendingSlot> slots;
    /// (element, role, property) symbol ids -> slot. Persistent; ~one entry
    /// per gauge, so the tree stays tiny.
    std::map<std::array<std::uint32_t, 3>, std::uint32_t> slot_index;
    /// Armed slots in first-touch order — the deterministic apply order.
    std::vector<std::uint32_t> touched;
    sim::EventHandle flush_timer;

    /// Reports were applied since the last sweep.
    bool dirty = false;
    bool swept_once = false;
    /// The violations of this shard's last detection; re-dispatched verbatim
    /// when the shard is skipped as clean (matching what the incremental
    /// checker's cache would have produced).
    std::vector<repair::Violation> last_violations;

    // Health state machine (evaluated on the sim thread each sweep).
    ShardHealth health = ShardHealth::Healthy;
    SimTime last_report_at;    ///< any gauge report counts as liveness
    SimTime recovering_since;  ///< entry time of the Recovering state
    SimTime stalled_until;     ///< stall_shard fault window

    FleetShardStats stats;
  };

  void enqueue(ShardId id, const events::Notification& n);
  void apply(Shard& shard, const Shard::PendingSlot& slot);
  void note_plan_event(ShardId id, const events::Notification& n);
  void note_lifecycle(ShardId id, const events::Notification& n);
  void update_health(ShardId id);
  void publish_health(Shard& shard);

  sim::Simulator& sim_;
  FleetManagerConfig config_;
  /// Concurrency capability: each shard's state is owned by its serial
  /// execution context — the shard's lane under the sharded kernel, the
  /// simulation thread when unbound (windows and sweeps migrate between
  /// workers but are serial per shard). Every write to a Shard
  /// happens inside its lane, which debug builds assert via Shard::serial;
  /// fleet-wide state (stats_, structure_seen_) is written only on the
  /// control thread, behind serial_.
  std::vector<Shard> shards_;
  sim::SimCoordinator* coordinator_ = nullptr;
  std::unique_ptr<sim::PeriodicTask> sweep_task_;
  /// Structure clock at the end of the previous sweep round: any structural
  /// edit anywhere (repairs are the only in-run source) re-sweeps every
  /// shard — spurious work for the untouched ones, never a stale verdict.
  std::uint64_t structure_seen_ = 0;
  bool started_ = false;
  FleetStats stats_;
  util::SerialDomain serial_;
};

}  // namespace arcadia::core
