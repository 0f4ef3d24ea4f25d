// Parallel discrete-event simulation: conservative time windows over
// per-shard sub-simulators (DESIGN.md §9).
//
// Each ShardSimulator owns a private event queue and clock for one fleet
// shard (tenant). The SimCoordinator advances all shards concurrently in
// rounds: every round it computes a safe bound — the earliest time at which
// a cross-shard effect can occur, i.e. min(next control event, window-start
// + lookahead, horizon) — lets every shard run privately up to that bound,
// then executes the barrier (cross-shard mail delivery, staged-journal
// drain, and the control simulator's own events, which is where fleet
// sweeps and snapshots couple the shards).
//
// Determinism contract: a run's event order is a pure function of the shard
// partition and the schedule — never of the worker-thread count. Shards are
// serial inside a window (one worker at a time, enforced by SerialLane +
// SerialDomain), per-shard barrier work (for_each_shard) keeps its effects
// inside the shard or merges them in shard order, and mail merges by
// (time, source shard, per-source sequence). 1 thread and N
// threads therefore produce bit-identical repairs, journal bytes, and fault
// draws — the tests' correctness oracle.
//
// arclint: shard — this kernel may not reach into FleetManager / the global
// buses / the durability plane directly; cross-shard effects route through
// the coordinator seam (rule `shard-isolation`).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "util/annotations.hpp"
#include "util/small_fn.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace arcadia::sim {

/// One shard's private simulator plus its lane identity. Heap-pinned by the
/// coordinator (unique_ptr) so lane() — derived from `this` — is stable.
class ShardSimulator {
 public:
  explicit ShardSimulator(std::uint32_t id) : id_(id) {}
  ShardSimulator(const ShardSimulator&) = delete;
  ShardSimulator& operator=(const ShardSimulator&) = delete;

  std::uint32_t id() const { return id_; }
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  /// Logical-lane token for SerialLane/SerialDomain: odd (low bit set) so it
  /// can never collide with the even per-thread keys SerialDomain derives
  /// when no lane is active. Code touching this shard's tenant state from
  /// any thread must hold `util::SerialLane lane(shard.lane())`.
  std::uintptr_t lane() const {
    return reinterpret_cast<std::uintptr_t>(this) | 1;
  }

  /// Run this shard's events up to and including `bound` (clock ends at
  /// `bound` exactly, like Simulator::run_until). Enters the shard's lane
  /// for the duration; called by exactly one worker per round.
  std::uint64_t advance_to(SimTime bound) {
    util::SerialLane in_lane(lane());
    const std::uint64_t ran = sim_.run_until(bound);
    events_ += ran;
    ++windows_;
    return ran;
  }

  std::uint64_t events() const { return events_; }
  std::uint64_t windows() const { return windows_; }

 private:
  std::uint32_t id_;
  Simulator sim_;
  std::uint64_t events_ = 0;
  std::uint64_t windows_ = 0;
};

struct SimCoordinatorOptions {
  /// Worker threads advancing shards each round, coordinator included.
  /// 0 = hardware concurrency; 1 = fully serial (no pool, no threads).
  unsigned threads = 0;
  /// Minimum delay of any cross-shard effect posted *between* barriers
  /// (classic conservative-PDES lookahead). Arcadia's fleet shards couple
  /// only at control-simulator events (sweeps at network-rate-change
  /// epochs), which the bound already accounts for exactly — so the fleet
  /// runs with infinite lookahead and windows stretch barrier to barrier.
  /// Finite lookahead is for rigs that post() mid-window: the minimum
  /// cross-shard delivery delay through the shared FlowNetwork, e.g.
  /// FlowNetwork::loopback_delay() when shards mail local peers.
  SimTime lookahead = SimTime::infinity();
};

struct SimCoordinatorStats {
  std::uint64_t rounds = 0;          ///< windows executed
  std::uint64_t control_events = 0;  ///< events run on the control simulator
  std::uint64_t shard_events = 0;    ///< sum of per-shard events
  std::uint64_t mail_delivered = 0;  ///< cross-shard messages delivered
};

/// Advances a set of ShardSimulators in conservative time windows against a
/// shared control simulator (the fleet clock: sweeps, snapshots, horizon).
class SimCoordinator {
 public:
  SimCoordinator(Simulator& control, SimCoordinatorOptions options);
  ~SimCoordinator();
  SimCoordinator(const SimCoordinator&) = delete;
  SimCoordinator& operator=(const SimCoordinator&) = delete;

  /// Create the next shard (id = current shard_count()). All shards must be
  /// added before the first run_until call.
  ShardSimulator& add_shard();
  std::size_t shard_count() const { return shards_.size(); }
  ShardSimulator& shard(std::size_t i) { return *shards_.at(i); }
  const ShardSimulator& shard(std::size_t i) const { return *shards_.at(i); }

  /// Runs at every barrier, after shards reached `bound` and mail was
  /// delivered, before control events run. The fleet drains staged journal
  /// records here, in (time, shard, index) order.
  void set_barrier_hook(std::function<void(SimTime)> hook) {
    barrier_hook_ = std::move(hook);
  }

  /// Cross-shard mail: run `fn` on shard `to`'s clock at absolute time
  /// `at`. Must be called from shard `from`'s lane (i.e. from inside its
  /// window); delivery happens at the next barrier. `at` must respect the
  /// configured lookahead — delivery before the current window's bound
  /// throws SimError at the barrier (causality violation).
  void post(std::uint32_t from, std::uint32_t to, SimTime at,
            util::SmallFn<void()> fn);

  /// Window loop: advance shards and control interleaved until the control
  /// clock reaches `horizon`. Every shard clock also ends at `horizon`.
  /// Returns total events executed (control + shards).
  std::uint64_t run_until(SimTime horizon);

  /// Run fn(i) for every shard i inside its SerialLane on the coordinator's
  /// threads (ThreadPool::parallel_for; one thread: a loop in shard order).
  /// Call between windows. Windows and the fleet's barrier sweep use it.
  void for_each_shard(const std::function<void(std::size_t)>& fn);

  Simulator& control() { return control_; }
  unsigned effective_threads() const;
  SimCoordinatorStats stats() const;

 private:
  struct Mail {
    SimTime at;
    std::uint32_t from;
    std::uint32_t to;
    std::uint64_t seq;  // per-source, so merge order is thread-independent
    util::SmallFn<void()> fn;
  };

  void deliver_mail(SimTime bound);

  Simulator& control_;
  SimCoordinatorOptions options_;
  std::vector<std::unique_ptr<ShardSimulator>> shards_;
  /// Outboxes indexed by source shard: only shard `from`'s lane appends to
  /// outbox_[from] (inside its window), only the coordinator drains them
  /// (at the barrier) — no locking, and the pool's queue/join edges give
  /// the happens-before either way.
  std::vector<std::vector<Mail>> outbox_;
  std::vector<std::uint64_t> mail_seq_;
  std::function<void(SimTime)> barrier_hook_;
  std::unique_ptr<ThreadPool> pool_;  // only when effective_threads() > 1
  SimCoordinatorStats stats_;
};

}  // namespace arcadia::sim
