// FaultPlane: the stochastic half of fault injection. One plane per
// framework instance, seeded from FaultProfile::seed, with an independent
// forked Rng stream per seam (bus faults, channel disconnects, operator
// faults, fleet crashes) so sweeping one fault rate does not perturb the
// draw sequences of the others.
//
// Determinism contract: every draw happens in the tenant's serial context,
// in simulator event order — fault decisions are a pure function of
// (profile, seed, event order), so the same fault seed produces
// bit-identical runs whether the fleet runs on 1 thread or N (each tenant
// has its own plane, drawn from only inside the tenant's lane).
#pragma once

#include <vector>

#include "fault/profile.hpp"
#include "sim/simulator.hpp"
#include "util/deterministic_rng.hpp"
#include "util/symbol.hpp"

namespace arcadia::fault {

/// Injection counters, one per fault kind (for reports and tests).
struct FaultPlaneStats {
  std::uint64_t reports_dropped = 0;     ///< lost on the bus path
  std::uint64_t reports_duplicated = 0;
  std::uint64_t reports_delayed = 0;
  std::uint64_t channel_disconnects = 0; ///< disconnect windows opened
  std::uint64_t reports_suppressed = 0;  ///< dropped at source: channel down
  std::uint64_t ops_transient = 0;       ///< retryable operator failures
  std::uint64_t ops_permanent = 0;       ///< non-retryable operator failures
  std::uint64_t ops_stalled = 0;         ///< operator cost inflations
  std::uint64_t tenant_crashes = 0;
  /// Disconnect windows currently open — a gauge, not a counter. Windows
  /// close when their channel is next touched after expiry, or at
  /// FaultPlane::finalize (so windows straddling the horizon do not stay
  /// "open" in end-of-run stats).
  std::uint64_t channels_disconnected = 0;
};

/// What the bus should do with one report notification.
enum class BusFaultAction { Deliver, Drop, Duplicate, Delay };
struct BusFault {
  BusFaultAction action = BusFaultAction::Deliver;
  SimTime delay;  ///< extra delivery delay when action == Delay
};

/// What the translator should do with one runtime step.
enum class OpFault { None, Transient, Permanent, Stall };

class FaultPlane {
 public:
  FaultPlane(sim::Simulator& sim, FaultProfile profile);

  const FaultProfile& profile() const { return profile_; }

  /// Monitoring seam, bus path: draw the fate of one report notification.
  /// Consumes the bus stream even when all monitoring rates are zero is
  /// avoided — a profile with no monitoring faults never draws.
  BusFault next_report_fault();

  /// Monitoring seam, channel path: is this gauge's reporting channel in a
  /// disconnect window right now? Each call outside a window also rolls
  /// the disconnect hazard and may open a new window.
  bool channel_down(util::Symbol gauge_id);

  /// Force a channel dark until `until` (tenant crash uses this to take
  /// every channel down at once).
  void force_channel_down(util::Symbol gauge_id, SimTime until);

  /// Repair seam: draw the fate of one runtime-operator step.
  OpFault next_op_fault();

  /// Extra cost for a stalled operator (consumes the repair stream).
  SimTime next_stall_extra();

  /// Fleet seam: one draw per tenant — crash this run? Fills the crash
  /// time and outage duration when it returns true.
  bool draw_tenant_crash(SimTime& at, SimTime& duration);
  void count_tenant_crash() { ++stats_.tenant_crashes; }

  const FaultPlaneStats& stats() const { return stats_; }

  /// Close every disconnect window that has expired or straddles `now`:
  /// the end-of-run stats sweep. Idempotent; the experiment runner calls
  /// it before copying stats and again at teardown.
  void finalize(SimTime now);

  /// The four per-seam stream positions (bus, channel, repair, fleet), in
  /// that fixed order — what the durability plane checkpoints so a crash
  /// dump records exactly where each fault stream stood.
  std::vector<Rng::State> rng_states() const;
  /// Restore positions captured by rng_states(); throws arcadia::Error on
  /// a stream-count mismatch.
  void restore_rng_states(const std::vector<Rng::State>& states);

  /// Order-sensitive fingerprint of every stream position plus the draw
  /// counters: two planes digest equal iff they made the same draws in the
  /// same order. The sharded-kernel determinism tests compare this across
  /// simulation-thread counts — fault sequences must be a pure function of
  /// the shard's event stream, never of which worker ran the window.
  std::uint64_t state_digest() const;

 private:
  bool monitoring_active() const;

  sim::Simulator& sim_;
  FaultProfile profile_;
  Rng bus_rng_;
  Rng channel_rng_;
  Rng repair_rng_;
  Rng fleet_rng_;
  util::SymbolMap<SimTime> down_until_;
  FaultPlaneStats stats_;
};

}  // namespace arcadia::fault
