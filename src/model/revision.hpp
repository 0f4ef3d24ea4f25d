// Global revision clocks backing the incremental constraint checker.
//
// Every property write stamps its element from the property clock; every
// structural edit (add/remove component/connector/port/role, attach/detach,
// adopt/release) bumps the structure clock. The ConstraintChecker compares
// the clocks against what it saw on its previous sweep:
//   - structure clock moved  -> full re-evaluation sweep (elements may have
//     appeared, vanished, or been rewired; no per-constraint reasoning is
//     safe);
//   - property clock moved   -> re-evaluate "non-local" constraints (those
//     whose conditions can read arbitrary elements through calls, member
//     chains, or quantifiers);
//   - per-element stamp moved-> re-evaluate the "local" constraints attached
//     to that element (conditions built only from the element's own
//     properties, globals, and literals — the common threshold form).
//
// The clocks are process-global atomics rather than per-System state because
// repairs mutate nested representation systems (the paper's ServerGrpRep)
// through their own System objects; a per-root counter would miss those.
// Cross-system false sharing only costs a spurious re-evaluation, never a
// stale verdict.
// arclint: hotpath — steady-state code: no std::function (heap-owning
// type erasure); util::SmallFn, templates, or plain data only.
#pragma once

#include <cstdint>

namespace arcadia::model {

/// Current property-write clock (monotonic, starts > 0).
std::uint64_t property_clock();
/// Advance and return the property-write clock.
std::uint64_t bump_property_clock();

/// Current structural-edit clock.
std::uint64_t structure_clock();
/// Advance and return the structural-edit clock.
std::uint64_t bump_structure_clock();

/// While alive, the clocks on this thread read the given bases plus this
/// thread's own bumps since, hiding other threads' concurrent ones: the
/// fleet sweep pins each shard to the barrier's clocks while other shards
/// flush and repair. Open with bases read outside any view; do not nest.
class ClockView {
 public:
  ClockView(std::uint64_t structure_base, std::uint64_t property_base);
  ~ClockView();
  ClockView(const ClockView&) = delete;
  ClockView& operator=(const ClockView&) = delete;
};

}  // namespace arcadia::model
