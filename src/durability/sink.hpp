// The journal-emission seam. RepairEngine and ArchitectureManager hold a
// JournalSink pointer (null when durability is off — zero overhead, no
// behavioral change); the DurabilityPlane implements it. A solo framework
// calls it on the simulation thread; a fleet tenant calls its own
// StagingSink (staging.hpp), drained in shard order at barriers, so
// journal bytes are identical for any simulation-thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "events/value.hpp"
#include "model/transaction.hpp"
#include "util/symbol.hpp"
#include "util/units.hpp"

namespace arcadia::durability {

class JournalSink {
 public:
  virtual ~JournalSink() = default;

  /// A committed transaction's op records (the engine's execute commit, or
  /// a plan-abort compensation batch when `compensation`).
  virtual void on_ops(std::uint32_t shard, SimTime at,
                      std::uint64_t repair_index, bool compensation,
                      const std::vector<model::OpRecord>& ops) = 0;

  /// A plan lifecycle transition (phase = monitor::topics symbol text).
  virtual void on_plan_event(std::uint32_t shard, SimTime at,
                             const std::string& phase,
                             std::uint64_t repair_index,
                             std::uint64_t steps) = 0;

  /// One applied gauge-report delta (dead-banded Unchanged results are not
  /// reported — only writes that changed the model). Identities are the
  /// model's interned symbols: this is a per-report hot path, and passing
  /// ids instead of strings keeps it allocation-free.
  virtual void on_gauge_applied(std::uint32_t shard, SimTime at,
                                util::Symbol element, util::Symbol sub,
                                util::Symbol property,
                                const events::Value& value) = 0;
};

}  // namespace arcadia::durability
