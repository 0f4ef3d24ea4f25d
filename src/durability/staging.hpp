// Per-shard journal staging for the sharded simulation kernel. Under
// SimCoordinator, a tenant's RepairEngine/ArchitectureManager emit journal
// records from whatever pool worker runs the shard's window — they cannot
// write to the shared DurabilityPlane directly (it is single-writer and its
// byte stream must not depend on worker interleaving). Each shard instead
// gets a private StagingSink that records calls verbatim, in emission order,
// tagged with a per-sink sequence number; at every window barrier the fleet
// drains all sinks through a k-way merge by (time, shard, seq) into the real
// plane. The merged order is a total order independent of the worker count,
// so journal bytes stay bit-identical for 1 vs N simulation threads, both
// for records emitted in windows and in the fleet's parallel sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "durability/sink.hpp"

namespace arcadia::durability {

/// Records every JournalSink call for later replay into a downstream sink.
/// Confined to one shard's lane between drains; drained (replayed and
/// cleared) only at coordinator barriers.
class StagingSink : public JournalSink {
 public:
  struct Record {
    enum class Kind : std::uint8_t { Ops, PlanEvent, GaugeApplied };
    Kind kind;
    std::uint32_t shard = 0;
    SimTime at;
    std::uint64_t seq = 0;  // emission order within this sink
    // Ops
    std::uint64_t repair_index = 0;  // also PlanEvent
    bool compensation = false;
    std::vector<model::OpRecord> ops;
    // PlanEvent
    std::string phase;
    std::uint64_t steps = 0;
    // GaugeApplied
    util::Symbol element;
    util::Symbol sub;
    util::Symbol property;
    events::Value value;
  };

  void on_ops(std::uint32_t shard, SimTime at, std::uint64_t repair_index,
              bool compensation,
              const std::vector<model::OpRecord>& ops) override {
    Record r;
    r.kind = Record::Kind::Ops;
    r.shard = shard;
    r.at = at;
    r.seq = next_seq_++;
    r.repair_index = repair_index;
    r.compensation = compensation;
    r.ops = ops;
    records_.push_back(std::move(r));
  }

  void on_plan_event(std::uint32_t shard, SimTime at, const std::string& phase,
                     std::uint64_t repair_index, std::uint64_t steps) override {
    Record r;
    r.kind = Record::Kind::PlanEvent;
    r.shard = shard;
    r.at = at;
    r.seq = next_seq_++;
    r.repair_index = repair_index;
    r.phase = phase;
    r.steps = steps;
    records_.push_back(std::move(r));
  }

  void on_gauge_applied(std::uint32_t shard, SimTime at, util::Symbol element,
                        util::Symbol sub, util::Symbol property,
                        const events::Value& value) override {
    Record r;
    r.kind = Record::Kind::GaugeApplied;
    r.shard = shard;
    r.at = at;
    r.seq = next_seq_++;
    r.element = element;
    r.sub = sub;
    r.property = property;
    r.value = value;
    records_.push_back(std::move(r));
  }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const Record& at(std::size_t i) const { return records_[i]; }

  /// Replay record `i` into `sink` (the real DurabilityPlane).
  void replay(std::size_t i, JournalSink& sink) const {
    const Record& r = records_[i];
    switch (r.kind) {
      case Record::Kind::Ops:
        sink.on_ops(r.shard, r.at, r.repair_index, r.compensation, r.ops);
        break;
      case Record::Kind::PlanEvent:
        sink.on_plan_event(r.shard, r.at, r.phase, r.repair_index, r.steps);
        break;
      case Record::Kind::GaugeApplied:
        sink.on_gauge_applied(r.shard, r.at, r.element, r.sub, r.property,
                              r.value);
        break;
    }
  }

  void clear() { records_.clear(); }

 private:
  std::vector<Record> records_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace arcadia::durability
