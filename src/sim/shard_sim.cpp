// arclint: shard — see shard_sim.hpp; cross-shard effects route through the
// coordinator seam only.
#include "sim/shard_sim.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace arcadia::sim {

SimCoordinator::SimCoordinator(Simulator& control,
                               SimCoordinatorOptions options)
    : control_(control), options_(options) {}

SimCoordinator::~SimCoordinator() = default;

ShardSimulator& SimCoordinator::add_shard() {
  const auto id = static_cast<std::uint32_t>(shards_.size());
  shards_.push_back(std::make_unique<ShardSimulator>(id));
  outbox_.emplace_back();
  mail_seq_.push_back(0);
  return *shards_.back();
}

unsigned SimCoordinator::effective_threads() const {
  unsigned t = options_.threads;
  if (t == 0) t = std::max(1u, std::thread::hardware_concurrency());
  // More workers than shards never helps: a shard is serial in a window.
  return static_cast<unsigned>(
      std::min<std::size_t>(t, std::max<std::size_t>(1, shards_.size())));
}

void SimCoordinator::post(std::uint32_t from, std::uint32_t to, SimTime at,
                          util::SmallFn<void()> fn) {
  if (from >= shards_.size() || to >= shards_.size()) {
    throw SimError("SimCoordinator::post: bad shard id " +
                   std::to_string(from) + " -> " + std::to_string(to));
  }
  assert(util::SerialLane::current() == shards_[from]->lane() &&
         "post() must be called from the source shard's lane");
  outbox_[from].push_back(Mail{at, from, to, mail_seq_[from]++, std::move(fn)});
}

void SimCoordinator::for_each_shard(
    const std::function<void(std::size_t)>& fn) {
  // Which worker runs which shard varies run to run and does not matter:
  // each call is serial in its shard's lane; merge points are ordered.
  auto in_lane = [this, &fn](std::size_t i) {
    util::SerialLane lane(shards_[i]->lane());
    fn(i);
  };
  if (effective_threads() <= 1) {
    for (std::size_t i = 0; i < shards_.size(); ++i) in_lane(i);
    return;
  }
  if (!pool_) pool_ = std::make_unique<ThreadPool>(effective_threads());
  pool_->parallel_for(shards_.size(), in_lane);
}

void SimCoordinator::deliver_mail(SimTime bound) {
  std::size_t total = 0;
  for (const auto& box : outbox_) total += box.size();
  if (total == 0) return;
  std::vector<Mail> merged;
  merged.reserve(total);
  for (auto& box : outbox_) {
    for (auto& m : box) merged.push_back(std::move(m));
    box.clear();
  }
  // (at, from, seq) is a total order independent of which worker ran which
  // shard; scheduling in this order fixes the target-side FIFO tie-break.
  std::sort(merged.begin(), merged.end(), [](const Mail& a, const Mail& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.from != b.from) return a.from < b.from;
    return a.seq < b.seq;
  });
  for (auto& m : merged) {
    if (m.at < bound) {
      throw SimError("cross-shard mail at t=" +
                     std::to_string(m.at.as_seconds()) +
                     "s violates lookahead (barrier bound t=" +
                     std::to_string(bound.as_seconds()) + "s)");
    }
    shards_[m.to]->sim().schedule_at(m.at, std::move(m.fn));
  }
  stats_.mail_delivered += total;
}

std::uint64_t SimCoordinator::run_until(SimTime horizon) {
  std::uint64_t ran = 0;
  while (control_.now() < horizon) {
    // Conservative bound: nothing can affect another shard strictly before
    // it. Control events (sweeps, snapshots) are the only coupling in the
    // fleet; post() mail additionally respects the configured lookahead.
    SimTime bound = horizon;
    const SimTime ctl = control_.peek_next_time();
    if (ctl < bound) bound = ctl;
    if (!options_.lookahead.is_infinite()) {
      const SimTime reach = control_.now() + options_.lookahead;
      if (reach < bound) bound = reach;
    }
    const std::uint64_t before = stats_.shard_events;
    for_each_shard([this, bound](std::size_t i) {
      shards_[i]->advance_to(bound);
    });
    std::uint64_t after = 0;
    for (const auto& s : shards_) after += s->events();
    stats_.shard_events = after;
    ran += after - before;
    deliver_mail(bound);
    if (barrier_hook_) barrier_hook_(bound);
    const std::uint64_t ctl_ran = control_.run_until(bound);
    stats_.control_events += ctl_ran;
    ran += ctl_ran;
    ++stats_.rounds;
  }
  // Leave every clock at the horizon (control_.run_until already clamped).
  for (auto& s : shards_) s->advance_to(horizon);
  return ran;
}

SimCoordinatorStats SimCoordinator::stats() const {
  SimCoordinatorStats out = stats_;
  std::uint64_t shard_events = 0;
  for (const auto& s : shards_) shard_events += s->events();
  out.shard_events = shard_events;
  return out;
}

}  // namespace arcadia::sim
