// Race stress: hammer every shared-state substrate from multiple host
// threads so the TSan lane (ARCADIA_SANITIZE=thread) has real contention to
// chew on. The assertions here are deliberately weak — the point is the
// interleaving, not the arithmetic; TSan (and the thread-safety
// annotations) supply the real oracle. Iteration counts are modest: the
// suite must stay fast under TSan's ~5-15x slowdown on a single core.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "acme/adl.hpp"
#include "acme/script.hpp"
#include "core/fleet.hpp"
#include "core/framework_builder.hpp"
#include "events/bus.hpp"
#include "monitor/topics.hpp"
#include "repair/scripts.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/shard_sim.hpp"
#include "util/annotations.hpp"
#include "util/log.hpp"
#include "util/symbol.hpp"
#include "util/thread_pool.hpp"

namespace arcadia {
namespace {

// ---- LocalEventBus: publish vs subscribe vs unsubscribe ------------------

TEST(RaceStressTest, BusPublishSubscribeUnsubscribeStorm) {
  events::LocalEventBus bus;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::atomic<std::uint64_t> handled{0};

  // A long-lived subscriber so publishes always have at least one match.
  const events::SubscriptionId anchor = bus.subscribe(
      events::Filter::topic("stress.topic"),
      [&](const events::Notification&) {
        handled.fetch_add(1, std::memory_order_relaxed);
      });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bus, &handled, t] {
      for (int i = 0; i < kRounds; ++i) {
        // Churn a short-lived subscription while other threads publish:
        // exercises slot reuse + generation bumps under the bus mutex.
        const events::SubscriptionId id = bus.subscribe(
            events::Filter::topic("stress.topic"),
            [&handled](const events::Notification&) {
              handled.fetch_add(1, std::memory_order_relaxed);
            });
        events::Notification n(util::Symbol::intern("stress.topic"));
        n.set("thread", events::Value(static_cast<std::int64_t>(t)));
        n.set("round", events::Value(static_cast<std::int64_t>(i)));
        bus.publish(std::move(n));
        bus.unsubscribe(id);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  bus.unsubscribe(anchor);

  // Quiescent read: all publishers joined, so the unlocked stats() accessor
  // is safe (this is the documented contract on LocalEventBus::stats).
  const events::BusStats& stats = bus.stats();
  EXPECT_EQ(stats.published, static_cast<std::uint64_t>(kThreads) * kRounds);
  // Every publish saw the anchor; the churn subscriber may or may not catch
  // publishes from other threads depending on interleaving.
  EXPECT_GE(handled.load(), stats.published);
  EXPECT_EQ(stats.delivered, handled.load());
}

// ---- Symbol interning: concurrent intern of overlapping name sets --------

TEST(RaceStressTest, ConcurrentInterningIsConsistent) {
  constexpr int kThreads = 4;
  constexpr int kNames = 64;
  std::vector<std::vector<util::Symbol>> per_thread(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&per_thread, t] {
      per_thread[t].reserve(kNames);
      for (int i = 0; i < kNames; ++i) {
        // Every thread interns the same names in a different order, so the
        // first-wins insertion races constantly.
        const int idx = (i * 7 + t * 13) % kNames;
        per_thread[t].push_back(util::Symbol::intern(
            "race.sym." + std::to_string(idx)));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // All threads must agree: same text -> same id, and the id must resolve
  // back to the text that was interned.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kNames; ++i) {
      const int idx = (i * 7 + t * 13) % kNames;
      const util::Symbol sym = per_thread[t][i];
      EXPECT_EQ(sym.str(), "race.sym." + std::to_string(idx));
      EXPECT_EQ(sym, util::Symbol::intern("race.sym." + std::to_string(idx)));
    }
  }
}

// ---- Logger: log vs set_level vs set_sink --------------------------------

TEST(RaceStressTest, LoggerLevelAndSinkChurn) {
  Logger& log = Logger::instance();
  std::atomic<std::uint64_t> sunk{0};
  log.set_sink([&sunk](LogLevel, const std::string&) {
    sunk.fetch_add(1, std::memory_order_relaxed);
  });
  log.set_level(LogLevel::Info);

  std::atomic<bool> stop{false};
  std::thread flipper([&log, &stop] {
    // set_level is the documented lock-free knob (atomic); set_sink swaps
    // the callable under the logger mutex. Both race the writers below.
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      log.set_level(i % 2 ? LogLevel::Info : LogLevel::Warn);
      std::this_thread::yield();
      ++i;
    }
  });

  constexpr int kThreads = 3;
  constexpr int kLines = 300;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        ARC_WARN << "race stress t" << t << " line " << i;
      }
    });
  }
  for (std::thread& th : writers) th.join();
  stop.store(true);
  flipper.join();

  // Warn passes both level settings, so every line must have reached a sink.
  EXPECT_EQ(sunk.load(), static_cast<std::uint64_t>(kThreads) * kLines);

  // Restore defaults for the rest of the process.
  log.set_sink(nullptr);
  log.set_level(LogLevel::Warn);
}

// ---- ThreadPool: submit storm from many threads + parallel_for ------------

TEST(RaceStressTest, ThreadPoolSubmitStorm) {
  ThreadPool pool(3);
  constexpr int kProducers = 3;
  constexpr int kTasks = 100;
  std::atomic<std::uint64_t> ran{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &ran] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasks);
      for (int i = 0; i < kTasks; ++i) {
        futures.push_back(pool.submit(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
      }
      for (std::future<void>& f : futures) f.get();
    });
  }
  for (std::thread& th : producers) th.join();
  EXPECT_EQ(ran.load(), static_cast<std::uint64_t>(kProducers) * kTasks);

  // parallel_for on the same (now idle) pool still works after the storm.
  std::vector<int> hits(64, 0);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// ---- Fleet: parallel barrier sweep vs batched gauge application ----------

events::Notification gauge_report(const std::string& element,
                                  const std::string& property, double value) {
  events::Notification n(monitor::topics::kGaugeReport);
  n.set(monitor::topics::kAttrElement, events::Value(element));
  n.set(monitor::topics::kAttrProperty, events::Value(property));
  n.set(monitor::topics::kAttrValue, events::Value(value));
  return n;
}

/// Minimal shard (mirrors tests/test_fleet.cpp): one-component model, local
/// gauge bus, model-only repair engine, passive architecture manager.
struct ShardRig {
  explicit ShardRig(sim::Simulator& sim, const std::string& component)
      : system("ShardSys") {
    auto& comp = system.add_component(component, "ClientT");
    comp.set_property("averageLatency", model::PropertyValue(0.5));
    static acme::Script script = acme::parse_script(repair::extended_script());
    engine = std::make_unique<repair::RepairEngine>(
        sim, system, script, nullptr, nullptr, nullptr,
        repair::RepairEngineConfig{});
    core::ArchManagerConfig cfg;
    cfg.passive = true;
    manager = std::make_unique<core::ArchitectureManager>(sim, system, bus,
                                                          *engine, cfg);
    manager->checker().add_constraint("lat:" + component, component,
                                      "averageLatency <= 2.0", "");
  }

  model::System system;
  events::LocalEventBus bus;
  std::unique_ptr<repair::RepairEngine> engine;
  std::unique_ptr<core::ArchitectureManager> manager;
};

TEST(RaceStressTest, FleetParallelSweepUnderReportLoad) {
  // Coordinator-bound rig: six shards, each built on its ShardSimulator
  // inside its lane, swept by a FleetManager that runs on the
  // coordinator's four workers.
  constexpr int kShards = 6;
  sim::Simulator control;
  sim::SimCoordinatorOptions copt;
  copt.threads = 4;  // force the workers even on a 1-core host
  sim::SimCoordinator coord(control, copt);
  std::vector<std::unique_ptr<ShardRig>> rigs;
  for (int s = 0; s < kShards; ++s) {
    sim::ShardSimulator& shard = coord.add_shard();
    util::SerialLane in_lane(shard.lane());
    rigs.push_back(std::make_unique<ShardRig>(
        shard.sim(), "Client" + std::to_string(s)));
  }

  core::FleetManagerConfig cfg;
  cfg.first_check = SimTime::seconds(1e6);  // sweeps driven manually below
  cfg.coalesce_window = SimTime::millis(500);
  cfg.skip_clean_shards = false;
  auto fleet = std::make_unique<core::FleetManager>(control, cfg);
  for (int s = 0; s < kShards; ++s) {
    fleet->add_shard("tenant" + std::to_string(s), *rigs[s]->manager,
                     rigs[s]->bus);
  }
  fleet->bind_coordinator(coord);
  fleet->start();
  EXPECT_EQ(fleet->sweep_threads(), 4u);

  // Alternate breach / recover across all shards, sweeping between waves.
  // Each sweep flushes, detects and dispatches on the workers, against
  // shard models this thread just fed through the shards' buses — the
  // handoff the parallel sweep must keep race-free.
  constexpr int kWaves = 10;
  for (int w = 0; w < kWaves; ++w) {
    const double value = (w % 2 == 0) ? 5.0 : 0.5;  // breach : recover
    for (int s = 0; s < kShards; ++s) {
      util::SerialLane in_lane(coord.shard(s).lane());
      rigs[s]->bus.publish(gauge_report("Client" + std::to_string(s),
                                        "averageLatency", value));
    }
    fleet->run_sweep();
  }
  fleet->stop();

  const core::FleetStats& stats = fleet->stats();
  EXPECT_EQ(stats.sweep_rounds, static_cast<std::uint64_t>(kWaves));
  EXPECT_EQ(stats.shard_sweeps, static_cast<std::uint64_t>(kShards) * kWaves);
  std::uint64_t violations = 0;
  for (int s = 0; s < kShards; ++s) {
    const core::FleetShardStats& ss = fleet->shard_stats(s);
    EXPECT_EQ(ss.reports_enqueued, static_cast<std::uint64_t>(kWaves));
    violations += ss.violations;
  }
  // Half the waves breach on every shard.
  EXPECT_GE(violations, static_cast<std::uint64_t>(kShards) * (kWaves / 2));

  // Teardown touches each shard's serial domains: do it in the lanes, after
  // the manager has let go of the buses.
  fleet.reset();
  for (int s = 0; s < kShards; ++s) {
    util::SerialLane in_lane(coord.shard(s).lane());
    rigs[s].reset();
  }
}

// ---- sharded simulation kernel: 4 shards x 4 worker threads ---------------

struct ShardStressFingerprint {
  std::vector<std::uint64_t> work;       // per-shard tick counters
  std::vector<std::uint64_t> mail_hits;  // per-shard mail deliveries
  std::vector<std::uint64_t> sweeps;     // control-side sums, per sweep
  std::uint64_t shard_events = 0;
  std::uint64_t mail_delivered = 0;
  std::uint64_t rounds = 0;

  bool operator==(const ShardStressFingerprint&) const = default;
};

/// Synthetic gauge load on the raw coordinator: every shard runs a 1 ms
/// tick chain; every fifth tick posts mail to the next shard in the ring at
/// exactly the lookahead bound (the tightest legal cross-shard delay). A
/// control-side sweep reads all shard counters at barrier epochs — the pool
/// join at each barrier is the happens-before edge that makes that legal.
ShardStressFingerprint run_shard_mail_stress(unsigned threads) {
  constexpr std::uint32_t kSimShards = 4;
  const SimTime lookahead = SimTime::millis(10);
  const SimTime horizon = SimTime::seconds(2);

  sim::Simulator control;
  sim::SimCoordinatorOptions copt;
  copt.threads = threads;
  copt.lookahead = lookahead;
  sim::SimCoordinator coord(control, copt);

  std::vector<std::uint64_t> work(kSimShards, 0);
  std::vector<std::uint64_t> mail_hits(kSimShards, 0);
  std::vector<std::uint64_t> sweeps;
  for (std::uint32_t s = 0; s < kSimShards; ++s) coord.add_shard();

  // Each self-rescheduling closure owns the holder it lives in (a reference
  // cycle); the holders are kept here so the cycles are broken after the
  // run.
  std::vector<std::shared_ptr<std::function<void()>>> holders;
  for (std::uint32_t s = 0; s < kSimShards; ++s) {
    // The tick chain captures itself via a heap-pinned holder so every
    // reschedule reuses one closure, like PeriodicTask does.
    auto tick = std::make_shared<std::function<void()>>();
    holders.push_back(tick);
    *tick = [&, s, tick] {
      ++work[s];
      if (work[s] % 5 == 0) {
        const std::uint32_t to = (s + 1) % kSimShards;
        coord.post(s, to, coord.shard(s).sim().now() + lookahead,
                   [&mail_hits, to] { ++mail_hits[to]; });
      }
      if (coord.shard(s).sim().now() + SimTime::millis(1) < horizon) {
        coord.shard(s).sim().schedule_in(SimTime::millis(1),
                                         [tick] { (*tick)(); });
      }
    };
    coord.shard(s).sim().schedule_at(SimTime::millis(1) * (s + 1),
                                     [tick] { (*tick)(); });
  }

  auto sweep = std::make_shared<std::function<void()>>();
  holders.push_back(sweep);
  *sweep = [&, sweep] {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < kSimShards; ++s) sum += work[s];
    sweeps.push_back(sum);
    if (control.now() + SimTime::millis(50) < horizon) {
      control.schedule_in(SimTime::millis(50), [sweep] { (*sweep)(); });
    }
  };
  control.schedule_at(SimTime::millis(50), [sweep] { (*sweep)(); });

  coord.run_until(horizon);
  for (auto& holder : holders) *holder = nullptr;

  ShardStressFingerprint fp;
  fp.work = work;
  fp.mail_hits = mail_hits;
  fp.sweeps = sweeps;
  fp.shard_events = coord.stats().shard_events;
  fp.mail_delivered = coord.stats().mail_delivered;
  fp.rounds = coord.stats().rounds;
  return fp;
}

TEST(RaceStressTest, FourShardsFourThreadsWithMailMatchSerialRun) {
  const ShardStressFingerprint serial = run_shard_mail_stress(1);
  const ShardStressFingerprint parallel = run_shard_mail_stress(4);
  EXPECT_EQ(serial, parallel);
  // Vacuity guards: every shard ticked, mail really crossed shards, and the
  // finite lookahead actually chopped the run into many windows.
  for (std::size_t s = 0; s < serial.work.size(); ++s) {
    EXPECT_GT(serial.work[s], 100u) << "shard " << s;
    EXPECT_GT(serial.mail_hits[s], 0u) << "shard " << s;
  }
  EXPECT_GT(serial.mail_delivered, 0u);
  EXPECT_GT(serial.rounds, 10u);
  EXPECT_FALSE(serial.sweeps.empty());
}

TEST(RaceStressTest, ForEachShardRethrowsLowestShardAfterRunningAll) {
  // Three of eight shards throw on every call; on four workers the first
  // throw to happen varies, the rethrown one must not.
  sim::Simulator control;
  sim::SimCoordinatorOptions copt;
  copt.threads = 4;
  sim::SimCoordinator coord(control, copt);
  constexpr std::size_t kShards = 8;
  for (std::size_t s = 0; s < kShards; ++s) coord.add_shard();
  std::vector<std::uint64_t> calls(kShards, 0);
  constexpr int kRounds = 50;
  for (int r = 0; r < kRounds; ++r) {
    try {
      coord.for_each_shard([&](std::size_t i) {
        EXPECT_EQ(util::SerialLane::current(), coord.shard(i).lane());
        ++calls[i];
        if (i == 3 || i == 5 || i == 7) {
          throw std::runtime_error("shard " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "round " << r << ": for_each_shard did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 3") << "round " << r;
    }
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(calls[s], static_cast<std::uint64_t>(kRounds)) << "shard " << s;
  }
}

TEST(RaceStressTest, ShardedFleetUnderGaugeLoadAndFaults) {
  // The full stack on 4 worker threads: per-tenant gauges, batched fleet
  // sweeps, fault draws, repairs. Runs green under TSan or the windows'
  // thread discipline is broken.
  sim::Simulator sim;
  core::FleetOptions opt;
  opt.scenario = "fleet-4x16";
  opt.tenants = 4;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults("fleet-4x16");
  opt.config.grid.groups = 2;
  opt.config.grid.clients = 8;
  opt.config.grid.spares = 1;
  opt.config.quiescent_end = SimTime::seconds(40);
  opt.config.stress_start = SimTime::seconds(80);
  opt.config.stress_end = SimTime::seconds(220);
  opt.config.normal_rate_hz = 2.0;
  opt.config.fleet.phase_shift = SimTime::seconds(30);
  opt.config.fault.enabled = true;
  opt.config.fault.monitoring.report_loss = 0.10;
  opt.config.fault.repair.op_transient = 0.10;
  opt.manager.coalesce_window = SimTime::millis(500);
  opt.sim_threads = 4;
  auto fleet = core::FrameworkBuilder::build_fleet(sim, opt);
  fleet->start();
  fleet->run_until(SimTime::seconds(320));

  ASSERT_NE(fleet->coordinator(), nullptr);
  const sim::SimCoordinatorStats stats = fleet->coordinator()->stats();
  EXPECT_GT(stats.shard_events, 0u);
  EXPECT_GT(stats.rounds, 0u);
  std::uint64_t repairs = 0;
  for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet->tenant(t);
    util::SerialLane in_lane(tenant.lane());
    repairs += tenant.framework->engine().records().size();
  }
  EXPECT_GT(repairs, 0u);
}

}  // namespace
}  // namespace arcadia
