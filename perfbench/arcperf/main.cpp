// arcperf: the benchmark harness. One process runs one workload.
//
//   arcperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out <dir>]
//   arcperf --selfcheck        metric math on fixed synthetic inputs
//   arcperf --list-metrics     metric names and units, one per line
//
// --trace 0 repeats full passes of the workload until --seconds have gone
// by (at least kMinPasses), each followed by set-up-only passes, and
// reports the end-to-end metrics. sim_s_per_s sums each deployment's
// fastest run phase across passes; setup_s sums each deployment's median
// set-up across all passes. Sim-time metrics come from the first pass,
// after checking that every pass reproduced them bit for bit; the latency
// percentiles are exact, from bin counts of pass 1 and the samples pass 2
// keeps in the bins that hold them. --trace 1 runs untraced, traced and
// untraced passes plus the A/B probes and reports the per-layer metrics.
// The last stdout line is the JSON result; the exit code is 0 only when it
// says correct.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace arcperf {
namespace {

using Clock = std::chrono::steady_clock;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Only metrics defined for every workload are end-to-end results; restore_s
// exists on lossy-journal alone and is printed beside them.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"sim_s_per_s", "sim_s/s"},
    {"peak_rss_mb", "MB"},
    {"response_p50_sim_s", "sim_s"},
    {"response_p999_sim_s", "sim_s"},
    {"slo_miss_ratio", "ratio"},
    {"repair_mean_sim_s", "sim_s"},
    {"repair_p80_sim_s", "sim_s"},
    {"repair_ok_ratio", "ratio"},
    {"case_ok_ratio", "ratio"},
};

const std::vector<MetricDef> kPerLayer = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.pool_growths", "count"},
    {"sim.queue_growths", "count"},
    {"sim.coord.rounds", "count"},
    {"sim.coord.ns_per_round", "ns"},
    {"sim.coord.shard_events", "count"},
    {"sim.coord.mail_delivered", "count"},
    {"sim.net.reallocations", "count"},
    {"sim.net.waterfill_rounds", "count"},
    {"events.probe_bus.delivered", "count"},
    {"events.gauge_bus.published", "count"},
    {"events.gauge_bus.delivered", "count"},
    {"events.dropped_no_match", "count"},
    {"monitor.gauge_reports", "count"},
    {"monitor.redeploys", "count"},
    {"monitor.redeploy_batches", "count"},
    {"monitor.suspects_marked", "count"},
    {"remos.queries", "count"},
    {"remos.cold_queries", "count"},
    {"remos.prequery_s", "s"},
    {"core.setup.scenario_s", "s"},
    {"core.setup.build_s", "s"},
    {"core.setup.start_s", "s"},
    {"core.setup.verify_s", "s"},
    {"core.check_wall_s", "s"},
    {"core.fleet.sweep_wall_s", "s"},
    {"core.fleet.sweep_share", "ratio"},
    {"core.fleet.coalesced_ratio", "ratio"},
    {"core.fleet.sweeps_skipped_ratio", "ratio"},
    {"repair.committed", "count"},
    {"repair.aborted", "count"},
    {"repair.plan_steps_executed", "count"},
    {"repair.plan_steps_merged", "count"},
    {"repair.ops_retried", "count"},
    {"repair.ops_timed_out", "count"},
    {"repair.check.evaluations", "count"},
    {"repair.check.cache_hit_ratio", "ratio"},
    {"runtime.ops", "count"},
    {"runtime.translate_s", "s"},
    {"fault.reports_lost", "count"},
    {"fault.reports_duplicated", "count"},
    {"fault.reports_delayed", "count"},
    {"fault.ops_failed", "count"},
    {"durability.journal_bytes", "bytes"},
    {"durability.records", "count"},
    {"durability.plane_wall_s", "s"},
    {"durability.ab_share", "ratio"},
    {"durability.restore_open_s", "s"},
    {"durability.restore_reexec_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

constexpr int kMinPasses = 3;
/// Wall spent on set-up-only passes after each full pass, as a share of
/// that pass's wall.
constexpr double kSetupShare = 0.15;
/// Repetitions of each side of a set-up A/B probe in the traced run.
constexpr int kAbReps = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Row {
  std::string name;
  double value;
  std::string unit;
  std::string samples;
};

void print_table(const std::vector<Row>& rows) {
  std::printf("%-34s %22s  %-8s %s\n", "metric", "value", "unit", "samples");
  for (const Row& r : rows) {
    std::printf("%-34s %22s  %-8s %s\n", r.name.c_str(), num(r.value).c_str(),
                r.unit.c_str(), r.samples.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    o << (first ? "" : ", ") << '"' << d.name << "\": {\"value\": "
      << num(values.at(d.name)) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/out";
};

/// Failures of one pass, reported and counted.
std::uint64_t report_failures(const PassResult& r, const char* what) {
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "FAIL (%s): %s\n", what, f.c_str());
  }
  const std::uint64_t failed = r.cases - r.cases_ok;
  return failed;
}

/// A full pass must count exactly the deployment-sim-seconds its workload's
/// configs describe: tenants x horizon, once per deployment, however often
/// a restore re-executed part of it.
bool accounting_ok(const Workload& wl, const PassResult& r, const char* what) {
  const double want = wl.expected_deployment_sim_s();
  if (r.deployment_sim_s == want) return true;
  std::fprintf(stderr,
               "FAIL (%s): counted %.17g deployment-sim-s, the configs "
               "describe %.17g\n",
               what, r.deployment_sim_s, want);
  return false;
}

/// Exact p-quantile, in sim seconds, from pass 1's bins and the samples
/// pass 2 kept.
double latency_percentile(const BinRank& r,
                          const std::vector<std::int64_t>& kept) {
  std::vector<std::int64_t> in_bin;
  for (std::int64_t us : kept) {
    if (sample_bin(static_cast<std::uint64_t>(us)) == r.bin) {
      in_bin.push_back(us);
    }
  }
  return select_in_bin(std::move(in_bin), r) / 1e6;  // whole microseconds
}

// ---------------------------------------------------------------- timed ----

int run_timed(Workload& wl, const Args& a) {
  const auto t_start = Clock::now();
  Tracer off(false);
  Knobs full;
  Knobs setup_only;
  setup_only.setup_only = true;
  // Only pass 1 is kept whole; later passes must reproduce its sim-time
  // outcome bit for bit and contribute their wall times. Pass 2 also keeps
  // the latency samples of the bins that hold p50 and p999.
  PassResult first;
  BinRank r50, r999;
  std::vector<std::int64_t> kept;
  int passes = 0, setup_passes = 0;
  std::vector<std::vector<double>> case_setups;  // per deployment
  std::vector<double> restores;
  std::vector<double> best_case_run;  // per deployment, min over passes
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  auto add_setups = [&](const PassResult& p) {
    if (case_setups.empty()) case_setups.resize(p.case_setup_s.size());
    if (p.case_setup_s.size() != case_setups.size()) {
      correct = false;  // a deployment threw before its start() returned
      return;
    }
    for (std::size_t i = 0; i < case_setups.size(); ++i) {
      case_setups[i].push_back(p.case_setup_s[i]);
    }
  };
  // A pass plus its set-up passes; the loop stops when the next one would
  // overrun --seconds, so a run ends inside its time budget.
  std::vector<double> cycles;
  while (passes < kMinPasses ||
         since(t_start) + median_of(cycles) <= a.seconds) {
    const auto t_pass = Clock::now();
    PassResult p = wl.pass(full, off);
    const double pass_wall = since(t_pass);
    ++passes;
    std::fprintf(stderr, "pass %d: setup %.6f s, run %.6f s\n", passes,
                 p.setup_s, p.run_s);
    attempted += p.cases;
    failed += report_failures(p, "pass");
    if (!accounting_ok(wl, p, "pass")) correct = false;
    add_setups(p);
    if (p.restores) restores.push_back(p.restore_open_s + p.restore_reexec_s);
    if (best_case_run.empty()) best_case_run = p.case_run_s;
    if (p.case_run_s.size() != best_case_run.size()) {
      correct = false;  // a deployment threw before its run phase ended
    } else {
      for (std::size_t i = 0; i < best_case_run.size(); ++i) {
        best_case_run[i] = std::min(best_case_run[i], p.case_run_s[i]);
      }
    }
    if (passes == 1) {
      r50 = locate_rank(p.latency_counts, 0.5);
      r999 = locate_rank(p.latency_counts, 0.999);
      full.keep_bins = {r50.bin};
      if (r999.bin != r50.bin) full.keep_bins.push_back(r999.bin);
      first = std::move(p);
    } else {
      if (p.sim_digest() != first.sim_digest()) {
        std::fprintf(stderr,
                     "FAIL: pass %d sim-time outcome differs from pass 1 "
                     "(same seed must be bit-identical)\n",
                     passes);
        correct = false;
      }
      if (passes == 2) {
        kept = std::move(p.latency_kept);
        full.keep_bins.clear();
      }
    }
    // Set-up-only passes ride along each full pass, so set-up samples
    // spread over the whole run like the run-phase samples do.
    const auto t_setup = Clock::now();
    do {
      PassResult q = wl.pass(setup_only, off);
      failed += report_failures(q, "set-up pass");
      attempted += q.cases;
      add_setups(q);
      ++setup_passes;
    } while (since(t_setup) < kSetupShare * pass_wall);
    cycles.push_back(since(t_pass));
  }
  double best_run_s = 0.0;
  for (double x : best_case_run) best_run_s += x;
  double setup_s = 0.0;
  for (const std::vector<double>& x : case_setups) setup_s += median_of(x);

  std::map<std::string, double> v;
  v["setup_s"] = setup_s;
  v["sim_s_per_s"] = first.deployment_sim_s / best_run_s;
  v["peak_rss_mb"] = peak_rss_mb();
  v["response_p50_sim_s"] = latency_percentile(r50, kept);
  v["response_p999_sim_s"] = latency_percentile(r999, kept);
  v["slo_miss_ratio"] = first.requests.slo_miss_ratio();
  v["repair_mean_sim_s"] = mean_of(first.repair_durations);
  v["repair_p80_sim_s"] = percentile(first.repair_durations, 0.8);
  v["repair_ok_ratio"] =
      ratio(static_cast<double>(first.repairs_committed),
            static_cast<double>(first.repairs_committed + first.repairs_aborted));
  v["case_ok_ratio"] = ratio(static_cast<double>(first.cases_ok),
                             static_cast<double>(first.cases));
  for (const auto& [name, value] : v) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "FAIL: %s has no value (too few samples)\n",
                   name.c_str());
      correct = false;
    }
  }
  if (failed > 0) correct = false;

  const std::string n_pass = std::to_string(passes) + " passes";
  const std::string n_lat = std::to_string(first.requests.completed) +
                            " responses (pass 1; " +
                            std::to_string(kept.size()) +
                            " kept by pass 2)";
  const std::string n_rep = std::to_string(first.repair_durations.size()) +
                            " committed repairs (pass 1)";
  std::vector<Row> rows = {
      {"setup_s", v["setup_s"], "s",
       std::to_string(case_setups.size()) + " deployments, median of " +
           std::to_string(passes + setup_passes) + " set-ups each (" +
           n_pass + " + " + std::to_string(setup_passes) + " set-up-only)"},
      {"sim_s_per_s", v["sim_s_per_s"], "sim_s/s",
       std::to_string(best_case_run.size()) +
           " deployments, fastest of " + n_pass + " each"},
      {"peak_rss_mb", v["peak_rss_mb"], "MB",
       "1 process; latencies binned, not stored"},
      {"restore_s", restores.empty() ? kNaN : median_of(restores), "s",
       restores.empty() ? "n/a: lossy-journal only"
                        : std::to_string(restores.size()) + " passes x " +
                              std::to_string(first.restores) + " restores"},
      {"response_p50_sim_s", v["response_p50_sim_s"], "sim_s", n_lat},
      {"response_p999_sim_s", v["response_p999_sim_s"], "sim_s", n_lat},
      {"slo_miss_ratio", v["slo_miss_ratio"], "ratio",
       std::to_string(first.requests.issued) + " issued, " +
           std::to_string(first.requests.late) + " late, " +
           std::to_string(first.requests.issued - first.requests.completed) +
           " unanswered"},
      {"repair_mean_sim_s", v["repair_mean_sim_s"], "sim_s", n_rep},
      {"repair_p80_sim_s", v["repair_p80_sim_s"], "sim_s", n_rep},
      {"repair_ok_ratio", v["repair_ok_ratio"], "ratio",
       std::to_string(first.repairs_committed) + " committed / " +
           std::to_string(first.repairs_committed + first.repairs_aborted) +
           " decided"},
      {"case_ok_ratio", v["case_ok_ratio"], "ratio",
       std::to_string(first.cases_ok) + " ok / " + std::to_string(first.cases) +
           " deployments, " + std::to_string(first.cases_checked) +
           " quiescent-checked"},
  };
  print_table(rows);
  std::printf("verdict: %s (%s; passes bit-identical in sim-time: %s)\n",
              correct ? "correct" : "INCORRECT",
              failed ? "failed deployments" : "no failed deployments",
              correct ? "yes" : "see FAIL lines");
  std::fflush(stdout);
  print_result(correct, attempted, failed, kEndToEnd, v);
  return correct ? 0 : 1;
}

// --------------------------------------------------------------- traced ----

/// Set-up A/B: `on` minus `off`, the two sides alternating per repetition.
double setup_ab(Workload& wl, const Knobs& on, const Knobs& off,
                std::uint64_t& failed) {
  Tracer none(false);
  std::vector<double> a, b;
  for (int i = 0; i < kAbReps; ++i) {
    Knobs first = i % 2 ? off : on, second = i % 2 ? on : off;
    first.setup_only = second.setup_only = true;
    PassResult p = wl.pass(first, none);
    PassResult q = wl.pass(second, none);
    failed += report_failures(p, "A/B set-up pass");
    failed += report_failures(q, "A/B set-up pass");
    (i % 2 ? b : a).push_back(p.setup_s);
    (i % 2 ? a : b).push_back(q.setup_s);
  }
  return median_of(a) - median_of(b);
}

void write_layer_summary(const std::string& path, const std::string& workload,
                         std::uint64_t seed, double pass_wall,
                         const std::map<std::string, double>& self) {
  std::ofstream f(path);
  f << "{\n  \"workload\": \"" << workload << "\",\n  \"seed\": " << seed
    << ",\n  \"pass_wall_s\": " << num(pass_wall) << ",\n  \"layers\": {";
  bool first = true;
  for (const auto& [layer, s] : self) {
    f << (first ? "\n" : ",\n") << "    \"" << layer << "\": {\"self_s\": "
      << num(s) << ", \"share\": " << num(ratio(s, pass_wall)) << "}";
    first = false;
  }
  f << "\n  }\n}\n";
}

int run_traced(Workload& wl, const Args& a, const std::string& name) {
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  Tracer off(false);
  Tracer tracer(true);

  // u also warms the process up, so the traced pass t compares against the
  // untraced pass u2 that follows it, not against a cold first pass.
  const PassResult u = wl.pass(Knobs{}, off);
  const PassResult t = wl.pass(Knobs{}, tracer);
  const PassResult u2 = wl.pass(Knobs{}, off);
  attempted += u.cases + t.cases + u2.cases;
  failed += report_failures(u, "untraced pass");
  failed += report_failures(t, "traced pass");
  failed += report_failures(u2, "untraced pass");
  if (t.sim_digest() != u.sim_digest() || u2.sim_digest() != u.sim_digest()) {
    std::fprintf(stderr, "FAIL: tracing changed the sim-time outcome\n");
    correct = false;
  }
  for (const PassResult* r : {&u, &t, &u2}) {
    if (!accounting_ok(wl, *r, "full pass")) correct = false;
  }

  std::map<std::string, double> v;
  for (const MetricDef& d : kPerLayer) v[d.name] = 0.0;
  for (const auto& [k, x] : t.layer) {
    if (v.count(k)) v[k] = x;
  }

  Knobs no_prequery;
  no_prequery.remos_prequery = false;
  v["remos.prequery_s"] = setup_ab(wl, Knobs{}, no_prequery, failed);
  Knobs no_verify;
  no_verify.verify = arcadia::core::VerifyMode::Off;
  v["core.setup.verify_s"] = setup_ab(wl, Knobs{}, no_verify, failed);
  attempted += 4 * kAbReps * u.cases;

  if (wl.fleet()) {
    Knobs one;
    one.sim_threads = 1;
    const PassResult p1 = wl.pass(one, off);
    attempted += p1.cases;
    failed += report_failures(p1, "1-thread pass");
    if (!accounting_ok(wl, p1, "1-thread pass")) correct = false;
    const bool same = p1.fingerprint == u.fingerprint &&
                      p1.sim_digest() == u.sim_digest();
    std::printf("fingerprint sim_threads=1: %016llx  sim_threads=4: %016llx"
                "  %s\n",
                static_cast<unsigned long long>(p1.fingerprint),
                static_cast<unsigned long long>(u.fingerprint),
                same ? "match" : "MISMATCH");
    if (!same) correct = false;
  }
  if (wl.durable()) {
    Knobs plain;
    plain.durable = false;
    Knobs uncrashed;
    uncrashed.crash = false;
    // plain, durable, durable, plain: a drift in host speed cancels.
    const PassResult p = wl.pass(plain, off);
    const PassResult d = wl.pass(uncrashed, off);
    const PassResult d2 = wl.pass(uncrashed, off);
    const PassResult p2 = wl.pass(plain, off);
    for (const PassResult* r : {&p, &d, &d2, &p2}) {
      attempted += r->cases;
      failed += report_failures(*r, "durability A/B pass");
      if (!accounting_ok(wl, *r, "durability A/B pass")) correct = false;
    }
    v["durability.ab_share"] =
        (d.run_s + d2.run_s - p.run_s - p2.run_s) / (p.run_s + p2.run_s);
    const bool same = p.sim_digest() == u.sim_digest() &&
                      d.sim_digest() == u.sim_digest();
    std::printf("recovery oracle: plain %016llx  durable %016llx  "
                "crashed+restored %016llx  %s\n",
                static_cast<unsigned long long>(p.sim_digest()),
                static_cast<unsigned long long>(d.sim_digest()),
                static_cast<unsigned long long>(u.sim_digest()),
                same ? "match" : "MISMATCH");
    if (!same) correct = false;
  }

  const std::map<std::string, double> self = tracer.layer_self_seconds();
  double pass_wall = 0.0;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == "pass") pass_wall += s.end_s - s.start_s;
  }
  double attributed = 0.0;
  for (const auto& [layer, s] : self) {
    if (layer != "unattributed" && layer != "bench") attributed += s;
  }
  const double events = t.layer.count("sim.events") ? t.layer.at("sim.events")
                                                    : 0.0;
  v["sim.ns_per_event"] = ratio(t.run_s * 1e9, events);
  v["sim.coord.ns_per_round"] =
      v["sim.coord.rounds"] > 0 ? t.run_s * 1e9 / v["sim.coord.rounds"] : 0.0;
  auto layer_or0 = [&t](const char* k) {
    return t.layer.count(k) ? t.layer.at(k) : 0.0;
  };
  if (wl.fleet()) {
    v["core.fleet.sweep_share"] = v["core.fleet.sweep_wall_s"] / t.run_s;
    v["core.fleet.coalesced_ratio"] =
        ratio(layer_or0("core.fleet.reports_coalesced"),
              layer_or0("core.fleet.reports_enqueued"));
    v["core.fleet.sweeps_skipped_ratio"] =
        ratio(layer_or0("core.fleet.shard_skips"),
              layer_or0("core.fleet.shard_sweeps") +
                  layer_or0("core.fleet.shard_skips"));
  }
  v["repair.check.cache_hit_ratio"] =
      ratio(layer_or0("repair.check.cache_hits"),
            layer_or0("repair.check.cache_hits") +
                v["repair.check.evaluations"]);
  v["runtime.translate_s"] = self.count("runtime") ? self.at("runtime") : 0.0;
  v["core.setup.scenario_s"] =
      t.scenario_s > 0.0 ? t.scenario_s : wl.probe_scenario_s();
  v["core.setup.build_s"] = t.build_s;
  v["core.setup.start_s"] = t.start_s;
  v["durability.restore_open_s"] = t.restore_open_s;
  v["durability.restore_reexec_s"] = t.restore_reexec_s;
  v["trace.coverage"] = ratio(attributed, pass_wall);
  v["trace.overhead"] = 1.0 - u2.run_s / t.run_s;
  for (auto& [k, x] : v) {
    if (!std::isfinite(x)) x = 0.0;  // a layer with no work here
  }
  if (failed > 0) correct = false;

  std::filesystem::create_directories(a.out);
  const std::string stem =
      a.out + "/" + name + "-seed" + std::to_string(a.seed);
  tracer.write_chrome(stem + ".trace.json");
  write_layer_summary(stem + ".layers.json", name, a.seed, pass_wall, self);

  const std::string ab = "set-up A/B, median of " + std::to_string(kAbReps) +
                         " passes a side";
  const std::map<std::string, std::string> samples = {
      {"remos.prequery_s", ab},
      {"core.setup.verify_s", ab},
      {"core.setup.scenario_s", t.scenario_s > 0.0 ? "traced pass"
                                                   : "scratch build_scenario"},
      {"durability.ab_share", "uncrashed durable vs plain, 2 passes each"},
      {"trace.overhead", "traced vs next untraced pass"},
  };
  std::vector<Row> rows;
  for (const MetricDef& d : kPerLayer) {
    const auto it = samples.find(d.name);
    rows.push_back({d.name, v[d.name], d.unit,
                    it == samples.end() ? "traced pass" : it->second});
  }
  print_table(rows);
  std::printf("\nself time by layer (traced pass, %.3f s wall):\n", pass_wall);
  for (const auto& [layer, s] : self) {
    std::printf("  %-14s %10.4f s  %6.2f%%\n", layer.c_str(), s,
                100.0 * s / pass_wall);
  }
  std::printf("trace: %s.trace.json\nlayers: %s.layers.json\n", stem.c_str(),
              stem.c_str());
  std::printf("verdict: %s\n", correct ? "correct" : "INCORRECT");
  std::fflush(stdout);
  print_result(correct, attempted, failed, kPerLayer, v);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: arcperf --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n"
               "       arcperf --selfcheck | --list-metrics\n"
               "workloads:");
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

// ------------------------------------------------------------- tracer ----

std::map<std::string, double> Tracer::layer_self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.layer] += (s.end_s - s.start_s) - child[i];
  }
  for (const auto& [layer, secs] : credits_) {
    self[layer] += secs;
    self["unattributed"] -= secs;
  }
  return self;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
      << "\", \"cat\": \"" << s.layer << "\", \"ph\": \"X\", \"ts\": "
      << num(s.start_s * 1e6) << ", \"dur\": "
      << num((s.end_s - s.start_s) * 1e6)
      << ", \"pid\": 1, \"tid\": " << s.case_id << ", \"args\": {\"id\": " << i
      << ", \"parent\": " << s.parent << "}}";
  }
  f << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

// ---------------------------------------------------------- selfcheck ----

int selfcheck() {
  int bad = 0;
  auto check = [&bad](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selfcheck FAIL: %s\n", what);
      ++bad;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };

  std::vector<double> v;
  for (int i = 10000; i >= 1; --i) v.push_back(i);  // 1..10000, unsorted
  check(near(percentile(v, 0.5), 5000.0), "p50 of 1..10000 is 5000");
  check(near(percentile(v, 0.999), 9990.0), "p999 of 1..10000 is 9990");
  v.pop_back();  // 9999 samples: p999 would leave only 9 beyond
  check(std::isnan(percentile(v, 0.999)), "p999 refused below 10 beyond");
  check(percentile_supported(50, 0.8) && !percentile_supported(49, 0.8),
        "p80 needs 50 samples");
  check(percentile_supported(20, 0.5) && !percentile_supported(19, 0.5),
        "p50 needs 20 samples");
  check(!percentile_supported(0, 0.5), "no samples, no percentile");
  check(near(median_of({3, 1, 2, 10}), 2.5), "even-count median");

  RequestTally r;
  r.issued = 200;
  r.completed = 180;
  r.late = 10;  // 10 late + 20 unanswered over 200 issued
  check(near(r.slo_miss_ratio(), 0.15), "slo miss counts unanswered");
  check(std::isnan(RequestTally{}.slo_miss_ratio()), "slo base 0 is NaN");
  check(near(ratio(3, 4), 0.75), "repair ok = committed / decided");
  check(std::isnan(ratio(0, 0)), "empty ratio base is NaN, not 0 or 1");

  check(near(deployment_sim_seconds(8, 1200.0), 9600.0),
        "fleet counts tenants x horizon");
  // Every full pass of a workload also checks its count against its
  // configs (accounting_ok), restored deployments included.

  // Two-pass exact percentiles agree with the plain nearest rank on a
  // skewed integer sample set, and refuse what the sample rule refuses.
  std::vector<std::int64_t> xs;
  std::uint64_t lcg = 12345;
  for (int i = 0; i < 20000; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(lcg >> 11) / 9007199254740992.0;
    xs.push_back(static_cast<std::int64_t>(1e6 * u * u * u));  // 0..1e6
  }
  std::vector<std::uint64_t> counts(kSampleBins, 0);
  for (std::int64_t x : xs) ++counts[sample_bin(static_cast<std::uint64_t>(x))];
  std::vector<double> as_double(xs.begin(), xs.end());
  for (double p : {0.5, 0.999}) {
    const BinRank r = locate_rank(counts, p);
    std::vector<std::int64_t> kept;
    for (std::int64_t x : xs) {
      if (sample_bin(static_cast<std::uint64_t>(x)) == r.bin) kept.push_back(x);
    }
    check(select_in_bin(kept, r) == percentile(as_double, p),
          "two-pass percentile equals nearest rank");
    kept.pop_back();
    check(std::isnan(select_in_bin(kept, r)),
          "two-pass percentile refuses a pass 2 that saw other samples");
  }
  for (std::uint64_t x : {0ULL, 127ULL, 128ULL, 129ULL, 1000ULL, 1ULL << 40}) {
    check(sample_bin(x) <= sample_bin(x + 1) && sample_bin(x) < kSampleBins,
          "sample bins are ordered by value");
  }
  std::vector<std::uint64_t> few(kSampleBins, 0);
  few[5] = 9999;  // p999 of 9999 samples leaves only 9 beyond
  check(!locate_rank(few, 0.999).ok, "two-pass p999 refused below 10 beyond");
  if (bad == 0) std::printf("selfcheck: all metric-math checks passed\n");
  return bad;
}

}  // namespace arcperf

int main(int argc, char** argv) {
  using namespace arcperf;
  Args a;
  bool have_workload = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selfcheck") return selfcheck() == 0 ? 0 : 1;
    if (k == "--list-metrics") {
      for (const MetricDef& d : kEndToEnd) {
        std::printf("end_to_end %s %s\n", d.name, d.unit);
      }
      for (const MetricDef& d : kPerLayer) {
        std::printf("per_layer %s %s\n", d.name, d.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (k == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (k == "--trace") {
      a.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (k == "--out") {
      a.out = val;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_trace || a.seconds <= 0.0) return usage();
  try {
    // Per process, so two runs sharing an --out directory never share a
    // journal.
    const std::string journals =
        a.out + "/journal-" + std::to_string(::getpid());
    std::unique_ptr<Workload> wl = make_workload(a.workload, a.seed, journals);
    std::printf("arcperf %s seed=%llu seconds=%g trace=%d out=%s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0, a.out.c_str());
    if (wl->durable()) std::printf("journals: %s\n", journals.c_str());
    return a.trace ? run_traced(*wl, a, a.workload) : run_timed(*wl, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arcperf: %s\n", e.what());
    return 1;
  }
}
