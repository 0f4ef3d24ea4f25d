// Figure 11: average latency under repair. Paper shape: "a dramatic
// improvement in the average latencies experienced by the clients" — once
// a violation is detected a repair (move a client or add a server) brings
// latency back under 2 s; the bars at the top mark repair windows.
//
// On top of the figure reproduction, this bench is the acceptance gate for
// the staged repair pipeline: the same experiment runs twice, once with
// plan_pipeline = false — the unoptimized plan enacted one step at a time,
// the paper's sequential behavior kept as the in-bench baseline (the
// "legacy_*" keys) — and once with the optimized pipeline (batched gauge
// re-deployments, overlapped execution). It emits BENCH_fig11.json and
// exits non-zero when the optimized pipeline fails to lower the mean
// end-to-end repair latency.
#include <fstream>
#include <iostream>
#include <string>

#include "bench_output.hpp"
#include "paper_experiment.hpp"

namespace {

struct RepairSummary {
  int committed = 0;
  double mean_repair_s = 0.0;
  double total_repair_s = 0.0;
  double mean_gauge_s = 0.0;
  double fraction_above = 0.0;
  std::uint64_t plan_steps_executed = 0;
  std::uint64_t plan_steps_merged = 0;
};

RepairSummary summarize(const arcadia::core::ExperimentResult& r) {
  RepairSummary s;
  double gauge_s = 0.0;
  for (const auto& rec : r.repairs) {
    if (!rec.committed || !rec.finished) continue;
    ++s.committed;
    s.total_repair_s += rec.duration().as_seconds();
    gauge_s += rec.gauge_cost.as_seconds();
  }
  if (s.committed > 0) {
    s.mean_repair_s = s.total_repair_s / s.committed;
    s.mean_gauge_s = gauge_s / s.committed;
  }
  s.fraction_above = r.mean_fraction_above();
  s.plan_steps_executed = r.repair_stats.plan_steps_executed;
  s.plan_steps_merged = r.repair_stats.plan_steps_merged;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace arcadia;
  const std::string out_path =
      bench::output_path(argc, argv, "BENCH_fig11.json");

  core::ExperimentResult r = bench::run_paper_experiment(/*adaptation=*/true);
  bench::print_header("Figure 11", "average latency under repair (s)", r);
  core::print_latency_figure(std::cout, r, SimTime::seconds(60));
  bench::print_repair_marks(r);
  std::cout << "\n";
  core::print_repairs(std::cout, r);

  const RepairSummary plan = summarize(r);
  std::cout << "\n# shape checks vs the paper\n";
  std::cout << "mean fraction of time above 2 s: " << r.mean_fraction_above()
            << " (paper: \"latency experienced by clients was less than two "
               "seconds for most of the time\")\n";

  // The in-bench baseline: identical experiment, sequential enactment.
  core::ExperimentOptions legacy_opt = bench::paper_options();
  legacy_opt.adaptation = true;
  legacy_opt.framework.plan_pipeline = false;
  const RepairSummary legacy = summarize(core::run_experiment(legacy_opt));

  const double speedup = plan.mean_repair_s > 0.0
                             ? legacy.mean_repair_s / plan.mean_repair_s
                             : 0.0;
  std::cout << "\n# staged-plan pipeline vs sequential replay\n"
            << "legacy mean repair: " << legacy.mean_repair_s
            << " s (paper: ~30 s, dominated by gauge create/delete)\n"
            << "plan   mean repair: " << plan.mean_repair_s << " s ("
            << plan.committed << " repairs, " << plan.plan_steps_executed
            << " steps executed, " << plan.plan_steps_merged
            << " merged by the optimizer)\n"
            << "end-to-end repair speedup: " << speedup << "x\n";

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"legacy_mean_repair_s\": " << legacy.mean_repair_s << ",\n"
       << "  \"legacy_mean_gauge_s\": " << legacy.mean_gauge_s << ",\n"
       << "  \"legacy_committed\": " << legacy.committed << ",\n"
       << "  \"legacy_fraction_above_2s\": " << legacy.fraction_above << ",\n"
       << "  \"plan_mean_repair_s\": " << plan.mean_repair_s << ",\n"
       << "  \"plan_mean_gauge_s\": " << plan.mean_gauge_s << ",\n"
       << "  \"plan_committed\": " << plan.committed << ",\n"
       << "  \"plan_fraction_above_2s\": " << plan.fraction_above << ",\n"
       << "  \"plan_steps_executed\": " << plan.plan_steps_executed << ",\n"
       << "  \"plan_steps_merged\": " << plan.plan_steps_merged << ",\n"
       << "  \"repair_speedup\": " << speedup << "\n"
       << "}\n";
  std::cout << "wrote " << out_path << "\n";

  if (plan.committed == 0 || !(plan.mean_repair_s < legacy.mean_repair_s)) {
    std::cerr << "FAIL: plan pipeline did not lower mean repair latency ("
              << plan.mean_repair_s << " s vs " << legacy.mean_repair_s
              << " s)\n";
    return 1;
  }
  return 0;
}
