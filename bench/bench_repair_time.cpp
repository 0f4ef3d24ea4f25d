// Section 5.3 repair-time analysis: "The time that it takes to effect a
// repair averages 30 seconds. Most of this time is spent in communicating
// to create and delete gauges. Improving this time by caching gauges or
// relocating them ... should see our repair speed improve dramatically."
//
// Three configurations:
//   baseline        destroy+create gauges, Remos pre-queried (as the paper ran)
//   gauge caching   relocate cached gauges (the paper's proposed fix)
//   no prequery     cold Remos on the first repair (the pitfall the paper
//                   worked around by pre-querying)
#include <iomanip>
#include <iostream>

#include "core/experiment.hpp"
#include "paper_experiment.hpp"
#include "util/stats.hpp"

namespace {

using namespace arcadia;

struct Row {
  std::string name;
  double mean_s = 0.0;
  double max_s = 0.0;
  double gauge_share = 0.0;
  double query_share = 0.0;
  std::size_t repairs = 0;
  double fraction_above = 0.0;
};

Row measure(const std::string& name, bool caching, bool prequery) {
  core::ExperimentOptions opt = core::options_for(bench::kPaperScenario);
  opt.adaptation = true;
  opt.framework.gauge_costs.caching = caching;
  opt.framework.remos_prequery = prequery;
  core::ExperimentResult r = core::run_experiment(opt);
  Row row;
  row.name = name;
  SampleSet durations;
  double gauge = 0.0;
  double query = 0.0;
  double total = 0.0;
  for (const auto& rec : r.repairs) {
    if (!rec.committed || !rec.finished) continue;
    durations.add(rec.duration().as_seconds());
    gauge += rec.gauge_cost.as_seconds();
    query += rec.query_cost.as_seconds();
    total += rec.duration().as_seconds();
  }
  row.repairs = durations.count();
  row.mean_s = durations.mean();
  row.max_s = durations.max();
  row.gauge_share = total > 0 ? gauge / total : 0.0;
  row.query_share = total > 0 ? query / total : 0.0;
  row.fraction_above = r.mean_fraction_above();
  return row;
}

}  // namespace

int main() {
  std::cout << "=== Section 5.3: repair time breakdown and ablations ===\n\n";
  std::cout << std::left << std::setw(26) << "configuration" << std::setw(10)
            << "repairs" << std::setw(12) << "mean (s)" << std::setw(11)
            << "max (s)" << std::setw(14) << "gauge share" << std::setw(14)
            << "query share" << "frac >2s\n";
  for (const Row& row :
       {measure("baseline (paper)", false, true),
        measure("gauge caching", true, true),
        measure("no remos prequery", false, false)}) {
    std::cout << std::left << std::setw(26) << row.name << std::setw(10)
              << row.repairs << std::setw(12) << row.mean_s << std::setw(11)
              << row.max_s << std::setw(14) << row.gauge_share << std::setw(14)
              << row.query_share << row.fraction_above << "\n";
  }
  std::cout << "\npaper: repairs average ~30 s, dominated by gauge "
               "create/delete; caching should\nimprove repair speed "
               "\"dramatically\"; the first Remos query takes minutes "
               "unless\npre-queried.\n";
  return 0;
}
