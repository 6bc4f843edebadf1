// Ablation: incremental re-analysis through the component-solution cache.
//
// The interactive workflow the cache targets: an analyst publishes a
// table, runs the analysis, then repeatedly re-runs it while toggling or
// editing individual knowledge statements. Components untouched by an
// edit are byte-identical subproblems — the cache answers them without
// solving (exact hit) — and the one edited component keeps its variable
// structure, so its solve warm-starts from the cached dual multipliers.
//
// Three measurements per knowledge budget K:
//   cold    fresh cache, full solve (the baseline)
//   exact   identical re-run against the warm cache — every component is
//           an exact hit, no solver iterations at all
//   toggle  one statement's asserted probability is changed, then the
//           re-run is compared against a cold solve of the same edited
//           knowledge: same posterior (parity), far fewer iterations
//
// Expected outcome: exact re-runs are >=10x faster than cold; the toggled
// re-run spends fewer solver iterations than its cold equivalent, which
// itself starts at the closed form's dual (at 2,500 records: 7.9x, 5.4x
// and 1.0x at K=16/64/256, where one block dominates the table and is
// never warm-started); posteriors agree to solver tolerance either way.
// --json=PATH records the series (BENCH_incremental.json commits the
// runs at --records=2500 and --records=5000).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench/bench_common.h"
#include "maxent/decomposed.h"
#include "maxent/solution_cache.h"

namespace {

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  pme::Flags flags(argc, argv);
  const auto scale = pme::bench::ResolveScale(flags, 2500);

  std::printf("# Incremental re-analysis ablation (solution cache)\n");
  std::printf("# records=%zu threads=%zu\n", scale.records, scale.threads);
  auto pipeline = pme::bench::BuildStandardPipeline(scale, 3);

  pme::bench::CsvWriter csv(
      scale.csv_path,
      {"k", "sec_cold", "sec_exact", "speedup_exact", "iters_toggle_cold",
       "iters_toggle_warm", "iter_reduction_warm"});
  pme::bench::JsonWriter json(scale.json_path, "ablation_incremental");
  json.Field("records", scale.records);
  json.Field("threads", scale.threads);

  std::printf("%6s %8s %10s %10s %9s %12s %12s %10s %11s %11s\n", "K",
              "blocks", "cold(s)", "exact(s)", "speedup", "iters-cold",
              "iters-warm", "iter-red", "|p| exact", "|p| warm");
  for (size_t k : {16, 64, 256}) {
    auto rules = pme::knowledge::TopK(pipeline.rules, k / 2, k - k / 2);
    // The edit: one statement's asserted conditional moves by one point.
    // Support (and therefore the component structure) is unchanged — only
    // that component's constraint rows differ, the warm-start case.
    auto toggled = rules;
    if (!toggled.empty()) {
      toggled[0].conditional = toggled[0].conditional <= 0.5
                                   ? toggled[0].conditional + 0.01
                                   : toggled[0].conditional - 0.01;
    }

    pme::core::AnalysisOptions options;
    options.solver_options.threads = scale.threads;
    options.solver_options.cache_mode = pme::maxent::CacheMode::kWarm;

    // Cold, then the byte-identical re-run against the now-warm cache.
    pme::maxent::SolutionCache cache;
    options.solver_options.solution_cache = &cache;
    auto cold = pme::bench::Unwrap(
        pme::core::AnalyzeWithRules(pipeline, rules, options), "cold");
    auto exact = pme::bench::Unwrap(
        pme::core::AnalyzeWithRules(pipeline, rules, options), "exact");

    // The toggled re-run against the same cache, and its cold baseline
    // (fresh cache) for the iteration comparison.
    auto warm = pme::bench::Unwrap(
        pme::core::AnalyzeWithRules(pipeline, toggled, options),
        "toggle-warm");
    pme::maxent::SolutionCache fresh;
    options.solver_options.solution_cache = &fresh;
    auto toggle_cold = pme::bench::Unwrap(
        pme::core::AnalyzeWithRules(pipeline, toggled, options),
        "toggle-cold");

    const double speedup = exact.solver.seconds > 0
                               ? cold.solver.seconds / exact.solver.seconds
                               : 0.0;
    const double iter_reduction =
        warm.solver.iterations > 0
            ? static_cast<double>(toggle_cold.solver.iterations) /
                  static_cast<double>(warm.solver.iterations)
            : 0.0;
    const double parity_exact =
        MaxAbsDiff(pme::maxent::MaterializeJoint(cold.solver),
                   pme::maxent::MaterializeJoint(exact.solver));
    const double parity_warm =
        MaxAbsDiff(pme::maxent::MaterializeJoint(toggle_cold.solver),
                   pme::maxent::MaterializeJoint(warm.solver));
    const size_t blocks =
        cold.decomposition.num_coupled_components;

    std::printf(
        "%6zu %8zu %10.4f %10.4f %8.1fx %12zu %12zu %9.1fx %11.2e %11.2e\n",
        k, blocks, cold.solver.seconds, exact.solver.seconds, speedup,
        toggle_cold.solver.iterations, warm.solver.iterations, iter_reduction,
        parity_exact, parity_warm);
    csv.Row({static_cast<double>(k), cold.solver.seconds,
             exact.solver.seconds, speedup,
             static_cast<double>(toggle_cold.solver.iterations),
             static_cast<double>(warm.solver.iterations), iter_reduction});
    json.BeginRow();
    json.RowField("k", k);
    json.RowField("coupled_components", blocks);
    json.RowField("sec_cold", cold.solver.seconds);
    json.RowField("sec_exact", exact.solver.seconds);
    json.RowField("speedup_exact", speedup);
    json.RowField("iters_cold", cold.solver.iterations);
    json.RowField("iters_exact", exact.solver.iterations);
    json.RowField("exact_hits", exact.solver.cache_exact_hits);
    json.RowField("sec_toggle_cold", toggle_cold.solver.seconds);
    json.RowField("sec_toggle_warm", warm.solver.seconds);
    json.RowField("iters_toggle_cold", toggle_cold.solver.iterations);
    json.RowField("iters_toggle_warm", warm.solver.iterations);
    json.RowField("iter_reduction_warm", iter_reduction);
    json.RowField("warm_hits", warm.solver.cache_warm_hits);
    json.RowField("warm_exact_hits", warm.solver.cache_exact_hits);
    json.RowField("posterior_max_abs_diff_exact", parity_exact);
    json.RowField("posterior_max_abs_diff_warm", parity_warm);
    // Per-component iteration counts of the cold run, for the block-level
    // view of where the warm run saves its work.
    size_t max_block_iters = 0;
    for (size_t it : cold.decomposition.coupled_component_iterations) {
      max_block_iters = std::max(max_block_iters, it);
    }
    json.RowField("max_block_iters_cold", max_block_iters);
  }
  std::printf(
      "# expected: exact re-runs skip every solve (>=10x); the toggled "
      "re-run solves one warm-started block (fewer iterations, unless a "
      "dominant block solves cold); posterior parity stays at solver "
      "tolerance.\n");
  return 0;
}
