// Reproduces Figure 7(a): "Performance vs Knowledge" — running time and
// LBFGS iteration count as the number of background-knowledge constraints
// grows (log-scale x axis), with the dataset fixed.
//
// Matching Section 7.2, the bucket-decomposition optimization of Section
// 5.5 is NOT applied here: every run solves the whole table monolithically.
//
// Expected shape (paper): both series grow slowly — roughly log-linear in
// the number of knowledge constraints, with fluctuations from the changed
// search paths.
//
// Default: 1,500 records; --full: 14,210.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/timer.h"

int main(int argc, char** argv) {
  pme::Flags flags(argc, argv);
  const auto scale = pme::bench::ResolveScale(flags, 1500);
  const size_t max_attrs = pme::bench::MaxAttrsFlag(flags, scale, 4);

  std::printf("# Figure 7(a) reproduction: solver cost vs #BK constraints\n");
  std::printf("# records=%zu full=%d (no Section-5.5 decomposition)\n",
              scale.records, scale.full);
  auto pipeline = pme::bench::BuildStandardPipeline(scale, max_attrs);
  std::printf("# available rules: %zu\n", pipeline.rules.size());

  pme::bench::CsvWriter csv(scale.csv_path,
                           {"constraints", "seconds", "iterations"});

  pme::core::AnalysisOptions options;
  options.use_decomposition = false;
  // Match the paper's measurement: pure LBFGS work, no structural
  // presolve (our presolve would otherwise solve high-K instances outright
  // and the figure would chart the presolver, not the solver), and the
  // era-typical 1e-6 convergence threshold so hard-zero targets stay
  // reachable with finite multipliers.
  options.solver_options.presolve = false;
  options.solver_options.tolerance = 1e-6;

  std::printf("%14s %12s %12s %14s\n", "#constraints", "seconds",
              "iterations", "violation");
  const size_t cap = scale.full ? 120000 : 12000;
  for (size_t n = 100; n <= cap; n *= 3) {
    auto rules = pme::bench::SampleInformativeRules(pipeline.rules, n);
    if (rules.size() < n) break;  // rule supply exhausted
    auto analysis = pme::bench::Unwrap(
        pme::core::AnalyzeWithRules(pipeline, rules, options), "analysis");
    std::printf("%14zu %12.3f %12zu %14.2e\n",
                analysis.num_background_constraints, analysis.solver.seconds,
                analysis.solver.iterations, analysis.solver.max_violation);
    csv.Row({static_cast<double>(analysis.num_background_constraints),
             analysis.solver.seconds,
             static_cast<double>(analysis.solver.iterations)});
  }
  std::printf(
      "# shape check: time/iterations grow slowly (log-linear) in the "
      "constraint count.\n");
  return 0;
}
