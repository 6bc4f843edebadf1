// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared sweep for Figures 7(b) and 7(c): vary the dataset size (number
// of buckets, with 5 records per bucket) under fixed background-knowledge
// budgets, and record the monolithic solve's running time and iteration
// count. 7(b) plots seconds; 7(c) plots iterations.

#ifndef PME_BENCH_FIG7BC_COMMON_H_
#define PME_BENCH_FIG7BC_COMMON_H_

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace pme::bench {

struct Fig7Cell {
  size_t buckets = 0;
  size_t constraints = 0;
  double seconds = 0.0;
  size_t iterations = 0;
};

/// Runs the grid: bucket counts x knowledge budgets. The knowledge budget
/// is the number of mined-rule constraints fed to the solver (0 = no
/// knowledge, matching the paper's "#Constraints = 0" curve).
inline std::vector<Fig7Cell> RunFig7Grid(const Flags& flags, bool full,
                                         uint64_t seed,
                                         std::vector<size_t>* bucket_axis,
                                         std::vector<size_t>* budget_axis) {
  *bucket_axis = full ? std::vector<size_t>{500, 1000, 1500, 2000, 2842}
                      : std::vector<size_t>{200, 300, 400, 500};
  *budget_axis = full ? std::vector<size_t>{0, 100, 1000, 10000}
                      : std::vector<size_t>{0, 100, 400};
  if (flags.Has("maxbuckets")) {
    const size_t cap =
        static_cast<size_t>(flags.GetInt("maxbuckets", bucket_axis->back()));
    while (!bucket_axis->empty() && bucket_axis->back() > cap) {
      bucket_axis->pop_back();
    }
  }

  std::vector<Fig7Cell> cells;
  for (size_t buckets : *bucket_axis) {
    BenchScale scale;
    scale.records = buckets * 5;
    scale.seed = seed;
    auto pipeline = BuildStandardPipeline(scale, /*max_attrs=*/3);
    pme::core::AnalysisOptions options;
    options.use_decomposition = false;  // Section 7.2: no optimization
    options.solver_options.presolve = false;  // measure the solver itself
    options.solver_options.tolerance = 1e-6;
    options.solver_options.max_iterations = 20000;
    for (size_t budget : *budget_axis) {
      auto rules = SampleInformativeRules(pipeline.rules, budget);
      auto analysis =
          Unwrap(pme::core::AnalyzeWithRules(pipeline, rules, options),
                 "analysis");
      Fig7Cell cell;
      cell.buckets = pipeline.bucketization.table.num_buckets();
      cell.constraints = budget;
      cell.seconds = analysis.solver.seconds;
      cell.iterations = analysis.solver.iterations;
      cells.push_back(cell);
    }
  }
  return cells;
}

}  // namespace pme::bench

#endif  // PME_BENCH_FIG7BC_COMMON_H_
