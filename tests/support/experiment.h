// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_TESTS_SUPPORT_EXPERIMENT_H_
#define PME_TESTS_SUPPORT_EXPERIMENT_H_

#include <string>
#include <vector>

#include "anonymize/anatomy.h"
#include "anonymize/bucketized_table.h"
#include "common/status.h"
#include "core/privacy_maxent.h"
#include "data/adult_synth.h"
#include "knowledge/miner.h"

namespace pme::core {

/// End-to-end experiment pipeline shared by the figure benches: synthetic
/// Adult-like data → Anatomy ℓ-diversity bucketization → association-rule
/// mining. Each bench then sweeps its own parameter (K, T, #constraints,
/// #buckets) over this state.
struct ExperimentPipeline {
  data::Dataset dataset;
  anonymize::DatasetBucketization bucketization;
  std::vector<knowledge::AssociationRule> rules;
};

struct PipelineOptions {
  data::AdultSynthOptions data;
  anonymize::AnatomyOptions anatomy;
  knowledge::MinerOptions miner;
  /// Mine rules at all (true) or skip mining (false, e.g. Figure 7 runs
  /// that synthesize knowledge directly).
  bool mine_rules = true;
};

/// Builds the pipeline; every stage is deterministic given the seeds in
/// the options.
Result<ExperimentPipeline> BuildPipeline(const PipelineOptions& options);

/// Runs a Privacy-MaxEnt analysis with the given rule subset as the
/// adversary's knowledge.
Result<Analysis> AnalyzeWithRules(
    const ExperimentPipeline& pipeline,
    const std::vector<knowledge::AssociationRule>& rules,
    const AnalysisOptions& options = {});

}  // namespace pme::core

#endif  // PME_TESTS_SUPPORT_EXPERIMENT_H_
