// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CORE_PRIVACY_MAXENT_H_
#define PME_CORE_PRIVACY_MAXENT_H_

#include <cstddef>

#include "anonymize/bucketized_table.h"
#include "common/status.h"
#include "core/posterior.h"
#include "data/dataset.h"
#include "knowledge/knowledge_base.h"
#include "maxent/decomposed.h"
#include "maxent/solver.h"

namespace pme::core {

/// Options for a Privacy-MaxEnt analysis.
struct AnalysisOptions {
  maxent::SolverOptions solver_options;
  /// Apply the Section 5.5 bucket decomposition (closed form for
  /// knowledge-irrelevant buckets, iterative solve for the rest).
  bool use_decomposition = true;
};

/// Everything a Privacy-MaxEnt run produces.
struct Analysis {
  /// The adversary's MaxEnt posterior P*(SA | QI).
  PosteriorTable posterior;
  /// Full solver diagnostics, including the joint distribution p.
  maxent::SolverResult solver;
  /// Constraint census.
  size_t num_invariant_constraints = 0;
  size_t num_background_constraints = 0;
  size_t num_vacuous_statements = 0;
  /// Section 5.5 decomposition census.
  maxent::DecompositionStats decomposition;
  /// The paper's evaluation measure against the ground truth stored in
  /// the table (weighted KL; smaller = adversary knows more).
  double estimation_accuracy = 0.0;
  /// Posterior-based privacy metrics.
  PrivacyMetrics metrics;
};

/// The Privacy-MaxEnt engine (the paper's primary contribution).
///
/// Pipeline: derive the complete invariant set from the published table
/// (Section 5), compile the background knowledge into linear ME
/// constraints (Sections 4 and 6), and compute the maximum-entropy joint
/// P(Q, S, B) subject to all of them (Section 3). The posterior
/// P*(SA | QI) then quantifies what an adversary with that knowledge can
/// infer about each individual.
///
/// `qi_encoder` is required when the knowledge base contains dataset-mode
/// statements (mined rules); pass the encoder from BucketizeDataset.
/// Abstract-mode statements (worked examples) need no encoder.
Result<Analysis> Analyze(const anonymize::BucketizedTable& table,
                         const knowledge::KnowledgeBase& kb,
                         const AnalysisOptions& options = {},
                         const data::TupleEncoder* qi_encoder = nullptr);

}  // namespace pme::core

#endif  // PME_CORE_PRIVACY_MAXENT_H_
