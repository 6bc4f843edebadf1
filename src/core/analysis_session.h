// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CORE_ANALYSIS_SESSION_H_
#define PME_CORE_ANALYSIS_SESSION_H_

#include <memory>

#include "common/status.h"
#include "core/privacy_maxent.h"
#include "core/table_artifact.h"
#include "knowledge/knowledge_base.h"

namespace pme::core {

/// The per-request half of an analysis: everything that depends on the
/// adversary's knowledge. A session borrows (shares) an immutable
/// TableArtifact and, per Run, compiles only the background-knowledge
/// rows (through the artifact's statement-term memo), plans the blocks
/// they couple (maxent::BlockPlan: each block is its buckets, whose
/// invariant rows follow from their counts, plus its knowledge rows), and
/// solves
/// — with whatever deadline/cancellation/cache plumbing the options
/// carry. On the decomposed path the result is an overlay on the
/// artifact's prior: the solver result holds the coupled blocks' slices
/// and the posterior holds the rows of their QI instances, so a request
/// costs what its coupled buckets cost, not what the table costs.
///
/// Sessions hold no mutable state: Run is const, and any number of
/// sessions (or concurrent Run calls on one session) may share a single
/// artifact, SolutionCache, and ThreadPool. The artifact's content hash
/// is installed as the cache namespace automatically, so one cache can
/// serve many artifacts without cross-table collisions.
///
/// Equivalent to the legacy core::Analyze — which is now a thin wrapper
/// building a throwaway artifact per call — but a long-lived caller
/// (pme serve, pme analyze --repeat) pays the table-side cost once.
class AnalysisSession {
 public:
  /// `artifact` must be non-null; `options` are fixed for the session's
  /// lifetime. The invariant options are the artifact's, fixed at its
  /// build.
  AnalysisSession(std::shared_ptr<const TableArtifact> artifact,
                  AnalysisOptions options = {});

  /// Runs one analysis of `kb` against the artifact. Individuals are
  /// rejected (as in Analyze); dataset-mode statements require the
  /// artifact to have been built with a QI encoder.
  Result<Analysis> Run(const knowledge::KnowledgeBase& kb) const;

  /// Like Run, but with per-request overrides of the session options
  /// (the serving path: per-request deadline, cache mode).
  Result<Analysis> Run(const knowledge::KnowledgeBase& kb,
                       const AnalysisOptions& options) const;

  const TableArtifact& artifact() const { return *artifact_; }
  const std::shared_ptr<const TableArtifact>& artifact_ptr() const {
    return artifact_;
  }
  const AnalysisOptions& options() const { return options_; }

 private:
  std::shared_ptr<const TableArtifact> artifact_;
  AnalysisOptions options_;
};

}  // namespace pme::core

#endif  // PME_CORE_ANALYSIS_SESSION_H_
