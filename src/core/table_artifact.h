// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CORE_TABLE_ARTIFACT_H_
#define PME_CORE_TABLE_ARTIFACT_H_

#include <memory>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/hash.h"
#include "common/status.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/term_index.h"
#include "core/posterior.h"
#include "data/dataset.h"
#include "maxent/block_plan.h"

namespace pme::core {

/// Build-time knobs of a TableArtifact. Everything here is a property of
/// the *published table*, fixed when the artifact is built; per-request
/// knobs (solver, deadline, cache mode) live in AnalysisOptions.
struct TableArtifactOptions {
  constraints::InvariantOptions invariant_options;
  /// Ignored: the artifact build is serial. Kept only because the
  /// pipeline benchmark still sets it.
  size_t threads = 1;
};

/// The immutable, shareable half of an analysis: everything derivable
/// from the published table alone, built once and reused by every
/// request against that table.
///
///   - the published BucketizedTable (and its QI tuple encoder, when the
///     table came from a concrete dataset),
///   - the TermIndex materializing the variable space,
///   - the compiled invariant constraint rows (Section 5), indexed by
///     the one bucket each row lives in,
///   - posting lists over the interned QI tuples, for matching a
///     statement's Qv without scanning every tuple,
///   - the Theorem-5 closed-form prior, its posterior and their per-q
///     evaluation, which every request overlays with its coupled blocks,
///   - a content hash, used as the SolutionCache namespace so one cache
///     can serve many artifacts without cross-table collisions.
///
/// Artifacts are held by shared_ptr and deeply immutable after Build:
/// any number of AnalysisSessions on any number of threads may read one
/// concurrently.
class TableArtifact {
 public:
  /// Builds an artifact that shares ownership of `table` (and
  /// `qi_encoder`, which may be null when the knowledge will be
  /// abstract-mode only).
  static Result<std::shared_ptr<const TableArtifact>> Build(
      std::shared_ptr<const anonymize::BucketizedTable> table,
      std::shared_ptr<const data::TupleEncoder> qi_encoder = nullptr,
      const TableArtifactOptions& options = {});

  /// Borrowing build for synchronous call sites (the legacy Analyze
  /// wrapper): the caller guarantees `table` and `qi_encoder` outlive
  /// the returned artifact. No copies are made.
  static Result<std::shared_ptr<const TableArtifact>> BuildBorrowed(
      const anonymize::BucketizedTable& table,
      const data::TupleEncoder* qi_encoder = nullptr,
      const TableArtifactOptions& options = {});

  const anonymize::BucketizedTable& table() const { return *table_; }
  /// Null when the artifact was built without an encoder.
  const data::TupleEncoder* qi_encoder() const { return qi_encoder_.get(); }
  const constraints::TermIndex& index() const { return index_; }
  const std::vector<constraints::LinearConstraint>& invariants() const {
    return invariants_;
  }
  /// Invariant rows by bucket (invariant rows never span buckets): a
  /// request gathers the rows of its coupled buckets from here.
  const maxent::BucketRowIndex& invariant_rows_by_bucket() const {
    return invariant_rows_by_bucket_;
  }
  /// Posting lists over qi_encoder()'s tuples; empty without an encoder.
  const constraints::QiPostings& qi_postings() const { return qi_postings_; }
  /// Precomputed per-bucket empirical conditional P(S | Q) — knowledge-
  /// independent, so requests share one copy instead of rebuilding it.
  const PosteriorTable& ground_truth() const { return ground_truth_; }
  /// Precomputed Theorem-5 closed-form joint (the no-knowledge MaxEnt
  /// solution). A request's decomposed solve returns only its coupled
  /// blocks' values; every other variable reads through to this.
  const std::vector<double>& closed_form_prior() const {
    return closed_form_prior_;
  }
  /// pme::Entropy of closed_form_prior(), for the solver's incremental
  /// entropy shortcut.
  double closed_form_prior_entropy() const {
    return closed_form_prior_entropy_;
  }
  /// Posterior P*(S | Q) of the closed-form prior, plus its per-q
  /// evaluation slices against ground_truth(). A request whose solve
  /// moved only the knowledge-coupled buckets off the prior overlays
  /// just those rows on these (see AnalysisSession).
  const PosteriorTable& prior_posterior() const { return prior_posterior_; }
  const PerQEvaluation& prior_evaluation() const { return prior_evaluation_; }
  /// CSR over q: ascending variable ids of QI value q are
  /// q_vars()[q_var_offsets()[q] ... q_var_offsets()[q+1]).
  const std::vector<uint32_t>& q_var_offsets() const {
    return q_var_offsets_;
  }
  const std::vector<uint32_t>& q_vars() const { return q_vars_; }
  const TableArtifactOptions& options() const { return options_; }

  /// Stable digest of the published table content plus the invariant
  /// options — everything that determines the compiled system's
  /// table-side rows. Byte-identical across runs, platforms, and thread
  /// counts; distinct tables get distinct namespaces (up to 128-bit
  /// collision).
  const Hash128& content_hash() const { return content_hash_; }

 private:
  TableArtifact() = default;

  std::shared_ptr<const anonymize::BucketizedTable> table_;
  std::shared_ptr<const data::TupleEncoder> qi_encoder_;
  constraints::TermIndex index_;
  std::vector<constraints::LinearConstraint> invariants_;
  maxent::BucketRowIndex invariant_rows_by_bucket_;
  constraints::QiPostings qi_postings_;
  PosteriorTable ground_truth_;
  std::vector<double> closed_form_prior_;
  double closed_form_prior_entropy_ = 0.0;
  PosteriorTable prior_posterior_;
  PerQEvaluation prior_evaluation_;
  std::vector<uint32_t> q_var_offsets_;
  std::vector<uint32_t> q_vars_;
  TableArtifactOptions options_;
  Hash128 content_hash_;
};

}  // namespace pme::core

#endif  // PME_CORE_TABLE_ARTIFACT_H_
