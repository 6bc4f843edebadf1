// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CONSTRAINTS_INVARIANTS_H_
#define PME_CONSTRAINTS_INVARIANTS_H_

#include <vector>

#include "anonymize/bucketized_table.h"
#include "constraints/constraint.h"
#include "constraints/term_index.h"
#include "linalg/dense_matrix.h"

namespace pme::constraints {

/// Options for invariant generation.
struct InvariantOptions {
  /// Theorem 3 (Conciseness): each bucket's g+h base invariants contain
  /// exactly one redundant row. When true, the first SA-invariant of every
  /// bucket is dropped, leaving a minimal (linearly independent) set.
  /// Redundancy is harmless for correctness (default keeps everything,
  /// like the paper's implementation), but dropping shrinks the dual.
  bool drop_redundant_row = false;
};

/// Generates the complete set of data constraints of Section 5 for every
/// bucket: QI-invariant equations (Eq. 4) and SA-invariant equations
/// (Eq. 5). Zero-invariant equations (Eq. 6) are structural — the
/// TermIndex never materializes those terms — so none are emitted.
/// Rows come bucket by bucket, QI rows before SA rows, and carry no
/// label: a row is named by its source, its bucket and its position.
std::vector<LinearConstraint> GenerateInvariants(
    const anonymize::BucketizedTable& table, const TermIndex& index,
    const InvariantOptions& options = {});

/// The invariant ("constraint") matrix of one bucket, as in Figure 3 of
/// the paper: one row per QI-/SA-invariant of bucket `b`, one column per
/// materialized term of the bucket. Used by the completeness/conciseness
/// verification utilities and tests.
linalg::DenseMatrix BucketInvariantMatrix(
    const anonymize::BucketizedTable& table, const TermIndex& index,
    uint32_t b);

/// Verifies Theorem 1 (Soundness) empirically for bucket `b`: every
/// generated invariant must evaluate to its RHS under the provided
/// assignment-derived term probabilities. Returns the worst violation.
double MaxInvariantViolation(const std::vector<LinearConstraint>& invariants,
                             const std::vector<double>& p);

/// Verifies Theorem 2 (Completeness) for a probability expression limited
/// to bucket `b`: true iff the expression (as a dense coefficient vector
/// over the bucket's terms) lies in the row space of the bucket's
/// invariant matrix.
bool InRowSpaceOfInvariants(const anonymize::BucketizedTable& table,
                            const TermIndex& index, uint32_t b,
                            const std::vector<double>& dense_expression);

/// Verifies Theorem 3 (Conciseness) for bucket `b`: returns the rank of
/// the bucket's invariant matrix, which must equal g + h − 1.
size_t BucketInvariantRank(const anonymize::BucketizedTable& table,
                           const TermIndex& index, uint32_t b);

}  // namespace pme::constraints

#endif  // PME_CONSTRAINTS_INVARIANTS_H_
