// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_TESTS_SUPPORT_INVARIANT_CHECKS_H_
#define PME_TESTS_SUPPORT_INVARIANT_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "constraints/constraint.h"
#include "constraints/term_index.h"
#include "tests/support/dense_matrix.h"

namespace pme::constraints {

/// The invariant ("constraint") matrix of one bucket, as in Figure 3 of
/// the paper: one row per QI-/SA-invariant of bucket `b` (every row
/// kept), one column per materialized term of the bucket. Written from
/// ForEachInvariantRow, the emitter every block problem uses.
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

#endif  // PME_TESTS_SUPPORT_INVARIANT_CHECKS_H_
