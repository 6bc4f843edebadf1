// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_CLOSED_FORM_H_
#define PME_MAXENT_CLOSED_FORM_H_

#include <vector>

#include "anonymize/bucketized_table.h"
#include "constraints/constraint.h"
#include "constraints/term_index.h"

namespace pme::maxent {

/// The Theorem-5 closed form: with no background knowledge, the maximum
/// entropy joint distribution factorizes within every bucket,
///
///   P(q, s, b) = P(q, b) · P(s, b) / P(b),
///
/// which is exactly the uniform "portion of S in the bucket" rule (Eq. 1
/// / Eq. 9) used by the pre-background-knowledge literature. Returns the
/// term probabilities over the TermIndex numbering.
std::vector<double> ClosedFormNoKnowledge(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index);

/// Closed form restricted to one bucket: writes only the variables of
/// bucket `b` into `p` (the rest untouched).
void ClosedFormBucket(const anonymize::BucketizedTable& table,
                      const constraints::TermIndex& index, uint32_t b,
                      std::vector<double>* p);

/// The dual of the closed form: multipliers aligned with `rows` (a
/// block's stacked rows, maxent/problem.h) at which the dual's primal
/// exp(Aᵀλ − 1) is `prior` (ClosedFormNoKnowledge over `index`) on every
/// variable of the rows' buckets, so every invariant row (Eqs. 4-5)
/// holds there. With (q₀, s₀) the first cell of a row's bucket,
///
///   QI row (q, b):  λ = ln P(q, s₀, b) + 1,
///   SA row (s, b):  λ = ln P(q₀, s, b) − ln P(q₀, s₀, b),
///
/// and λ_q + λ_s − 1 = ln P(q, s, b) follows from the product form. The
/// SA row of s₀, which Theorem 3 may drop, gets 0; every other row
/// (knowledge) gets 0 as well. Exact when each bucket's QI and SA rows
/// appear once, as a block's table rows do; otherwise still a valid
/// start. A block solve without a cached warm start starts here.
std::vector<double> ClosedFormDual(
    const constraints::TermIndex& index, const std::vector<double>& prior,
    const std::vector<const constraints::LinearConstraint*>& rows);

}  // namespace pme::maxent

#endif  // PME_MAXENT_CLOSED_FORM_H_
