// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_CLOSED_FORM_H_
#define PME_MAXENT_CLOSED_FORM_H_

#include <vector>

#include "anonymize/bucketized_table.h"
#include "constraints/term_index.h"
#include "maxent/block_plan.h"

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

/// The dual of the closed form for `block` of `plan`: multipliers aligned
/// with the block problem's rows (PlanBlock) at which the dual's primal
/// exp(Aᵀλ − 1) is `prior` (ClosedFormNoKnowledge over the plan's index)
/// on every variable of the block, so every invariant row (Eqs. 4-5)
/// holds there. Bucket by bucket and by position, with (q₀, s₀) the
/// bucket's first cell,
///
///   QI row of rank q:  λ = ln P(q, s₀, b) + 1,
///   SA row of rank s:  λ = ln P(q₀, s, b) − ln P(q₀, s₀, b),
///
/// and λ_q + λ_s − 1 = ln P(q, s, b) follows from the product form. The
/// SA row of s₀, which Theorem 3 may drop, gets 0; every request row gets
/// 0 as well. A block solve without a cached warm start starts here.
std::vector<double> ClosedFormDual(const BlockPlan& plan,
                                   const PlanBlock& block,
                                   const std::vector<double>& prior);

}  // namespace pme::maxent

#endif  // PME_MAXENT_CLOSED_FORM_H_
