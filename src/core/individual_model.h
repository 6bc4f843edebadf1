// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CORE_INDIVIDUAL_MODEL_H_
#define PME_CORE_INDIVIDUAL_MODEL_H_

#include <cstdint>
#include <vector>

#include "anonymize/pseudonym.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "knowledge/knowledge_base.h"
#include "maxent/solver.h"

namespace pme::core {

/// The Section-6 model: MaxEnt over the pseudonym-expanded joint
/// P(i, q, s, b), enabling knowledge about *individuals* ("Alice does not
/// have HIV", "two of {Alice, Bob, Charlie} have HIV").
///
/// Variables: one per (pseudonym i, sensitive instance s, bucket b) with
/// b a candidate bucket of i (a bucket containing i's QI instance) and
/// s ∈ SA(b). The QI instance is determined by the pseudonym, so it is
/// not a separate dimension.
///
/// Invariants (the Section-5 derivation "modified accordingly"):
///  - per pseudonym:        Σ_{b,s} P(i, q, s, b) = 1/N
///    (each person has exactly one record),
///  - per (q, b):           Σ_{i ∈ pseud(q)} Σ_s P(i, q, s, b) = P(q, b)
///    (the bucket's QI occurrence counts are published),
///  - per (s, b):           Σ_i P(i, q_i, s, b) = P(s, b)
///    (the bucket's SA multiset is published).
///
/// Knowledge statements compile to rows over the same variables:
///  - kPersonSaSet:  Σ_{s ∈ set, b} P(i, q, s, b) = prob · (1/N),
///  - kGroupCount:   Σ_{(i,s) pairs, b} P(i, q_i, s, b) = count / N,
///  - abstract ConditionalStatements aggregate over all pseudonyms of q.
class IndividualModel {
 public:
  /// Builds the variable space and the invariant constraints.
  /// `pseudonyms` (and its underlying table) must outlive the model.
  static Result<IndividualModel> Build(
      const anonymize::PseudonymTable* pseudonyms);

  /// Compiles and adds the knowledge base (individual statements and
  /// abstract-mode conditionals; dataset-mode conditionals are rejected).
  Status AddKnowledge(const knowledge::KnowledgeBase& kb);

  /// Runs the MaxEnt solve over the expanded space.
  Result<maxent::SolverResult> Solve(
      const maxent::SolverOptions& options = {}) const;

  /// The posterior P*(s | i) over all SA instances for one pseudonym,
  /// derived from a solution: P*(s | i) = N · Σ_b p(i, s, b).
  std::vector<double> PosteriorFor(uint32_t pseudonym,
                                   const std::vector<double>& p) const;

  /// Variable id of P(i, q_i, s, b); kNotFound for non-materialized
  /// combinations.
  Result<uint32_t> VariableId(uint32_t pseudonym, uint32_t sa,
                              uint32_t bucket) const;

  size_t num_variables() const { return terms_.size(); }
  size_t num_constraints() const { return rows_.size(); }

 private:
  struct IndividualTerm {
    uint32_t pseudonym;
    uint32_t sa;
    uint32_t bucket;
  };

  IndividualModel() = default;

  const anonymize::PseudonymTable* pseudonyms_ = nullptr;
  std::vector<IndividualTerm> terms_;
  /// Per pseudonym: first variable id (terms of one pseudonym are
  /// contiguous, ordered by candidate bucket then SA rank).
  std::vector<uint32_t> pseudonym_offsets_;
  /// The invariant rows, then the knowledge rows in the order added.
  std::vector<constraints::LinearConstraint> rows_;
};

}  // namespace pme::core

#endif  // PME_CORE_INDIVIDUAL_MODEL_H_
