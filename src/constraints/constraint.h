// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CONSTRAINTS_CONSTRAINT_H_
#define PME_CONSTRAINTS_CONSTRAINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "knowledge/knowledge_base.h"

namespace pme::constraints {

using knowledge::Relation;

/// Where a constraint came from — drives the irrelevant-bucket analysis
/// (only kBackground/kIndividual rows couple buckets) and diagnostics.
enum class ConstraintSource : int {
  kQiInvariant = 0,   ///< Eq. (4): Σ_s P(q, s, b) = P(q, b)
  kSaInvariant = 1,   ///< Eq. (5): Σ_q P(q, s, b) = P(s, b)
  kBackground = 2,    ///< Section 4: knowledge about the data distribution
  kIndividual = 3,    ///< Section 6: knowledge about individuals
  kOther = 4,
};

/// One ME constraint: a linear probability expression (Definition 5.1)
/// related to a constant. Variables refer to a TermIndex numbering.
struct LinearConstraint {
  std::vector<uint32_t> vars;
  std::vector<double> coefs;
  Relation rel = Relation::kEq;
  double rhs = 0.0;
  ConstraintSource source = ConstraintSource::kOther;
  std::string label;

  /// Evaluates the left-hand side under a full variable assignment.
  double Evaluate(const std::vector<double>& p) const {
    double acc = 0.0;
    for (size_t i = 0; i < vars.size(); ++i) acc += coefs[i] * p[vars[i]];
    return acc;
  }

  /// Signed violation: 0 when satisfied (within `tol`); for kEq the
  /// absolute residual, for inequalities the amount by which the bound is
  /// exceeded.
  double Violation(const std::vector<double>& p) const {
    return ViolationAt(Evaluate(p));
  }

  /// Violation of the row when its left-hand side evaluates to `lhs` —
  /// for callers that evaluate the row over a slice of the variables.
  double ViolationAt(double lhs) const;
};

/// Content signature of one constraint row: relation, bound, and the
/// sorted (variable, coefficient) support with zero coefficients dropped
/// and duplicate variables summed. Label and source are excluded — two
/// rows with identical content constrain the solve identically. The
/// digest is stable across runs and platforms (see common/hash.h), which
/// is what lets a solution cached in one process serve another.
Hash128 ConstraintRowSignature(const LinearConstraint& constraint);

}  // namespace pme::constraints

#endif  // PME_CONSTRAINTS_CONSTRAINT_H_
