// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CONSTRAINTS_SYSTEM_H_
#define PME_CONSTRAINTS_SYSTEM_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "constraints/constraint.h"

namespace pme::constraints {

/// The assembled collection of ME constraints over one TermIndex variable
/// space: data invariants plus compiled background knowledge. This is the
/// direct input to the MaxEnt solver.
class ConstraintSystem {
 public:
  /// `num_variables` fixes the variable-space width.
  explicit ConstraintSystem(size_t num_variables)
      : num_variables_(num_variables) {}

  void Add(LinearConstraint constraint) {
    constraints_.push_back(std::move(constraint));
  }
  void AddAll(std::vector<LinearConstraint> constraints);

  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }
  size_t num_variables() const { return num_variables_; }
  size_t size() const { return constraints_.size(); }

  /// Count of constraints from a given source.
  size_t CountBySource(ConstraintSource source) const;

  /// Worst violation of any constraint at `p` (the empirical counterpart
  /// of the solver's convergence measure).
  double MaxViolation(const std::vector<double>& p) const;

 private:
  size_t num_variables_;
  std::vector<LinearConstraint> constraints_;
};

}  // namespace pme::constraints

#endif  // PME_CONSTRAINTS_SYSTEM_H_
