#include "constraints/system.h"

#include <algorithm>

namespace pme::constraints {

void ConstraintSystem::AddAll(std::vector<LinearConstraint> constraints) {
  for (auto& c : constraints) constraints_.push_back(std::move(c));
}

size_t ConstraintSystem::CountBySource(ConstraintSource source) const {
  size_t count = 0;
  for (const auto& c : constraints_) {
    if (c.source == source) ++count;
  }
  return count;
}

double ConstraintSystem::MaxViolation(const std::vector<double>& p) const {
  double worst = 0.0;
  for (const auto& c : constraints_) {
    worst = std::max(worst, c.Violation(p));
  }
  return worst;
}

}  // namespace pme::constraints
