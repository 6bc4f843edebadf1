#include "constraints/constraint.h"

#include <algorithm>
#include <cmath>

namespace pme::constraints {

const char* ConstraintSourceToString(ConstraintSource source) {
  switch (source) {
    case ConstraintSource::kQiInvariant:
      return "qi_invariant";
    case ConstraintSource::kSaInvariant:
      return "sa_invariant";
    case ConstraintSource::kBackground:
      return "background";
    case ConstraintSource::kIndividual:
      return "individual";
    case ConstraintSource::kOther:
      return "other";
  }
  return "unknown";
}

double LinearConstraint::ViolationAt(double lhs) const {
  switch (rel) {
    case Relation::kEq:
      return std::fabs(lhs - rhs);
    case Relation::kLe:
      return std::max(0.0, lhs - rhs);
    case Relation::kGe:
      return std::max(0.0, rhs - lhs);
  }
  return 0.0;
}

}  // namespace pme::constraints
