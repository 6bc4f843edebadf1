#include "constraints/constraint.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>

namespace pme::constraints {

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

Hash128 ConstraintRowSignature(const LinearConstraint& constraint) {
  Hasher128 h;
  h.Update(std::string_view("pme.row.v1"));
  h.Update(static_cast<int>(constraint.rel));
  h.Update(constraint.rhs);
  // Rows that are already canonical — strictly ascending variables, no
  // zero coefficients, as every invariant row is — hash in place.
  const auto& vars = constraint.vars;
  const auto& coefs = constraint.coefs;
  bool canonical = true;
  for (size_t i = 0; i < vars.size() && canonical; ++i) {
    canonical = coefs[i] != 0.0 && (i == 0 || vars[i - 1] < vars[i]);
  }
  if (canonical) {
    h.Update(static_cast<uint64_t>(vars.size()));
    for (size_t i = 0; i < vars.size(); ++i) {
      h.Update(vars[i]);
      h.Update(coefs[i]);
    }
    return h.Finish();
  }
  // Canonical support: zero coefficients dropped, duplicates summed,
  // sorted by variable id — the row's content independent of the order
  // its terms were emitted in.
  std::vector<std::pair<uint32_t, double>> support;
  support.reserve(vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    if (coefs[i] == 0.0) continue;
    support.emplace_back(vars[i], coefs[i]);
  }
  std::sort(support.begin(), support.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t w = 0;
  for (size_t i = 0; i < support.size(); ++i) {
    if (w > 0 && support[w - 1].first == support[i].first) {
      support[w - 1].second += support[i].second;
    } else {
      support[w++] = support[i];
    }
  }
  support.resize(w);

  h.Update(static_cast<uint64_t>(support.size()));
  for (const auto& [var, coef] : support) {
    h.Update(var);
    h.Update(coef);
  }
  return h.Finish();
}

}  // namespace pme::constraints
