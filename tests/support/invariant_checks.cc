#include "tests/support/invariant_checks.h"

#include <algorithm>

#include "constraints/invariants.h"

namespace pme::constraints {

linalg::DenseMatrix BucketInvariantMatrix(
    const anonymize::BucketizedTable& table, const TermIndex& index,
    uint32_t b) {
  const auto [first, last] = index.BucketRange(b);
  linalg::DenseMatrix m(0, 0);
  ForEachInvariantRow(table, index, b, InvariantOptions{},
                      [&](const InvariantRow& row) {
                        std::vector<double> dense(last - first, 0.0);
                        for (uint32_t k = 0; k < row.len; ++k) {
                          dense[row.first - first + k * row.stride] = 1.0;
                        }
                        m.AppendRow(dense);
                      });
  return m;
}

double MaxInvariantViolation(const std::vector<LinearConstraint>& invariants,
                             const std::vector<double>& p) {
  double worst = 0.0;
  for (const auto& c : invariants) {
    worst = std::max(worst, c.Violation(p));
  }
  return worst;
}

bool InRowSpaceOfInvariants(const anonymize::BucketizedTable& table,
                            const TermIndex& index, uint32_t b,
                            const std::vector<double>& dense_expression) {
  linalg::DenseMatrix m = BucketInvariantMatrix(table, index, b);
  return m.RowSpaceContains(dense_expression);
}

size_t BucketInvariantRank(const anonymize::BucketizedTable& table,
                           const TermIndex& index, uint32_t b) {
  return BucketInvariantMatrix(table, index, b).Rank();
}

}  // namespace pme::constraints
