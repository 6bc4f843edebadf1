#include "constraints/invariants.h"

#include <utility>

namespace pme::constraints {

std::vector<LinearConstraint> GenerateInvariants(
    const anonymize::BucketizedTable& table, const TermIndex& index,
    const InvariantOptions& options) {
  std::vector<LinearConstraint> out;
  for (uint32_t b = 0; b < table.num_buckets(); ++b) {
    ForEachInvariantRow(table, index, b, options, [&](const InvariantRow& row) {
      LinearConstraint c;
      c.source = row.source;
      c.rel = Relation::kEq;
      c.rhs = row.rhs;
      c.vars.reserve(row.len);
      c.coefs.assign(row.len, 1.0);
      for (uint32_t k = 0; k < row.len; ++k) {
        c.vars.push_back(row.first + k * row.stride);
      }
      out.push_back(std::move(c));
    });
  }
  return out;
}

}  // namespace pme::constraints
