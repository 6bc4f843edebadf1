#include "constraints/invariants.h"

#include <algorithm>

namespace pme::constraints {

std::vector<LinearConstraint> GenerateInvariants(
    const anonymize::BucketizedTable& table, const TermIndex& index,
    const InvariantOptions& options) {
  std::vector<LinearConstraint> out;
  for (uint32_t b = 0; b < table.num_buckets(); ++b) {
    // The index lists bucket b's instances in the order of the table's
    // runs, so the count of rank r is run r's.
    const auto qi_runs = table.BucketQiCounts(b);
    const auto sa_runs = table.BucketSaCounts(b);
    const uint32_t g = static_cast<uint32_t>(qi_runs.size());
    const uint32_t h = static_cast<uint32_t>(sa_runs.size());
    const auto [first, last] = index.BucketRange(b);
    (void)last;

    // QI-invariant (Eq. 4): for each q in the bucket, the row covers the
    // contiguous variable block [first + rank(q)*h, ... + h).
    for (uint32_t qi_rank = 0; qi_rank < g; ++qi_rank) {
      LinearConstraint c;
      c.source = ConstraintSource::kQiInvariant;
      c.rel = Relation::kEq;
      c.rhs = table.CountProb(qi_runs[qi_rank].count);
      c.vars.reserve(h);
      c.coefs.assign(h, 1.0);
      for (uint32_t sa_rank = 0; sa_rank < h; ++sa_rank) {
        c.vars.push_back(first + qi_rank * h + sa_rank);
      }
      out.push_back(std::move(c));
    }

    // SA-invariant (Eq. 5): for each s, the row strides across QI blocks.
    // Theorem 3: one row per bucket is redundant; dropping the first
    // SA-invariant leaves a minimal complete set.
    const uint32_t sa_start = options.drop_redundant_row ? 1 : 0;
    for (uint32_t sa_rank = sa_start; sa_rank < h; ++sa_rank) {
      LinearConstraint c;
      c.source = ConstraintSource::kSaInvariant;
      c.rel = Relation::kEq;
      c.rhs = table.CountProb(sa_runs[sa_rank].count);
      c.vars.reserve(g);
      c.coefs.assign(g, 1.0);
      for (uint32_t qi_rank = 0; qi_rank < g; ++qi_rank) {
        c.vars.push_back(first + qi_rank * h + sa_rank);
      }
      out.push_back(std::move(c));
    }
  }
  return out;
}

linalg::DenseMatrix BucketInvariantMatrix(
    const anonymize::BucketizedTable& table, const TermIndex& index,
    uint32_t b) {
  const auto [first, last] = index.BucketRange(b);
  const size_t width = last - first;

  InvariantOptions keep_all;
  // Generate invariants for the whole table, then keep bucket b's rows.
  // (Cheap relative to test usage; avoids duplicating the emission logic.)
  auto all = GenerateInvariants(table, index, keep_all);

  linalg::DenseMatrix m(0, 0);
  for (const auto& c : all) {
    if (c.vars.empty() || c.vars.front() < first || c.vars.front() >= last) {
      continue;
    }
    std::vector<double> row(width, 0.0);
    for (size_t i = 0; i < c.vars.size(); ++i) {
      row[c.vars[i] - first] = c.coefs[i];
    }
    m.AppendRow(row);
  }
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
