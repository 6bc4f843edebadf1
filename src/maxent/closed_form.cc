#include "maxent/closed_form.h"

#include <algorithm>
#include <cmath>

namespace pme::maxent {

using constraints::ConstraintSource;
using constraints::LinearConstraint;

void ClosedFormBucket(const anonymize::BucketizedTable& table,
                      const constraints::TermIndex& index, uint32_t b,
                      std::vector<double>* p) {
  // The index lists bucket b's instances in the order of the table's
  // runs, so the count of rank r is run r's.
  const auto qi_runs = table.BucketQiCounts(b);
  const auto sa_runs = table.BucketSaCounts(b);
  const auto [first, last] = index.BucketRange(b);
  (void)last;
  const double prob_b = table.ProbB(b);
  const uint32_t h = static_cast<uint32_t>(sa_runs.size());
  for (uint32_t qi_rank = 0; qi_rank < qi_runs.size(); ++qi_rank) {
    const double pq = table.CountProb(qi_runs[qi_rank].count);
    for (uint32_t sa_rank = 0; sa_rank < h; ++sa_rank) {
      const double ps = table.CountProb(sa_runs[sa_rank].count);
      (*p)[first + qi_rank * h + sa_rank] = pq * ps / prob_b;
    }
  }
}

std::vector<double> ClosedFormNoKnowledge(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index) {
  std::vector<double> p(index.num_variables(), 0.0);
  for (uint32_t b = 0; b < table.num_buckets(); ++b) {
    ClosedFormBucket(table, index, b, &p);
  }
  return p;
}

std::vector<double> ClosedFormDual(
    const constraints::TermIndex& index, const std::vector<double>& prior,
    const std::vector<const LinearConstraint*>& rows) {
  std::vector<double> lambda(rows.size(), 0.0);
  for (size_t j = 0; j < rows.size(); ++j) {
    const LinearConstraint& c = *rows[j];
    const bool qi = c.source == ConstraintSource::kQiInvariant;
    if ((!qi && c.source != ConstraintSource::kSaInvariant) ||
        c.vars.empty()) {
      continue;
    }
    // Bucket b's variable of ranks (q, s) is first + q·h + s: a QI row
    // runs along one q, an SA row along one s, so any of its variables
    // names its rank.
    const uint32_t b = index.TermOf(c.vars.front()).bucket;
    const uint32_t first = index.BucketRange(b).first;
    const uint32_t h = static_cast<uint32_t>(index.BucketSaList(b).size());
    const uint32_t offset = c.vars.front() - first;
    lambda[j] = qi ? std::log(prior[first + offset / h * h]) + 1.0
                   : std::log(prior[first + offset % h]) -
                         std::log(prior[first]);
  }
  return lambda;
}

}  // namespace pme::maxent
