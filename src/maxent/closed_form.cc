#include "maxent/closed_form.h"

#include <algorithm>
#include <cmath>

namespace pme::maxent {
namespace {

/// Closed form restricted to one bucket: writes only the variables of
/// bucket `b` into `p` (the rest untouched).
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

}  // namespace

std::vector<double> ClosedFormNoKnowledge(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index) {
  std::vector<double> p(index.num_variables(), 0.0);
  for (uint32_t b = 0; b < table.num_buckets(); ++b) {
    ClosedFormBucket(table, index, b, &p);
  }
  return p;
}

std::vector<double> ClosedFormDual(const BlockPlan& plan,
                                   const PlanBlock& block,
                                   const std::vector<double>& prior) {
  std::vector<double> lambda;
  lambda.reserve(block.num_rows());
  for (const uint32_t b : block.buckets) {
    // A QI row starts at its rank's (q, s₀) cell, an SA row at its
    // rank's (q₀, s) cell.
    const uint32_t first = plan.index().BucketRange(b).first;
    constraints::ForEachInvariantRow(
        plan.table(), plan.index(), b, plan.invariant_options(),
        [&](const constraints::InvariantRow& row) {
          lambda.push_back(
              row.source == constraints::ConstraintSource::kQiInvariant
                  ? std::log(prior[row.first]) + 1.0
                  : std::log(prior[row.first]) - std::log(prior[first]));
        });
  }
  lambda.resize(block.num_rows(), 0.0);
  return lambda;
}

}  // namespace pme::maxent
