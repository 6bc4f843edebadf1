#include "core/posterior.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.h"
#include "common/vec_math.h"

namespace pme::core {

PosteriorTable PosteriorTable::FromSolution(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index, const std::vector<double>& p) {
  PosteriorTable t;
  t.num_qi_ = table.num_qi_values();
  t.num_sa_ = table.num_sa_values();
  t.rows_.assign(static_cast<size_t>(t.num_qi_) * t.num_sa_, 0.0);
  t.prob_q_.resize(t.num_qi_);
  for (uint32_t q = 0; q < t.num_qi_; ++q) t.prob_q_[q] = table.ProbQ(q);

  // P*(q, s) = Σ_b p(q, s, b); normalize by P(q).
  for (uint32_t var = 0; var < index.num_variables(); ++var) {
    const auto& term = index.TermOf(var);
    t.rows_[term.qi * t.num_sa_ + term.sa] += p[var];
  }
  for (uint32_t q = 0; q < t.num_qi_; ++q) {
    const double pq = t.prob_q_[q];
    if (pq <= 0.0) continue;
    for (uint32_t s = 0; s < t.num_sa_; ++s) {
      t.rows_[q * t.num_sa_ + s] /= pq;
    }
  }
  return t;
}

PosteriorTable PosteriorTable::GroundTruth(
    const anonymize::BucketizedTable& table) {
  PosteriorTable t;
  t.num_qi_ = table.num_qi_values();
  t.num_sa_ = table.num_sa_values();
  t.rows_.assign(static_cast<size_t>(t.num_qi_) * t.num_sa_, 0.0);
  t.prob_q_.assign(t.num_qi_, 0.0);

  std::vector<double> q_counts(t.num_qi_, 0.0);
  for (const auto& r : table.records()) {
    t.rows_[r.qi * t.num_sa_ + r.sa] += 1.0;
    q_counts[r.qi] += 1.0;
  }
  const double n = static_cast<double>(table.num_records());
  for (uint32_t q = 0; q < t.num_qi_; ++q) {
    t.prob_q_[q] = q_counts[q] / n;
    if (q_counts[q] <= 0.0) continue;
    for (uint32_t s = 0; s < t.num_sa_; ++s) {
      t.rows_[q * t.num_sa_ + s] /= q_counts[q];
    }
  }
  return t;
}

PosteriorTable PosteriorTable::Overlay(
    std::shared_ptr<const PosteriorTable> base, std::vector<uint32_t> qs) {
  PosteriorTable t;
  t.num_qi_ = base->num_qi_;
  t.num_sa_ = base->num_sa_;
  t.overridden_ = std::move(qs);
  t.base_ = std::move(base);
  return t;
}

std::vector<double> PosteriorTable::Row(uint32_t q) const {
  const double* row = RowData(q);
  return std::vector<double>(row, row + num_sa_);
}

double EstimationAccuracy(const PosteriorTable& truth,
                          const PosteriorTable& estimate) {
  double accuracy = 0.0;
  const uint32_t num_sa = truth.num_sa();
  for (uint32_t q = 0; q < truth.num_qi(); ++q) {
    const double pq = truth.ProbQ(q);
    if (pq <= 0.0) continue;
    accuracy +=
        pq * KlDivergence(truth.RowData(q), estimate.RowData(q), num_sa);
  }
  return accuracy;
}

PrivacyMetrics ComputePrivacyMetrics(const PosteriorTable& posterior) {
  PrivacyMetrics metrics;
  metrics.min_effective_candidates = std::numeric_limits<double>::max();
  const uint32_t num_sa = posterior.num_sa();
  for (uint32_t q = 0; q < posterior.num_qi(); ++q) {
    const double* row = posterior.RowData(q);
    const double best = *std::max_element(row, row + num_sa);
    metrics.max_disclosure = std::max(metrics.max_disclosure, best);
    metrics.expected_best_guess += posterior.ProbQ(q) * best;
    metrics.min_effective_candidates =
        std::min(metrics.min_effective_candidates,
                 std::exp(kernels::NegXLogXSum({row, num_sa})));
  }
  return metrics;
}

namespace {

/// One q's evaluation slice: KL against the truth, best guess, effective
/// candidates.
struct RowEvaluation {
  double kl;
  double best_guess;
  double effective_candidates;
};

RowEvaluation EvaluateRow(const PosteriorTable& truth, const double* row,
                          uint32_t q) {
  const uint32_t num_sa = truth.num_sa();
  RowEvaluation e;
  e.kl = truth.ProbQ(q) <= 0.0
             ? 0.0
             : KlDivergence(truth.RowData(q), row, num_sa);
  e.best_guess = *std::max_element(row, row + num_sa);
  e.effective_candidates = std::exp(kernels::NegXLogXSum({row, num_sa}));
  return e;
}

}  // namespace

PerQEvaluation EvaluatePerQ(const PosteriorTable& truth,
                            const PosteriorTable& estimate) {
  PerQEvaluation eval;
  eval.kl.resize(truth.num_qi());
  eval.best_guess.resize(truth.num_qi());
  eval.effective_candidates.resize(truth.num_qi());
  for (uint32_t q = 0; q < truth.num_qi(); ++q) {
    const RowEvaluation e = EvaluateRow(truth, estimate.RowData(q), q);
    eval.kl[q] = e.kl;
    eval.best_guess[q] = e.best_guess;
    eval.effective_candidates[q] = e.effective_candidates;
  }
  return eval;
}

void EvaluateOverlay(const PosteriorTable& truth,
                     const PosteriorTable& estimate,
                     const PerQEvaluation& base_eval, double* accuracy,
                     PrivacyMetrics* metrics) {
  // One fold over q with the accumulation order of EstimationAccuracy and
  // ComputePrivacyMetrics, evaluating each overridden row on the way.
  const std::vector<uint32_t>& overridden = estimate.overridden_rows();
  *accuracy = 0.0;
  *metrics = PrivacyMetrics();
  metrics->min_effective_candidates = std::numeric_limits<double>::max();
  size_t k = 0;
  for (uint32_t q = 0; q < estimate.num_qi(); ++q) {
    RowEvaluation e;
    if (k < overridden.size() && overridden[k] == q) {
      e = EvaluateRow(truth, estimate.OverriddenRowData(k++), q);
    } else {
      e = {base_eval.kl[q], base_eval.best_guess[q],
           base_eval.effective_candidates[q]};
    }
    const double pq = truth.ProbQ(q);
    if (pq > 0.0) *accuracy += pq * e.kl;
    metrics->max_disclosure = std::max(metrics->max_disclosure, e.best_guess);
    metrics->expected_best_guess += estimate.ProbQ(q) * e.best_guess;
    metrics->min_effective_candidates =
        std::min(metrics->min_effective_candidates, e.effective_candidates);
  }
}

}  // namespace pme::core
