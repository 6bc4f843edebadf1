// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CORE_POSTERIOR_H_
#define PME_CORE_POSTERIOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "constraints/term_index.h"

namespace pme::core {

/// The adversary's posterior P*(SA | QI): the end product of
/// Privacy-MaxEnt and the input to every privacy metric (Section 3.1:
/// P(S|Q) = Σ_B P(Q,S,B) / P(Q)).
///
/// Either dense (one row per QI instance) or an overlay: a shared dense
/// base with a few rows replaced. A request whose knowledge moves only
/// some buckets off the closed-form prior overrides just the rows of
/// those buckets' QI instances and reads every other row through to the
/// prior posterior — the read API is the same for both.
class PosteriorTable {
 public:
  /// Derives P*(s | q) from a MaxEnt joint solution `p` over `index`.
  static PosteriorTable FromSolution(const anonymize::BucketizedTable& table,
                                     const constraints::TermIndex& index,
                                     const std::vector<double>& p);

  /// The ground-truth conditional P(s | q) of the original data
  /// (evaluation only — an adversary cannot compute this).
  static PosteriorTable GroundTruth(const anonymize::BucketizedTable& table);

  /// An overlay of the dense `base` (kept alive by the overlay) that
  /// replaces rows `qs` (strictly ascending); RecomputeRows sets them.
  static PosteriorTable Overlay(std::shared_ptr<const PosteriorTable> base,
                                std::vector<uint32_t> qs);

  uint32_t num_qi() const { return num_qi_; }
  uint32_t num_sa() const { return num_sa_; }

  /// P*(s | q).
  double Conditional(uint32_t q, uint32_t s) const { return RowData(q)[s]; }

  /// The conditional distribution over all SA instances for one q.
  std::vector<double> Row(uint32_t q) const;

  /// Borrowed view of Row(q) (num_sa() doubles) — the hot evaluation
  /// loops (accuracy, metrics) read every row and must not allocate one
  /// copy per q.
  const double* RowData(uint32_t q) const {
    if (base_ == nullptr) {
      return rows_.data() + static_cast<size_t>(q) * num_sa_;
    }
    const size_t slot = Slot(q);
    return slot < overridden_.size() ? rows_.data() + slot * num_sa_
                                     : base_->RowData(q);
  }

  /// The q-marginal P(q) used for weighting.
  double ProbQ(uint32_t q) const {
    return base_ == nullptr ? prob_q_[q] : base_->ProbQ(q);
  }

  /// The rows an overlay replaces, ascending; empty for a dense table.
  const std::vector<uint32_t>& overridden_rows() const { return overridden_; }

  /// Row data of overridden_rows()[k]: the overlay's own rows, read
  /// without the search RowData does.
  const double* OverriddenRowData(size_t k) const {
    return rows_.data() + k * num_sa_;
  }

  /// Overlays only: recomputes every overridden row from a joint solution
  /// readable as `p[var]` (a full vector, or a maxent::JointView). The
  /// variables of q are q_vars[q_offsets[q] .. q_offsets[q+1]), ascending
  /// (the artifact's per-q index). Identical arithmetic to FromSolution
  /// for each row — accumulate contributions in var order, then divide
  /// by P(q) — so recomputing only the knowledge-touched rows reproduces
  /// the full rebuild bit for bit.
  template <typename Joint>
  void RecomputeRows(const std::vector<uint32_t>& q_offsets,
                     const std::vector<uint32_t>& q_vars,
                     const constraints::TermIndex& index, const Joint& p) {
    rows_.assign(overridden_.size() * num_sa_, 0.0);
    for (size_t k = 0; k < overridden_.size(); ++k) {
      const uint32_t q = overridden_[k];
      double* row = rows_.data() + k * num_sa_;
      for (uint32_t i = q_offsets[q]; i < q_offsets[q + 1]; ++i) {
        row[index.TermOf(q_vars[i]).sa] += p[q_vars[i]];
      }
      const double pq = ProbQ(q);
      if (pq <= 0.0) continue;
      for (uint32_t s = 0; s < num_sa_; ++s) row[s] /= pq;
    }
  }

 private:
  /// Overlay slot of q, or overridden_.size() when q reads the base.
  size_t Slot(uint32_t q) const {
    const auto it =
        std::lower_bound(overridden_.begin(), overridden_.end(), q);
    return it != overridden_.end() && *it == q
               ? static_cast<size_t>(it - overridden_.begin())
               : overridden_.size();
  }

  uint32_t num_qi_ = 0;
  uint32_t num_sa_ = 0;
  // Dense: row-major num_qi x num_sa. Overlay: one row per overridden q.
  std::vector<double> rows_;
  std::vector<double> prob_q_;  // P(q); dense only
  std::shared_ptr<const PosteriorTable> base_;
  std::vector<uint32_t> overridden_;
};

/// The paper's evaluation measure (Section 7.1): the weighted
/// Kullback–Leibler distance
///
///   EA = Σ_q P(q) Σ_s P(s|q) · ln( P(s|q) / P*(s|q) ),
///
/// between the ground-truth conditionals and the MaxEnt estimate. Smaller
/// means the adversary's estimate is closer to the truth — *less* privacy.
/// Natural log (nats); the paper's plots use an unspecified base, which
/// only scales the axis.
double EstimationAccuracy(const PosteriorTable& truth,
                          const PosteriorTable& estimate);

/// Classical posterior-based privacy metrics computed from P*(SA | QI).
struct PrivacyMetrics {
  /// max_{q,s} P*(s | q): the worst-case disclosure risk (the quantity
  /// bounded by L-diversity-style metrics).
  double max_disclosure = 0.0;
  /// Σ_q P(q) max_s P*(s | q): expected confidence of the adversary's
  /// best guess.
  double expected_best_guess = 0.0;
  /// min_q exp(H(P*(· | q))): the smallest effective number of SA
  /// candidates any individual retains (entropy ℓ-diversity of the
  /// posterior).
  double min_effective_candidates = 0.0;
};

PrivacyMetrics ComputePrivacyMetrics(const PosteriorTable& posterior);

/// Per-q slices of the two evaluations above.
struct PerQEvaluation {
  std::vector<double> kl;  ///< KL(truth_q ‖ estimate_q); 0 where P(q)=0
  std::vector<double> best_guess;             ///< max_s P*(s | q)
  std::vector<double> effective_candidates;   ///< exp(H(P*(· | q)))
};

/// Full per-q evaluation (every row), computed with exactly the same
/// per-row arithmetic as EstimationAccuracy / ComputePrivacyMetrics.
PerQEvaluation EvaluatePerQ(const PosteriorTable& truth,
                            const PosteriorTable& estimate);

/// EstimationAccuracy and ComputePrivacyMetrics of an overlay `estimate`
/// whose base evaluates to `base_eval` (EvaluatePerQ against `truth`):
/// re-derives the slices of the overridden rows only, in one fold over q
/// in the order the full evaluations use — so both results equal theirs
/// on the dense table bit for bit, at O(overridden rows + num_qi) instead
/// of a log/exp pass over every cell.
void EvaluateOverlay(const PosteriorTable& truth,
                     const PosteriorTable& estimate,
                     const PerQEvaluation& base_eval, double* accuracy,
                     PrivacyMetrics* metrics);

}  // namespace pme::core

#endif  // PME_CORE_POSTERIOR_H_
