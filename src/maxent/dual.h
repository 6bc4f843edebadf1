// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_DUAL_H_
#define PME_MAXENT_DUAL_H_

#include <memory>
#include <vector>

#include "common/team.h"
#include "linalg/sparse_matrix.h"

namespace pme::maxent {

/// Caller-owned scratch for the allocation-free dual evaluation. One
/// workspace per solver run; after the first Evaluate the buffers are at
/// their final size and every subsequent call — including every
/// line-search probe — performs zero heap allocations.
struct DualWorkspace {
  /// The primal iterate p(λ) = exp(Aᵀλ − 1), size n. Valid after each
  /// EvaluateInto; the exponent Aᵀλ is computed into this same buffer
  /// and overwritten in place, so no separate `t` scratch exists.
  std::vector<double> p;
};

/// The Lagrange dual of the equality-constrained MaxEnt problem
/// (Section 3.3 converts the constrained problem to an unconstrained one
/// exactly this way).
///
/// For  max H(p) s.t. A p = b, p ≥ 0,  stationarity of the Lagrangian
/// L(p, λ) = H(p) + λᵀ(A p − b) gives  p_i(λ) = exp((Aᵀλ)_i − 1),  and the
/// dual objective to *minimize* over free λ is
///
///   D(λ) = Σ_i exp((Aᵀλ)_i − 1) − bᵀλ,       ∇D(λ) = A p(λ) − b.
///
/// D is smooth and convex; its gradient is the constraint residual, so the
/// solver's convergence measure ‖∇D‖∞ is exactly the worst constraint
/// violation of the current primal iterate.
///
/// The same object serves the inequality-extended problem (Kazama–Tsujii):
/// `a` is a MaxEntProblem's stacked matrix (maxent/problem.h), and the
/// minimizer keeps the multipliers of its ≤ rows at λ_j ≤ 0.
///
/// Not thread-safe: one minimizer drives it, and the team does the rest.
class DualFunction {
 public:
  /// `a` (m×n), the buffer behind `b` (size m) and `team` must outlive
  /// this object; a null `team` means a team of one of its own. Every
  /// evaluation runs on the team: Aᵀλ as one column slice per member (the
  /// slices' row segments are found here, once), A·p as one row range
  /// per member, and the sums over the fixed chunks of common/team.h — so
  /// every result has the same bits for any team size.
  DualFunction(const linalg::SparseMatrix* a, kernels::ConstSpan b,
               Team* team = nullptr);

  /// Dual dimension m (number of constraints).
  size_t dim() const { return b_.size; }
  /// Primal dimension n (number of probability terms).
  size_t num_vars() const { return a_->cols(); }
  /// The right-hand side b (size m).
  kernels::ConstSpan b() const { return b_; }
  /// The team every evaluation runs on; the minimizers run their vector
  /// algebra on it too.
  Team& team() const { return *team_; }
  /// EvaluateInto calls so far (Evaluate and Primal included).
  size_t evaluations() const { return evaluations_; }

  /// Evaluates D(λ). When non-null, `grad` receives ∇D (size m) and `p`
  /// receives the primal iterate p(λ) (size n). Convenience wrapper over
  /// EvaluateInto; allocates a fresh workspace per call — solvers use
  /// EvaluateInto directly to keep their hot loop allocation-free.
  double Evaluate(const std::vector<double>& lambda,
                  std::vector<double>* grad, std::vector<double>* p) const;

  /// Fused evaluation of D(λ) into caller-owned scratch: the exponent
  /// Aᵀλ, the primal p(λ) and the running sum Σp are produced in a
  /// single pass over `ws->p`, then ∇D = A p − b is written into `grad`
  /// (when non-null). Buffers are grown on first use and merely reused
  /// afterwards — no per-call heap traffic.
  double EvaluateInto(const std::vector<double>& lambda,
                      std::vector<double>* grad, DualWorkspace* ws) const;

  /// The primal iterate p(λ) alone.
  std::vector<double> Primal(const std::vector<double>& lambda) const;

 private:
  const linalg::SparseMatrix* a_;
  kernels::ConstSpan b_;
  std::unique_ptr<Team> own_team_;  // set when constructed without a team
  Team* team_;
  /// Member t scatters slices_[t], the columns of variable chunks
  /// [col_chunks_[t], col_chunks_[t + 1]) (chunk-aligned, so it also
  /// takes those chunks' exp-sum), and computes ∇D on rows
  /// [row_cuts_[t], row_cuts_[t + 1]). Both splits balance nonzeros.
  std::vector<size_t> col_chunks_;
  std::vector<linalg::SparseMatrix::ColumnSlice> slices_;
  std::vector<size_t> row_cuts_;
  // Per-chunk partials of Σp (variable chunks) and bᵀλ (row chunks).
  mutable std::vector<double> exp_partials_;
  mutable std::vector<double> dot_partials_;
  mutable size_t evaluations_ = 0;
};

}  // namespace pme::maxent

#endif  // PME_MAXENT_DUAL_H_
