// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_DUAL_H_
#define PME_MAXENT_DUAL_H_

#include <vector>

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
/// stack the inequality rows below the equality rows and constrain their
/// multipliers to λ_j ≤ 0 (handled by the projected solver).
class DualFunction {
 public:
  /// `a` (m×n) and the buffer behind `b` (size m) must outlive this
  /// object.
  DualFunction(const linalg::SparseMatrix* a, kernels::ConstSpan b);

  /// Dual dimension m (number of constraints).
  size_t dim() const { return b_.size; }
  /// Primal dimension n (number of probability terms).
  size_t num_vars() const { return a_->cols(); }

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

  /// The constraint matrix A (needed by iterative-scaling solvers for
  /// column sums) and RHS b.
  const linalg::SparseMatrix& matrix() const { return *a_; }
  kernels::ConstSpan rhs() const { return b_; }

 private:
  const linalg::SparseMatrix* a_;
  kernels::ConstSpan b_;
};

}  // namespace pme::maxent

#endif  // PME_MAXENT_DUAL_H_
