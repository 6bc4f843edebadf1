// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// The internal dual minimizer. Public entry point is maxent/solver.h.

#ifndef PME_MAXENT_SOLVERS_INTERNAL_H_
#define PME_MAXENT_SOLVERS_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "maxent/dual.h"
#include "maxent/solver.h"

namespace pme::maxent::internal {

/// Step budget of the backtracking line search.
inline constexpr size_t kMaxLineSearchSteps = 60;

/// The once-per-iteration interrupt poll the minimizer runs: kOk to
/// keep iterating, kCancelled / kDeadlineExceeded to stop and return the
/// best iterate so far.
inline StatusCode CheckStop(const SolverOptions& options) {
  return CheckInterrupt(options.deadline, options.cancel);
}

/// Relative dual-value progress below which an accepted step counts as
/// stalled: improvement <= kStallFtol * (|D| + 1).
inline constexpr double kStallFtol = 1e-15;
/// Consecutive stalled-but-accepted steps that make a stall run.
inline constexpr size_t kMaxStallIterations = 50;

/// Detects runs of accepted-but-worthless line-search steps: near the
/// numerical floor the Armijo test keeps accepting rounding-noise
/// improvements, and without a cutoff a solve sitting a few ulps above
/// the gradient tolerance burns its whole iteration budget.
class StallDetector {
 public:
  /// Records one accepted step; true when kMaxStallIterations
  /// consecutive steps each improved the dual by no more than
  /// kStallFtol * (|value| + 1).
  bool Update(double prev_value, double value) {
    if (prev_value - value <= kStallFtol * (std::fabs(value) + 1.0)) {
      return ++stalled_ >= kMaxStallIterations;
    }
    stalled_ = 0;
    return false;
  }

  void Reset() { stalled_ = 0; }

 private:
  size_t stalled_ = 0;
};

/// The minimizer's per-row scale: D_j = max(|(A p)_j|, |b_j|), with
/// (A p)_j = g_j + b_j read off the gradient g = A p − b. Every row the
/// system builds has coefficients all +1 (invariant and knowledge rows)
/// or all −1 (a negated >= row), so |(A p)_j| = Σ_i a_ji² p_i, the dual
/// Hessian's diagonal entry: D_j is the row's curvature wherever that
/// exceeds |b_j|, which floors it where the row's mass has collapsed. On
/// a row with other coefficients D_j is only some positive weight, which
/// still yields a descent direction. A row with b_j = 0 and no mass falls
/// back to the least normal double, so 1 / D_j stays finite.
inline double RowCurvature(double grad_j, double b_j) {
  return std::max({std::fabs(grad_j + b_j), std::fabs(b_j),
                   std::numeric_limits<double>::min()});
}

/// Result of minimizing the dual.
struct DualOutcome {
  std::vector<double> lambda;
  size_t iterations = 0;
  bool converged = false;
  double dual_value = 0.0;
  /// ‖·‖∞ of the projected gradient at the final iterate (for an
  /// equality-only dual, the worst constraint violation).
  double grad_inf = 0.0;
  /// Dual evaluations made by line-search probes.
  size_t line_search_probes = 0;
  /// True when the solve ended because it stopped improving: a second
  /// StallDetector run, or a line search that found no acceptable step.
  bool stalled = false;
  /// kOk for a normal finish; kDeadlineExceeded / kCancelled when the
  /// solve was interrupted — `lambda` is still the best iterate so far.
  StatusCode stop = StatusCode::kOk;
};

/// Limited-memory BFGS with two-loop recursion and Armijo backtracking,
/// bound-constrained in the manner of L-BFGS-B (Byrd, Lu, Nocedal and
/// Zhu): multipliers with index >= num_eq, those of the stacked dual's ≤
/// rows, stay λ_j ≤ 0 (the Kazama–Tsujii sign condition). The start is
/// projected into that box; each iteration freezes the tail coordinates
/// on the bound whose gradient points outward, runs the two-loop
/// recursion on the rest with the diagonal initial Hessian γ·D⁻¹
/// (D from RowCurvature at the current gradient), and backtracks along
/// the projected path. With num_eq == dual.dim() it is plain LBFGS.
/// Starts from `start` (dual.dim() finite entries — Solve passes zeros
/// or the mapped SolverOptions::warm_start) and returns its best iterate.
Result<DualOutcome> MinimizeLbfgs(const DualFunction& dual, size_t num_eq,
                                  std::vector<double> start,
                                  const SolverOptions& options);

}  // namespace pme::maxent::internal

#endif  // PME_MAXENT_SOLVERS_INTERNAL_H_
