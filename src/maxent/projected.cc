// Projected-gradient minimizer for the inequality-extended dual
// (Kazama & Tsujii [11], Section 4.5 of the paper).
//
// The stacked dual has one multiplier per constraint row; multipliers of
// inequality rows (indices >= num_eq) must stay nonpositive. The feasible
// set is a box, so projection is a componentwise min with zero. Steps use
// the Barzilai–Borwein spectral length with projected Armijo backtracking.

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/math_util.h"
#include "common/vec_math.h"
#include "maxent/solvers_internal.h"

namespace pme::maxent::internal {
namespace {

void Project(size_t num_eq, std::vector<double>* lambda) {
  for (size_t j = num_eq; j < lambda->size(); ++j) {
    (*lambda)[j] = std::min((*lambda)[j], 0.0);
  }
}

/// Projected-gradient norm: the usual gradient for free coordinates; for
/// box coordinates at the boundary, only the infeasible-direction part.
double ProjectedGradInf(const std::vector<double>& lambda,
                        const std::vector<double>& grad, size_t num_eq) {
  double worst = 0.0;
  for (size_t j = 0; j < lambda.size(); ++j) {
    double g = grad[j];
    if (j >= num_eq && lambda[j] >= 0.0) {
      // At the boundary λ_j = 0 we can only move downward: a negative
      // gradient component (wanting λ_j to grow) is not a violation.
      g = std::max(g, 0.0);
    }
    worst = std::max(worst, std::fabs(g));
  }
  return worst;
}

}  // namespace

Result<DualOutcome> MinimizeProjected(const DualFunction& dual, size_t num_eq,
                                      std::vector<double> start,
                                      const SolverOptions& options) {
  const size_t m = dual.dim();
  DualOutcome out;
  out.lambda = std::move(start);
  Project(num_eq, &out.lambda);  // a warm start must enter the feasible box
  if (m == 0) {
    out.converged = true;
    return out;
  }
  if (StatusCode stop = CheckStop(options); stop != StatusCode::kOk) {
    out.stop = stop;
    return out;
  }

  DualWorkspace ws;
  std::vector<double> grad(m), prev_lambda, prev_grad;
  double value = dual.EvaluateInto(out.lambda, &grad, &ws);
  double bb_step = 1.0;

  std::vector<double> trial(m), trial_grad(m);
  StallDetector stall;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    out.grad_inf = ProjectedGradInf(out.lambda, grad, num_eq);
    out.iterations = iter;
    if (out.grad_inf <= options.tolerance) {
      out.converged = true;
      out.dual_value = value;
      return out;
    }
    if (StatusCode stop = CheckStop(options); stop != StatusCode::kOk) {
      out.stop = stop;
      out.dual_value = value;
      return out;
    }

    // Barzilai–Borwein step length from the previous move.
    if (!prev_lambda.empty()) {
      double sy = 0.0, ss = 0.0;
      for (size_t j = 0; j < m; ++j) {
        const double s = out.lambda[j] - prev_lambda[j];
        const double y = grad[j] - prev_grad[j];
        sy += s * y;
        ss += s * s;
      }
      bb_step = (sy > 1e-16) ? ss / sy : 1.0;
      bb_step = std::clamp(bb_step, 1e-10, 1e10);
    }

    prev_lambda = out.lambda;
    prev_grad = grad;

    // Projected Armijo backtracking on the path λ(t) = P(λ − t·∇D).
    const double c1 = 1e-4;
    double step = bb_step;
    bool accepted = false;
    double accepted_value = value;
    for (size_t ls = 0; ls < kMaxLineSearchSteps; ++ls) {
      ++out.line_search_probes;
      kernels::ScaledAdd(out.lambda, -step, grad, trial);
      Project(num_eq, &trial);
      // Differences first, then the dot: the fused form stays accurate
      // when trial − λ is tiny (a two-dot difference would cancel).
      double decrease_model = 0.0;
      for (size_t j = 0; j < m; ++j) {
        decrease_model += grad[j] * (trial[j] - out.lambda[j]);
      }
      const double trial_value = dual.EvaluateInto(trial, &trial_grad, &ws);
      if (std::isfinite(trial_value) &&
          trial_value <= value + c1 * decrease_model) {
        accepted = true;
        accepted_value = trial_value;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;  // stalled at numerical precision

    out.lambda.swap(trial);
    grad.swap(trial_grad);
    const double prev_value = value;
    value = accepted_value;
    out.iterations = iter + 1;
    if (stall.Update(prev_value, value)) break;
  }
  out.dual_value = value;
  out.grad_inf = ProjectedGradInf(out.lambda, grad, num_eq);
  out.converged = out.grad_inf <= options.tolerance;
  return out;
}

}  // namespace pme::maxent::internal
