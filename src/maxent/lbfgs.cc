#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "common/failpoint.h"
#include "common/math_util.h"
#include "common/vec_math.h"
#include "maxent/solvers_internal.h"

namespace pme::maxent::internal {
namespace {

/// LBFGS memory: the number of (s, y) correction pairs kept.
constexpr size_t kHistory = 10;

/// Armijo backtracking. On success updates (lambda, value, grad) and
/// returns true. Every probe evaluates through the shared workspace, so
/// the line search allocates nothing.
bool Backtrack(const DualFunction& dual, const std::vector<double>& direction,
               double dir_dot_grad, double initial_step,
               std::vector<double>* lambda, double* value,
               std::vector<double>* grad, std::vector<double>* scratch_lambda,
               std::vector<double>* scratch_grad, DualWorkspace* ws) {
  const double c1 = 1e-4;
  double step = initial_step;
  for (size_t ls = 0; ls < kMaxLineSearchSteps; ++ls) {
    kernels::ScaledAdd(*lambda, step, direction, *scratch_lambda);
    const double trial_value =
        dual.EvaluateInto(*scratch_lambda, scratch_grad, ws);
    if (std::isfinite(trial_value) &&
        trial_value <= *value + c1 * step * dir_dot_grad) {
      lambda->swap(*scratch_lambda);
      grad->swap(*scratch_grad);
      *value = trial_value;
      return true;
    }
    step *= 0.5;
  }
  return false;
}

}  // namespace

Result<DualOutcome> MinimizeLbfgs(const DualFunction& dual,
                                  std::vector<double> start,
                                  const SolverOptions& options) {
  const size_t m = dual.dim();
  DualOutcome out;
  out.lambda = std::move(start);
  if (m == 0) {
    out.converged = true;
    return out;
  }
  if (StatusCode stop = CheckStop(options); stop != StatusCode::kOk) {
    // Budget was gone before the first evaluation: the start point is the
    // best (and only) iterate.
    out.stop = stop;
    return out;
  }

  // Failpoints, counted once per solve so a fault can be aimed at the
  // Nth component of a decomposed run: `lbfgs_nan` poisons the gradient
  // after the first evaluation (a numerical blowup), `lbfgs_spurious`
  // makes the solve give up immediately with a not-converged iterate.
  const bool inject_nan = PME_FAILPOINT("lbfgs_nan");
  const bool inject_spurious = PME_FAILPOINT("lbfgs_spurious");

  DualWorkspace ws;
  std::vector<double> grad(m, 0.0);
  double value = dual.EvaluateInto(out.lambda, &grad, &ws);
  if (inject_nan) {
    value = std::numeric_limits<double>::quiet_NaN();
    grad.assign(m, std::numeric_limits<double>::quiet_NaN());
  }

  // Correction-pair history for the two-loop recursion.
  std::deque<std::vector<double>> s_hist, y_hist;
  std::deque<double> rho_hist;

  std::vector<double> direction(m), scratch_lambda(m), scratch_grad(m);
  std::vector<double> prev_lambda(m), prev_grad(m);
  std::vector<double> alpha(kHistory, 0.0);
  // Retired history buffers, recycled so steady state allocates nothing.
  std::vector<double> s_spare, y_spare;
  StallDetector stall;
  bool restarted_after_stall = false;

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    out.grad_inf = InfNorm(grad);
    if (out.grad_inf <= options.tolerance) {
      out.converged = true;
      out.iterations = iter;
      out.dual_value = value;
      return out;
    }
    if (StatusCode stop = CheckStop(options); stop != StatusCode::kOk) {
      out.stop = stop;
      out.iterations = iter;
      out.dual_value = value;
      return out;
    }
    if (inject_spurious) {
      // Injected non-convergence: stop here with the current iterate.
      out.iterations = iter;
      out.dual_value = value;
      return out;
    }

    // Two-loop recursion: direction = -H_k * grad.
    direction = grad;
    for (size_t i = s_hist.size(); i-- > 0;) {
      alpha[i] = rho_hist[i] * Dot(s_hist[i], direction);
      Axpy(-alpha[i], y_hist[i], direction);
    }
    if (!s_hist.empty()) {
      // Initial Hessian scale gamma = sᵀy / yᵀy (Nocedal's choice).
      const auto& s = s_hist.back();
      const auto& y = y_hist.back();
      const double gamma = Dot(s, y) / Dot(y, y);
      kernels::Scale(direction, gamma);
    }
    for (size_t i = 0; i < s_hist.size(); ++i) {
      const double beta = rho_hist[i] * Dot(y_hist[i], direction);
      Axpy(alpha[i] - beta, s_hist[i], direction);
    }
    kernels::Scale(direction, -1.0);

    double dir_dot_grad = Dot(direction, grad);
    if (dir_dot_grad >= 0.0) {
      // Stale curvature produced an ascent direction: restart from
      // steepest descent.
      s_hist.clear();
      y_hist.clear();
      rho_hist.clear();
      for (size_t j = 0; j < m; ++j) direction[j] = -grad[j];
      dir_dot_grad = -Dot(grad, grad);
    }

    prev_lambda = out.lambda;
    prev_grad = grad;
    const double prev_value = value;

    bool accepted =
        Backtrack(dual, direction, dir_dot_grad, 1.0, &out.lambda, &value,
                  &grad, &scratch_lambda, &scratch_grad, &ws);
    if (!accepted && !s_hist.empty()) {
      // The quasi-Newton direction may be badly scaled (near-degenerate
      // curvature); drop the memory and retry along the raw gradient with
      // a conservatively normalized first step.
      s_hist.clear();
      y_hist.clear();
      rho_hist.clear();
      const double gnorm = TwoNorm(grad);
      for (size_t j = 0; j < m; ++j) direction[j] = -grad[j];
      accepted = Backtrack(dual, direction, -gnorm * gnorm,
                           1.0 / std::max(1.0, gnorm), &out.lambda, &value,
                           &grad, &scratch_lambda, &scratch_grad, &ws);
    }
    if (!accepted) {
      // Even steepest descent cannot improve: the iterate is at numerical
      // precision for this problem.
      out.iterations = iter + 1;
      out.dual_value = value;
      out.grad_inf = InfNorm(grad);
      out.converged = out.grad_inf <= options.tolerance;
      return out;
    }

    // Accepted, but did the dual value actually move? A run of
    // rounding-noise steps means this curvature memory is exhausted.
    // One restart from clean steepest descent sometimes escapes the
    // plateau; a second stall run means numerical precision is reached.
    if (stall.Update(prev_value, value)) {
      if (!restarted_after_stall && !s_hist.empty()) {
        restarted_after_stall = true;
        stall.Reset();
        s_hist.clear();
        y_hist.clear();
        rho_hist.clear();
        // Skip the history update below: pushing the stalled step's noise
        // (s, y) pair would undo the restart before it begins.
        out.iterations = iter + 1;
        continue;
      }
      out.iterations = iter + 1;
      out.dual_value = value;
      out.grad_inf = InfNorm(grad);
      out.converged = out.grad_inf <= options.tolerance;
      return out;
    }

    // Update history with the accepted move, recycling retired buffers.
    std::vector<double> s = std::move(s_spare);
    std::vector<double> y = std::move(y_spare);
    s.resize(m);
    y.resize(m);
    for (size_t j = 0; j < m; ++j) {
      s[j] = out.lambda[j] - prev_lambda[j];
      y[j] = grad[j] - prev_grad[j];
    }
    const double sy = Dot(s, y);
    if (sy > 1e-12 * TwoNorm(s) * TwoNorm(y)) {
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(y));
      rho_hist.push_back(1.0 / sy);
      if (s_hist.size() > kHistory) {
        s_spare = std::move(s_hist.front());
        y_spare = std::move(y_hist.front());
        s_hist.pop_front();
        y_hist.pop_front();
        rho_hist.pop_front();
      }
    } else {
      s_spare = std::move(s);
      y_spare = std::move(y);
    }
    out.iterations = iter + 1;
  }

  out.dual_value = value;
  out.grad_inf = InfNorm(grad);
  out.converged = out.grad_inf <= options.tolerance;
  return out;
}

}  // namespace pme::maxent::internal
