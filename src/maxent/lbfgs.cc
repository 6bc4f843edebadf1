#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <utility>

#include "common/failpoint.h"
#include "common/team.h"
#include "common/vec_math.h"
#include "maxent/solvers_internal.h"

namespace pme::maxent::internal {
namespace {

/// LBFGS memory: the number of (s, y) correction pairs kept.
constexpr size_t kHistory = 10;

kernels::ConstSpan Slice(const std::vector<double>& v, size_t b, size_t e) {
  return kernels::ConstSpan(v.data() + b, e - b);
}

kernels::Span Slice(std::vector<double>& v, size_t b, size_t e) {
  return kernels::Span(v.data() + b, e - b);
}

/// The sign box of the inequality-extended dual (Section 4.5, after
/// Kazama–Tsujii): multipliers [num_eq, m) of the ≤ rows stay λ_j ≤ 0,
/// the equality ones are free. A tail coordinate on its bound whose
/// gradient points out of the box (g_j < 0: descent would raise it) is
/// active, frozen for the iteration. Every loop over the tail is empty
/// when num_eq == m, so equality solves run the unconstrained arithmetic.
struct Box {
  size_t num_eq;
  const std::vector<double>& lambda;
  const std::vector<double>& grad;

  bool Active(size_t j) const { return lambda[j] >= 0.0 && grad[j] < 0.0; }

  /// Zeroes the active coordinates of v in the chunk [b, e).
  void Freeze(std::vector<double>& v, size_t b, size_t e) const {
    for (size_t j = std::max(b, num_eq); j < e; ++j) {
      if (Active(j)) v[j] = 0.0;
    }
  }

  /// ‖·‖∞ of the projected gradient: |g_j|, except 0 for an active
  /// coordinate (its outward pull is not a violation). Chunk maxima in
  /// chunk order, the equality prefix by kernels::InfNorm.
  double ProjectedInfNorm(Team& team) const {
    return team.Max(grad.size(), [&](size_t b, size_t e) {
      const size_t tail = std::clamp(num_eq, b, e);
      double worst = kernels::InfNorm(Slice(grad, b, tail));
      for (size_t j = tail; j < e; ++j) {
        if (!Active(j)) worst = std::max(worst, std::fabs(grad[j]));
      }
      return worst;
    });
  }
};

/// One team pass of the two-loop recursion over `direction`, chunk by
/// chunk: copy `copy_from` in (when non-null), add coef·x (when x is
/// non-null), scale by `scale` — times `scale_by` element-wise when that
/// is non-null — zero the coordinates `freeze` holds active (when
/// non-null), and return the chunked Dot(dot_with, direction). Fusing
/// each Axpy with the Dot that follows it saves a pass over the
/// direction; the arithmetic is the unfused sequence's.
double FusedPass(Team& team, std::vector<double>& direction,
                 const std::vector<double>* copy_from, double coef,
                 const std::vector<double>* x, double scale,
                 const std::vector<double>* scale_by,
                 const std::vector<double>& dot_with,
                 const Box* freeze = nullptr) {
  return team.Sum(direction.size(), [&](size_t b, size_t e) {
    const kernels::Span d = Slice(direction, b, e);
    if (copy_from != nullptr) {
      std::memcpy(d.data, copy_from->data() + b, (e - b) * sizeof(double));
    }
    if (x != nullptr) kernels::Axpy(coef, Slice(*x, b, e), d);
    if (scale_by != nullptr) {
      for (size_t j = b; j < e; ++j) direction[j] *= scale * (*scale_by)[j];
    } else if (scale != 1.0) {
      kernels::Scale(d, scale);
    }
    if (freeze != nullptr) freeze->Freeze(direction, b, e);
    return kernels::Dot(Slice(dot_with, b, e), d);
  });
}

/// direction = −grad on the free coordinates (0 on the active ones);
/// returns the chunked Σ direction², the free part of Σ grad².
double SteepestDescent(Team& team, const Box& box,
                       std::vector<double>& direction) {
  return team.Sum(box.grad.size(), [&](size_t b, size_t e) {
    for (size_t j = b; j < e; ++j) direction[j] = -box.grad[j];
    box.Freeze(direction, b, e);
    return kernels::SumSquares(Slice(direction, b, e));
  });
}

/// Armijo backtracking along the projected path P(λ + t·d), P clipping
/// the tail to λ_j ≤ 0. The sufficient-decrease model is the actual
/// move's gᵀ(P(λ + t·d) − λ): t·gᵀd plus a correction on the clipped
/// coordinates, so with nothing clipped the test is the unconstrained
/// one, rounding included. A trial value within rounding of D is judged
/// by the sign of the slope at the trial point instead. On success
/// updates (lambda, value, grad), leaves the replaced iterate and
/// gradient in the scratch buffers, and returns true. Every probe
/// evaluates through the shared workspace, so the line search allocates
/// nothing.
bool Backtrack(const DualFunction& dual, size_t num_eq,
               const std::vector<double>& direction, double dir_dot_grad,
               double initial_step, std::vector<double>* lambda,
               double* value, std::vector<double>* grad,
               std::vector<double>* scratch_lambda,
               std::vector<double>* scratch_grad, DualWorkspace* ws,
               size_t* probes) {
  const double c1 = 1e-4;
  double step = initial_step;
  for (size_t ls = 0; ls < kMaxLineSearchSteps; ++ls) {
    ++*probes;
    const double clipped = dual.team().Sum(lambda->size(), [&](size_t b,
                                                               size_t e) {
      kernels::ScaledAdd(Slice(*lambda, b, e), step, Slice(direction, b, e),
                         Slice(*scratch_lambda, b, e));
      double correction = 0.0;
      for (size_t j = std::max(b, num_eq); j < e; ++j) {
        if ((*scratch_lambda)[j] > 0.0) {
          correction += (*grad)[j] * (-(*lambda)[j] - step * direction[j]);
          (*scratch_lambda)[j] = 0.0;
        }
      }
      return correction;
    });
    const double threshold =
        clipped == 0.0 ? *value + c1 * step * dir_dot_grad
                       : *value + c1 * (step * dir_dot_grad + clipped);
    const double trial_value =
        dual.EvaluateInto(*scratch_lambda, scratch_grad, ws);
    bool accept = std::isfinite(trial_value);
    if (accept && std::fabs(trial_value - *value) >
                      kStallFtol * (std::fabs(*value) + 1.0)) {
      accept = trial_value <= threshold;
    } else if (accept) {
      // The two values agree within the rounding of D, so comparing them
      // decides nothing. On the convex dual a non-positive slope at the
      // trial point along the actual move certifies a decrease: Hager and
      // Zhang's approximate Wolfe test.
      const double slope = dual.team().Sum(lambda->size(), [&](size_t b,
                                                               size_t e) {
        double sum = 0.0;
        for (size_t j = b; j < e; ++j) {
          sum += (*scratch_grad)[j] * ((*scratch_lambda)[j] - (*lambda)[j]);
        }
        return sum;
      });
      accept = slope <= 0.0;
    }
    if (accept) {
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

Result<DualOutcome> MinimizeLbfgs(const DualFunction& dual, size_t num_eq,
                                  std::vector<double> start,
                                  const SolverOptions& options) {
  const size_t m = dual.dim();
  Team& team = dual.team();
  DualOutcome out;
  out.lambda = std::move(start);
  // A warm start must enter the box.
  for (size_t j = num_eq; j < m; ++j) {
    out.lambda[j] = std::min(out.lambda[j], 0.0);
  }
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
  const Box box{num_eq, out.lambda, grad};
  double value = dual.EvaluateInto(out.lambda, &grad, &ws);
  if (inject_nan) {
    value = std::numeric_limits<double>::quiet_NaN();
    grad.assign(m, std::numeric_limits<double>::quiet_NaN());
  }

  // After an accepted step the scratch buffers hold the previous iterate
  // and gradient (Backtrack swaps them out).
  std::vector<double> direction(m), scratch_lambda(m), scratch_grad(m);

  // The initial Hessian is diagonal, H₀ = γ·D⁻¹ with D_j the row's
  // curvature (RowCurvature) at the current gradient, so an invariant row
  // (curvature ~1/N) and a knowledge row (curvature P(Q_v)) each take a
  // step in their own units. D⁻¹ is refreshed from every new gradient.
  // It lives in scratch_grad: the history update reads the previous
  // gradient there and overwrites it element by element with D⁻¹, which
  // the next two-loop recursion reads before the line search reuses the
  // buffer for its probes.
  const kernels::ConstSpan rhs = dual.b();
  std::vector<double>& inv_curvature = scratch_grad;
  const auto refresh_scale = [&] {
    team.ForChunks(m, [&](size_t b, size_t e) {
      for (size_t j = b; j < e; ++j) {
        inv_curvature[j] = 1.0 / RowCurvature(grad[j], rhs[j]);
      }
    });
  };
  refresh_scale();
  // direction = −P D⁻¹ grad; returns directionᵀgrad.
  const auto scaled_descent = [&] {
    return FusedPass(team, direction, &grad, 0.0, nullptr, -1.0,
                     &inv_curvature, grad, &box);
  };

  // Correction-pair history for the two-loop recursion, and sᵀy, yᵀD⁻¹y
  // of the newest pair (γ = their ratio).
  std::deque<std::vector<double>> s_hist, y_hist;
  std::deque<double> rho_hist;
  double newest_sy = 0.0, newest_ydy = 0.0;
  const auto clear_history = [&] {
    s_hist.clear();
    y_hist.clear();
    rho_hist.clear();
  };

  std::vector<double> alpha(kHistory, 0.0);
  // Retired history buffers, recycled so steady state allocates nothing.
  std::vector<double> s_spare, y_spare;
  StallDetector stall;
  bool restarted_after_stall = false;

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    out.grad_inf = box.ProjectedInfNorm(team);
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

    // Two-loop recursion on the free coordinates: direction =
    // −P H_k P grad, P zeroing the active ones, one fused team pass per
    // Axpy-then-Dot. With h pairs:
    //   direction = P grad;  α_i = ρ_i s_iᵀd,  d −= α_i y_i  (i = h-1..0)
    //   d = γ·D⁻¹ d,  γ = sᵀy / yᵀD⁻¹y of the newest pair
    //   β_i = ρ_i y_iᵀd,  d += (α_i − β_i) s_i  (i = 0..h-1);  d = −P d.
    // With no pairs it is scaled_descent, −P D⁻¹ grad.
    const size_t h = s_hist.size();
    double dir_dot_grad = 0.0;
    if (h == 0) {
      dir_dot_grad = scaled_descent();
    } else {
      alpha[h - 1] =
          rho_hist[h - 1] * FusedPass(team, direction, &grad, 0.0, nullptr,
                                      1.0, nullptr, s_hist[h - 1], &box);
      for (size_t i = h - 1; i > 0; --i) {
        alpha[i - 1] = rho_hist[i - 1] *
                       FusedPass(team, direction, nullptr, -alpha[i],
                                 &y_hist[i], 1.0, nullptr, s_hist[i - 1]);
      }
      const double gamma = newest_sy / newest_ydy;
      double beta = rho_hist[0] * FusedPass(team, direction, nullptr,
                                            -alpha[0], &y_hist[0], gamma,
                                            &inv_curvature, y_hist[0]);
      for (size_t i = 0; i + 1 < h; ++i) {
        beta = rho_hist[i + 1] * FusedPass(team, direction, nullptr,
                                           alpha[i] - beta, &s_hist[i], 1.0,
                                           nullptr, y_hist[i + 1]);
      }
      dir_dot_grad =
          FusedPass(team, direction, nullptr, alpha[h - 1] - beta,
                    &s_hist[h - 1], -1.0, nullptr, grad, &box);
    }

    if (dir_dot_grad >= 0.0) {
      // Stale curvature produced an ascent direction: drop the memory and
      // take the scaled steepest-descent step.
      clear_history();
      dir_dot_grad = scaled_descent();
    }

    const double prev_value = value;
    bool accepted = Backtrack(dual, num_eq, direction, dir_dot_grad, 1.0,
                              &out.lambda, &value, &grad, &scratch_lambda,
                              &scratch_grad, &ws, &out.line_search_probes);
    if (!accepted && !s_hist.empty()) {
      // The quasi-Newton direction may be badly scaled (near-degenerate
      // curvature); drop the memory and retry along the raw gradient, not
      // the D-scaled one, with a conservatively normalized first step.
      clear_history();
      const double gnorm = std::sqrt(SteepestDescent(team, box, direction));
      accepted = Backtrack(dual, num_eq, direction, -gnorm * gnorm,
                           1.0 / std::max(1.0, gnorm), &out.lambda, &value,
                           &grad, &scratch_lambda, &scratch_grad, &ws,
                           &out.line_search_probes);
    }
    if (!accepted) {
      // Even steepest descent cannot improve: the iterate is at numerical
      // precision for this problem.
      out.stalled = true;
      out.iterations = iter + 1;
      out.dual_value = value;
      out.grad_inf = box.ProjectedInfNorm(team);
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
        clear_history();
        // Skip the history update below: pushing the stalled step's noise
        // (s, y) pair would undo the restart before it begins. D still
        // follows the new gradient.
        refresh_scale();
        out.iterations = iter + 1;
        continue;
      }
      out.stalled = true;
      out.iterations = iter + 1;
      out.dual_value = value;
      out.grad_inf = box.ProjectedInfNorm(team);
      out.converged = out.grad_inf <= options.tolerance;
      return out;
    }

    // Update history with the accepted move, recycling retired buffers:
    // s, y, D⁻¹ at the new gradient, and sᵀy, ‖s‖², ‖y‖², yᵀD⁻¹y in one
    // team pass.
    std::vector<double> s = std::move(s_spare);
    std::vector<double> y = std::move(y_spare);
    s.resize(m);
    y.resize(m);
    const auto [sy, s_sq, y_sq, ydy] =
        team.SumChunks<4>(m, [&](size_t b, size_t e) {
          double ydy_chunk = 0.0;
          for (size_t j = b; j < e; ++j) {
            s[j] = out.lambda[j] - scratch_lambda[j];
            y[j] = grad[j] - scratch_grad[j];
            inv_curvature[j] = 1.0 / RowCurvature(grad[j], rhs[j]);
            ydy_chunk += y[j] * y[j] * inv_curvature[j];
          }
          const kernels::ConstSpan sc = Slice(s, b, e);
          const kernels::ConstSpan yc = Slice(y, b, e);
          return std::array<double, 4>{kernels::Dot(sc, yc),
                                       kernels::SumSquares(sc),
                                       kernels::SumSquares(yc), ydy_chunk};
        });
    if (sy > 1e-12 * std::sqrt(s_sq) * std::sqrt(y_sq)) {
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(y));
      rho_hist.push_back(1.0 / sy);
      newest_sy = sy;
      newest_ydy = ydy;
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
  out.grad_inf = box.ProjectedInfNorm(team);
  out.converged = out.grad_inf <= options.tolerance;
  return out;
}

}  // namespace pme::maxent::internal
