// Generalized and Improved Iterative Scaling for the MaxEnt dual.
//
// Both algorithms assume the classical MaxEnt feature setting: every
// constraint coefficient is nonnegative and every constraint expectation
// (RHS) is strictly positive. The structural presolve removes zero-RHS
// rows, so problems arriving here from Solve() satisfy the second
// condition; the first is checked explicitly.

#include <cmath>

#include "common/math_util.h"
#include "common/vec_math.h"
#include "maxent/solvers_internal.h"

namespace pme::maxent::internal {
namespace {

Status CheckScalingPreconditions(const DualFunction& dual) {
  const auto& a = dual.matrix();
  for (double v : a.values()) {
    if (v < 0.0) {
      return Status::FailedPrecondition(
          "iterative scaling requires nonnegative constraint coefficients");
    }
  }
  for (double b : dual.rhs()) {
    if (b <= 0.0) {
      return Status::FailedPrecondition(
          "iterative scaling requires strictly positive RHS entries "
          "(run presolve to eliminate zero rows)");
    }
  }
  return Status::Ok();
}

/// Column sums C_i = Σ_j A_ji (the "feature count" of term i).
std::vector<double> ColumnSums(const linalg::SparseMatrix& a) {
  std::vector<double> sums(a.cols(), 0.0);
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& values = a.values();
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      sums[cols[k]] += values[k];
    }
  }
  return sums;
}

}  // namespace

Result<DualOutcome> MinimizeGis(const DualFunction& dual,
                                const SolverOptions& options) {
  PME_RETURN_IF_ERROR(CheckScalingPreconditions(dual));
  const size_t m = dual.dim();
  DualOutcome out;
  InitLambda(options, m, &out.lambda);
  if (m == 0) {
    out.converged = true;
    return out;
  }
  if (StatusCode stop = CheckStop(options); stop != StatusCode::kOk) {
    out.stop = stop;
    return out;
  }

  const std::vector<double> col_sums = ColumnSums(dual.matrix());
  double c_max = 0.0;
  for (double c : col_sums) c_max = std::max(c_max, c);
  if (c_max <= 0.0) {
    return Status::FailedPrecondition("constraint matrix is empty");
  }

  DualWorkspace ws;
  std::vector<double> grad(m);
  std::vector<double> ratio(m);
  const kernels::ConstSpan b = dual.rhs();
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    out.dual_value = dual.EvaluateInto(out.lambda, &grad, &ws);
    out.grad_inf = InfNorm(grad);
    out.iterations = iter;
    if (out.grad_inf <= options.tolerance) {
      out.converged = true;
      return out;
    }
    if (StatusCode stop = CheckStop(options); stop != StatusCode::kOk) {
      out.stop = stop;
      return out;
    }
    // λ_j += (1/C) ln(b_j / μ_j), with μ_j the current model expectation.
    // The ratios are staged so the logarithm runs as one batched vector
    // pass instead of m scalar std::log calls.
    for (size_t j = 0; j < m; ++j) {
      const double mu = grad[j] + b[j];
      if (mu <= 0.0) {
        return Status::NumericalError(
            "GIS: model expectation vanished for a constraint");
      }
      ratio[j] = b[j] / mu;
    }
    kernels::Ln(ratio, ratio);
    kernels::Axpy(1.0 / c_max, ratio, out.lambda);
  }
  out.dual_value = dual.EvaluateInto(out.lambda, &grad, &ws);
  out.grad_inf = InfNorm(grad);
  out.iterations = options.max_iterations;
  out.converged = out.grad_inf <= options.tolerance;
  return out;
}

Result<DualOutcome> MinimizeIis(const DualFunction& dual,
                                const SolverOptions& options) {
  PME_RETURN_IF_ERROR(CheckScalingPreconditions(dual));
  const size_t m = dual.dim();
  DualOutcome out;
  InitLambda(options, m, &out.lambda);
  if (m == 0) {
    out.converged = true;
    return out;
  }
  if (StatusCode stop = CheckStop(options); stop != StatusCode::kOk) {
    out.stop = stop;
    return out;
  }

  const auto& a = dual.matrix();
  const std::vector<double> col_sums = ColumnSums(a);
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& values = a.values();
  const auto& b = dual.rhs();

  DualWorkspace ws;
  std::vector<double> grad(m);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    out.dual_value = dual.EvaluateInto(out.lambda, &grad, &ws);
    out.grad_inf = InfNorm(grad);
    out.iterations = iter;
    if (out.grad_inf <= options.tolerance) {
      out.converged = true;
      return out;
    }
    if (StatusCode stop = CheckStop(options); stop != StatusCode::kOk) {
      out.stop = stop;
      return out;
    }
    // Per-constraint 1-D Newton solve of
    //   Σ_i A_ji p_i exp(δ_j C_i) = b_j
    // in δ_j, then apply all updates simultaneously (IIS sweep).
    for (size_t j = 0; j < m; ++j) {
      double delta = 0.0;
      for (int newton = 0; newton < 30; ++newton) {
        double f = 0.0, df = 0.0;
        for (size_t k = offsets[j]; k < offsets[j + 1]; ++k) {
          const double term =
              values[k] * ws.p[cols[k]] * SafeExp(delta * col_sums[cols[k]]);
          f += term;
          df += term * col_sums[cols[k]];
        }
        const double resid = f - b[j];
        if (std::fabs(resid) <= 1e-14 || df <= 0.0) break;
        delta -= resid / df;
      }
      out.lambda[j] += delta;
    }
  }
  out.dual_value = dual.EvaluateInto(out.lambda, &grad, &ws);
  out.grad_inf = InfNorm(grad);
  out.iterations = options.max_iterations;
  out.converged = out.grad_inf <= options.tolerance;
  return out;
}

}  // namespace pme::maxent::internal
