#include "maxent/solver.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/math_util.h"
#include "common/timer.h"
#include "maxent/dual.h"
#include "maxent/solvers_internal.h"

namespace pme::maxent {
namespace {

/// Stacks equality rows above inequality rows into a single matrix for
/// the projected (sign-constrained) dual.
Result<linalg::SparseMatrix> StackMatrices(const linalg::SparseMatrix& eq,
                                           const linalg::SparseMatrix& ineq) {
  std::vector<linalg::Triplet> triplets;
  triplets.reserve(eq.nnz() + ineq.nnz());
  auto append = [&triplets](const linalg::SparseMatrix& m, uint32_t row_base) {
    const auto& offsets = m.row_offsets();
    const auto& cols = m.col_indices();
    const auto& values = m.values();
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
        triplets.push_back(
            {row_base + static_cast<uint32_t>(r), cols[k], values[k]});
      }
    }
  };
  append(eq, 0);
  append(ineq, static_cast<uint32_t>(eq.rows()));
  return linalg::SparseMatrix::FromTriplets(eq.rows() + ineq.rows(),
                                            eq.cols(), std::move(triplets));
}

/// Worst violation of the *original* problem at full-space solution p.
double ProblemViolation(const MaxEntProblem& problem,
                        const std::vector<double>& p) {
  double worst = 0.0;
  std::vector<double> lhs;
  problem.eq.Multiply(p, lhs);
  for (size_t j = 0; j < lhs.size(); ++j) {
    worst = std::max(worst, std::fabs(lhs[j] - problem.eq_rhs[j]));
  }
  problem.ineq.Multiply(p, lhs);
  for (size_t j = 0; j < lhs.size(); ++j) {
    worst = std::max(worst, std::max(0.0, lhs[j] - problem.ineq_rhs[j]));
  }
  return worst;
}

}  // namespace

const char* CacheModeToString(CacheMode mode) {
  switch (mode) {
    case CacheMode::kOff:
      return "off";
    case CacheMode::kExact:
      return "exact";
    case CacheMode::kWarm:
      return "warm";
  }
  return "unknown";
}

const char* SolverKindToString(SolverKind kind) {
  switch (kind) {
    case SolverKind::kLbfgs:
      return "lbfgs";
    case SolverKind::kGis:
      return "gis";
    case SolverKind::kIis:
      return "iis";
    case SolverKind::kSteepest:
      return "steepest";
    case SolverKind::kNewton:
      return "newton";
    case SolverKind::kProjected:
      return "projected";
  }
  return "unknown";
}

Result<SolverResult> Solve(const MaxEntProblem& problem, SolverKind kind,
                           const SolverOptions& options) {
  Timer timer;
  SolverResult result;
  result.kind = kind;

  // Presolve (or pass-through).
  PresolvedProblem pre;
  if (options.presolve) {
    PME_ASSIGN_OR_RETURN(pre, Presolve(problem));
  } else {
    pre.reduced = problem;
    pre.var_map.resize(problem.num_vars);
    pre.fixed_values.assign(problem.num_vars, 0.0);
    for (size_t v = 0; v < problem.num_vars; ++v) {
      pre.var_map[v] = static_cast<int64_t>(v);
    }
    pre.eq_row_map.resize(problem.eq.rows());
    for (size_t r = 0; r < problem.eq.rows(); ++r) {
      pre.eq_row_map[r] = static_cast<int64_t>(r);
    }
    pre.ineq_row_map.resize(problem.ineq.rows());
    for (size_t r = 0; r < problem.ineq.rows(); ++r) {
      pre.ineq_row_map[r] = static_cast<int64_t>(r);
    }
  }
  result.presolve_fixed = pre.num_fixed;
  const MaxEntProblem& reduced = pre.reduced;

  // An original-row-space warm start (cached re-analysis) is carried
  // into the reduced dual space through the presolve row maps. The
  // reduced-space `warm_start` wins when both are set — it came from a
  // solve of this very problem (the fallback ladder) and is exact.
  SolverOptions solve_options = options;
  std::vector<double> mapped_warm;
  if (options.warm_start == nullptr &&
      options.warm_start_original != nullptr &&
      options.warm_start_original->size() ==
          problem.eq.rows() + problem.ineq.rows()) {
    bool finite = true;
    for (double v : *options.warm_start_original) {
      if (!std::isfinite(v)) {
        finite = false;
        break;
      }
    }
    if (finite) {
      mapped_warm.assign(reduced.eq.rows() + reduced.ineq.rows(), 0.0);
      const auto& w = *options.warm_start_original;
      for (size_t r = 0; r < problem.eq.rows(); ++r) {
        if (pre.eq_row_map[r] >= 0) {
          mapped_warm[static_cast<size_t>(pre.eq_row_map[r])] = w[r];
        }
      }
      for (size_t r = 0; r < problem.ineq.rows(); ++r) {
        if (pre.ineq_row_map[r] >= 0) {
          mapped_warm[reduced.eq.rows() +
                      static_cast<size_t>(pre.ineq_row_map[r])] =
              w[problem.eq.rows() + r];
        }
      }
      solve_options.warm_start = &mapped_warm;
    }
  }

  std::vector<double> reduced_p(reduced.num_vars, 0.0);
  if (reduced.num_vars > 0) {
    internal::DualOutcome outcome;
    if (reduced.has_inequalities()) {
      PME_ASSIGN_OR_RETURN(auto stacked,
                           StackMatrices(reduced.eq, reduced.ineq));
      std::vector<double> rhs = reduced.eq_rhs;
      rhs.insert(rhs.end(), reduced.ineq_rhs.begin(), reduced.ineq_rhs.end());
      DualFunction dual(&stacked, rhs);
      PME_ASSIGN_OR_RETURN(
          outcome,
          internal::MinimizeProjected(dual, reduced.eq.rows(),
                                      solve_options));
      reduced_p = dual.Primal(outcome.lambda);
    } else {
      DualFunction dual(&reduced.eq, reduced.eq_rhs);
      switch (kind) {
        case SolverKind::kLbfgs: {
          PME_ASSIGN_OR_RETURN(outcome,
                               internal::MinimizeLbfgs(dual, solve_options));
          break;
        }
        case SolverKind::kGis: {
          PME_ASSIGN_OR_RETURN(outcome,
                               internal::MinimizeGis(dual, solve_options));
          break;
        }
        case SolverKind::kIis: {
          PME_ASSIGN_OR_RETURN(outcome,
                               internal::MinimizeIis(dual, solve_options));
          break;
        }
        case SolverKind::kSteepest: {
          PME_ASSIGN_OR_RETURN(
              outcome, internal::MinimizeSteepest(dual, solve_options));
          break;
        }
        case SolverKind::kNewton: {
          PME_ASSIGN_OR_RETURN(outcome,
                               internal::MinimizeNewton(dual, solve_options));
          break;
        }
        case SolverKind::kProjected: {
          // No inequality rows: the box is all of R^m and this is plain
          // Barzilai–Borwein gradient descent — the fallback chain's
          // curvature-free restart rung.
          PME_ASSIGN_OR_RETURN(
              outcome, internal::MinimizeProjected(dual, reduced.eq.rows(),
                                                   solve_options));
          break;
        }
      }
      reduced_p = dual.Primal(outcome.lambda);
    }
    result.iterations = outcome.iterations;
    result.converged = outcome.converged;
    result.dual_value = outcome.dual_value;
    result.termination = outcome.stop;
    result.dual_lambda = std::move(outcome.lambda);
  } else {
    result.converged = true;
  }

  // Scatter the reduced dual back onto the original rows (dropped rows
  // at 0): the row-stable warm-start payload the solution cache stores.
  result.dual_lambda_full.assign(problem.eq.rows() + problem.ineq.rows(),
                                 0.0);
  if (!result.dual_lambda.empty()) {
    for (size_t r = 0; r < problem.eq.rows(); ++r) {
      if (pre.eq_row_map[r] >= 0) {
        result.dual_lambda_full[r] =
            result.dual_lambda[static_cast<size_t>(pre.eq_row_map[r])];
      }
    }
    for (size_t r = 0; r < problem.ineq.rows(); ++r) {
      if (pre.ineq_row_map[r] >= 0) {
        result.dual_lambda_full[problem.eq.rows() + r] =
            result.dual_lambda[reduced.eq.rows() +
                               static_cast<size_t>(pre.ineq_row_map[r])];
      }
    }
  }

  result.p = pre.Restore(reduced_p);
  if (result.termination == StatusCode::kOk) {
    // A NaN/Inf iterate (diverged multipliers, overflowed exp) is a
    // numerical failure even when the minimizer exited cleanly.
    for (double v : result.p) {
      if (!std::isfinite(v)) {
        result.termination = StatusCode::kNumericalError;
        result.converged = false;
        break;
      }
    }
  }
  result.entropy = Entropy(result.p);
  result.max_violation = ProblemViolation(problem, result.p);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

bool IsAcceptable(const SolverResult& result, const SolverOptions& options) {
  if (result.termination != StatusCode::kOk) return false;
  if (!std::isfinite(result.max_violation)) return false;
  return result.converged ||
         result.max_violation <= options.fallback_accept_violation;
}

Result<SolverResult> SolveWithFallback(const MaxEntProblem& problem,
                                       SolverKind kind,
                                       const SolverOptions& options,
                                       size_t* attempts) {
  // The ladder: requested solver, projected-gradient restart (from the
  // best dual point so far), GIS. Later rungs trade convergence speed
  // for robustness — no curvature memory to poison, monotone updates.
  std::vector<SolverKind> ladder = {kind};
  if (kind != SolverKind::kProjected) ladder.push_back(SolverKind::kProjected);
  if (kind != SolverKind::kGis) ladder.push_back(SolverKind::kGis);

  std::optional<SolverResult> best;  // finite attempt with least violation
  std::vector<double> warm;
  SolverOptions rung_options = options;
  size_t tried = 0;
  Status hard_error = Status::Ok();
  for (SolverKind rung : ladder) {
    if (tried >= options.max_fallback_attempts) break;
    if (tried > 0 && CheckInterrupt(options.deadline, options.cancel) !=
                         StatusCode::kOk) {
      break;  // no budget left to retry with
    }
    ++tried;
    auto attempt = Solve(problem, rung, rung_options);
    if (!attempt.ok()) {
      // Precondition/structural failure of this rung (e.g. GIS on
      // negative coefficients); the next rung may still apply.
      hard_error = attempt.status();
      continue;
    }
    SolverResult result = std::move(attempt).value();
    if (IsAcceptable(result, options)) {
      result.degraded = tried > 1;
      if (attempts != nullptr) *attempts = tried;
      return result;
    }
    const bool finite = result.termination != StatusCode::kNumericalError &&
                        std::isfinite(result.max_violation);
    if (finite &&
        (!best.has_value() || result.max_violation < best->max_violation)) {
      best = result;
    }
    // Restart the next rung from this rung's dual point when usable
    // (InitLambda re-checks finiteness; a shorter/poisoned lambda is
    // ignored there).
    if (!result.dual_lambda.empty()) {
      warm = std::move(result.dual_lambda);
      rung_options.warm_start = &warm;
    }
  }
  if (attempts != nullptr) *attempts = tried;
  if (best.has_value()) {
    best->degraded = tried > 1;
    return std::move(*best);
  }
  if (!hard_error.ok()) return hard_error;
  return Status::NotConverged("every fallback rung failed without an iterate");
}

}  // namespace pme::maxent
