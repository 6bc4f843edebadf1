#include "maxent/solver.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "common/math_util.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "maxent/dual.h"
#include "maxent/solvers_internal.h"

namespace pme::maxent {
namespace {

/// IsAcceptable's bound on the worst constraint violation of a solve that
/// did not meet the tolerance.
constexpr double kFallbackAcceptViolation = 1e-6;

/// Worst violation of the *original* problem at full-space solution p.
double ProblemViolation(const MaxEntProblem& problem,
                        const std::vector<double>& p) {
  double worst = 0.0;
  std::vector<double> lhs;
  problem.a.Multiply(p, lhs);
  for (size_t j = 0; j < lhs.size(); ++j) {
    const double residual = lhs[j] - problem.rhs[j];
    worst = std::max(worst, j < problem.num_eq ? std::fabs(residual)
                                               : std::max(0.0, residual));
  }
  return worst;
}

/// Solver effort, added once per solve.
struct DualMetrics {
  metrics::Counter* evaluations;
  metrics::Counter* line_search_probes;
};

DualMetrics& GetDualMetrics() {
  static DualMetrics m = [] {
    auto& registry = metrics::Registry::Global();
    return DualMetrics{&registry.GetCounter("solve.dual_evaluations"),
                       &registry.GetCounter("solve.line_search_probes")};
  }();
  return m;
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

Result<CacheMode> ParseCacheMode(const std::string& name) {
  for (CacheMode mode :
       {CacheMode::kOff, CacheMode::kExact, CacheMode::kWarm}) {
    if (name == CacheModeToString(mode)) return mode;
  }
  return Status::InvalidArgument(
      "cache must be 'off', 'exact' or 'warm', got '" + name + "'");
}

const char* SolverKindToString(SolverKind kind) {
  switch (kind) {
    case SolverKind::kLbfgs:
      return "lbfgs";
    case SolverKind::kProjected:
      return "projected";
  }
  return "unknown";
}

Result<SolverKind> ParseSolverKind(const std::string& name) {
  for (SolverKind kind : {SolverKind::kLbfgs, SolverKind::kProjected}) {
    if (name == SolverKindToString(kind)) return kind;
  }
  return Status::InvalidArgument("unknown solver: " + name);
}

Result<SolverResult> Solve(const MaxEntProblem& problem, SolverKind kind,
                           const SolverOptions& options, Team* team) {
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
    pre.row_map.resize(problem.a.rows());
    for (size_t r = 0; r < problem.a.rows(); ++r) {
      pre.row_map[r] = static_cast<int64_t>(r);
    }
  }
  result.presolve_fixed = pre.num_fixed;
  const MaxEntProblem& reduced = pre.reduced;

  // The dual start: zeros, or the original-row-space warm start carried
  // into the reduced dual space through the presolve row map (rows
  // presolve dropped are simply not carried).
  std::vector<double> lambda(reduced.a.rows(), 0.0);
  if (options.warm_start != nullptr &&
      options.warm_start->size() == problem.a.rows() &&
      std::all_of(options.warm_start->begin(), options.warm_start->end(),
                  [](double v) { return std::isfinite(v); })) {
    for (size_t r = 0; r < problem.a.rows(); ++r) {
      if (pre.row_map[r] >= 0) {
        lambda[static_cast<size_t>(pre.row_map[r])] = (*options.warm_start)[r];
      }
    }
  }

  std::vector<double> reduced_p(reduced.num_vars, 0.0);
  if (reduced.num_vars > 0) {
    // Inequality rows need the sign-constrained dual, which only
    // projected gradient minimizes; without them its box is all of R^m
    // and it is plain Barzilai–Borwein gradient descent — the fallback
    // ladder's curvature-free restart.
    if (reduced.has_inequalities()) result.kind = SolverKind::kProjected;
    DualFunction dual(&reduced.a, reduced.rhs, team);
    internal::DualOutcome outcome;
    if (result.kind == SolverKind::kProjected) {
      PME_ASSIGN_OR_RETURN(
          outcome, internal::MinimizeProjected(dual, reduced.num_eq,
                                               std::move(lambda), options));
    } else {
      PME_ASSIGN_OR_RETURN(
          outcome, internal::MinimizeLbfgs(dual, std::move(lambda), options));
    }
    reduced_p = dual.Primal(outcome.lambda);
    GetDualMetrics().evaluations->Add(dual.evaluations());
    GetDualMetrics().line_search_probes->Add(outcome.line_search_probes);
    result.iterations = outcome.iterations;
    result.converged = outcome.converged;
    result.dual_value = outcome.dual_value;
    result.termination = outcome.stop;
    lambda = std::move(outcome.lambda);
  } else {
    result.converged = true;
    lambda.clear();
  }

  // Scatter the reduced dual back onto the original rows (dropped rows
  // at 0): the row-stable warm-start payload.
  result.dual_lambda_full.assign(problem.a.rows(), 0.0);
  if (!lambda.empty()) {
    for (size_t r = 0; r < problem.a.rows(); ++r) {
      if (pre.row_map[r] >= 0) {
        result.dual_lambda_full[r] =
            lambda[static_cast<size_t>(pre.row_map[r])];
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

bool IsAcceptable(const SolverResult& result) {
  if (result.termination != StatusCode::kOk) return false;
  if (!std::isfinite(result.max_violation)) return false;
  return result.converged || result.max_violation <= kFallbackAcceptViolation;
}

Result<SolverResult> SolveWithFallback(const MaxEntProblem& problem,
                                       SolverKind kind,
                                       const SolverOptions& options,
                                       size_t* attempts, Team* team) {
  if (attempts != nullptr) *attempts = 1;
  PME_ASSIGN_OR_RETURN(SolverResult first,
                       Solve(problem, kind, options, team));
  if (IsAcceptable(first)) return first;

  // Restart with projected gradient — no curvature memory to poison —
  // from the first attempt's dual point, unless that attempt already was
  // projected gradient (rerunning it would only repeat the failure) or
  // there is no budget left to retry with.
  const bool restarted =
      first.kind != SolverKind::kProjected &&
      CheckInterrupt(options.deadline, options.cancel) == StatusCode::kOk;
  std::optional<SolverResult> restart;
  if (restarted) {
    if (attempts != nullptr) *attempts = 2;
    SolverOptions restart_options = options;
    restart_options.warm_start = &first.dual_lambda_full;
    auto second =
        Solve(problem, SolverKind::kProjected, restart_options, team);
    if (second.ok()) {
      restart = std::move(second).value();
      restart->degraded = true;
      if (IsAcceptable(*restart)) return std::move(*restart);
    }
  }

  // Neither attempt is acceptable: keep the finite one with the smallest
  // violation (the first on a tie).
  auto finite = [](const SolverResult& r) {
    return r.termination != StatusCode::kNumericalError &&
           std::isfinite(r.max_violation);
  };
  const bool restart_finite = restart.has_value() && finite(*restart);
  if (finite(first) &&
      !(restart_finite && restart->max_violation < first.max_violation)) {
    first.degraded = restarted;
    return first;
  }
  if (restart_finite) return std::move(*restart);
  return Status::NotConverged("no fallback attempt produced a finite iterate");
}

}  // namespace pme::maxent
