#include "maxent/solver.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/math_util.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "maxent/dual.h"
#include "maxent/solvers_internal.h"

namespace pme::maxent {
namespace {

/// IsAcceptable's bound on the worst constraint violation of a solve that
/// did not meet the tolerance.
constexpr double kAcceptViolation = 1e-6;

/// Solver effort, added once per solve.
struct DualMetrics {
  metrics::Counter* evaluations;
  metrics::Counter* line_search_probes;
  /// Solves ended by a stall rather than by convergence, the budget or
  /// an interrupt.
  metrics::Counter* stall_exits;
  /// Solves whose presolve changed the problem (fixed a variable or
  /// dropped a row).
  metrics::Counter* presolve_reductions;
};

DualMetrics& GetDualMetrics() {
  static DualMetrics m = [] {
    auto& registry = metrics::Registry::Global();
    return DualMetrics{&registry.GetCounter("solve.dual_evaluations"),
                       &registry.GetCounter("solve.line_search_probes"),
                       &registry.GetCounter("solve.stall_exits"),
                       &registry.GetCounter("solve.presolve_reductions")};
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

Result<SolverResult> Solve(const MaxEntProblem& problem,
                           const SolverOptions& options, Team* team) {
  Timer timer;
  SolverResult result;

  // Presolve; the identity when it is off or finds nothing to reduce,
  // and then the solve reads `problem` itself.
  PresolvedProblem pre;
  {
    trace::TraceSpan presolve_span("presolve", "solve");
    if (options.presolve) {
      PME_ASSIGN_OR_RETURN(pre, Presolve(problem));
    } else {
      pre.identity = true;
    }
    presolve_span.AddArg("fixed", static_cast<double>(pre.num_fixed));
    presolve_span.AddArg("rows_dropped",
                         static_cast<double>(pre.rows_dropped));
  }
  if (!pre.identity) GetDualMetrics().presolve_reductions->Add();
  result.presolve_fixed = pre.num_fixed;
  const MaxEntProblem& reduced = pre.Reduced(problem);

  // The dual start: zeros, or the original-row-space start carried into
  // the reduced dual space through the presolve row map (rows presolve
  // dropped are simply not carried).
  std::vector<double> lambda(reduced.a.rows(), 0.0);
  if (options.warm_start != nullptr &&
      options.warm_start->size() == problem.a.rows() &&
      std::all_of(options.warm_start->begin(), options.warm_start->end(),
                  [](double v) { return std::isfinite(v); })) {
    for (size_t r = 0; r < problem.a.rows(); ++r) {
      const int64_t row = pre.ReducedRow(r);
      if (row >= 0) {
        lambda[static_cast<size_t>(row)] = (*options.warm_start)[r];
      }
    }
  }

  std::vector<double> reduced_p(reduced.num_vars, 0.0);
  if (reduced.num_vars > 0) {
    DualFunction dual(&reduced.a, reduced.rhs, team);
    PME_ASSIGN_OR_RETURN(
        internal::DualOutcome outcome,
        internal::MinimizeLbfgs(dual, reduced.num_eq, std::move(lambda),
                                options));
    reduced_p = dual.Primal(outcome.lambda);
    GetDualMetrics().evaluations->Add(dual.evaluations());
    GetDualMetrics().line_search_probes->Add(outcome.line_search_probes);
    if (outcome.stalled) GetDualMetrics().stall_exits->Add();
    result.iterations = outcome.iterations;
    result.evaluations = dual.evaluations();
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
      const int64_t row = pre.ReducedRow(r);
      if (row >= 0) {
        result.dual_lambda_full[r] = lambda[static_cast<size_t>(row)];
      }
    }
  }

  result.p = pre.Restore(std::move(reduced_p));
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

bool IsAcceptable(const SolverResult& result) {
  if (result.termination != StatusCode::kOk) return false;
  if (!std::isfinite(result.max_violation)) return false;
  return result.converged || result.max_violation <= kAcceptViolation;
}

}  // namespace pme::maxent
