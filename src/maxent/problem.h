// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_PROBLEM_H_
#define PME_MAXENT_PROBLEM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "constraints/constraint.h"
#include "linalg/sparse_matrix.h"

namespace pme::maxent {

/// The optimization problem of Definition 3.1 in matrix form:
///
///   maximize  H(p) = −Σ_i p_i ln p_i
///   subject to  a_j · p = rhs_j  (j < num_eq),
///               a_j · p ≤ rhs_j  (j ≥ num_eq),   p ≥ 0.
///
/// Variables are the materialized probability terms P(q, s, b).
///
/// The stacked row layout. Every row-indexed list of a problem uses one
/// order: the equality rows first, then the ≤ rows (kGe rows negated into
/// ≤ form), each part in the order of its source rows (StackRows). A
/// block problem leads with its buckets' invariant rows, all equalities,
/// and its request rows follow (PlanBlock). That order indexes the matrix
/// `a` and `rhs`, presolve's `row_map`, SolverOptions::warm_start,
/// SolverResult::dual_lambda_full and a cached entry's multipliers; a
/// PlanBlock's `rows` and `row_sigs`, and a cached entry's signatures,
/// index its request-row suffix. It is the paper's dual for inequality
/// knowledge (Section 4.5, Kazama–Tsujii): one multiplier per row, those
/// of the ≤ rows constrained to λ_j ≤ 0.
struct MaxEntProblem {
  size_t num_vars = 0;
  linalg::SparseMatrix a;
  std::vector<double> rhs;
  /// Rows [0, num_eq) are equalities, rows [num_eq, a.rows()) are ≤ rows.
  size_t num_eq = 0;

  bool has_inequalities() const { return a.rows() > num_eq; }
};

/// Reorders `rows` into the stacked layout — equality rows first, the
/// others after, each part keeping its order — and returns the number of
/// equality rows.
size_t StackRows(std::vector<const constraints::LinearConstraint*>* rows);

/// Appends `rows` to `matrix` and their right-hand sides to `rhs`: each
/// row with variable v in column col_of(v), kGe rows negated into ≤ form
/// and zero coefficients left out. A row whose columns arrive out of
/// order is sorted by the builder as it closes (stably, so duplicate
/// entries are summed in row order); rows over ascending variables under
/// a monotone column map, the compiler's, arrive in order. A template so
/// the column map inlines into the per-entry loop.
template <typename ColOf>
Status AppendRows(
    const std::vector<const constraints::LinearConstraint*>& rows,
    ColOf col_of, linalg::SparseMatrixBuilder* matrix,
    std::vector<double>* rhs) {
  rhs->reserve(rhs->size() + rows.size());
  for (const constraints::LinearConstraint* c : rows) {
    // a·p >= r  <=>  (-a)·p <= -r
    const double sign = c->rel == constraints::Relation::kGe ? -1.0 : 1.0;
    matrix->BeginRow();
    for (size_t i = 0; i < c->vars.size(); ++i) {
      if (c->coefs[i] == 0.0) continue;
      PME_RETURN_IF_ERROR(matrix->Add(col_of(c->vars[i]), sign * c->coefs[i]));
    }
    rhs->push_back(sign * c->rhs);
  }
  return Status::Ok();
}

/// The problem of `rows`, already stacked with `num_eq` equality rows,
/// over `num_vars` columns: row j of the matrix is rows[j] as AppendRows
/// writes it.
template <typename ColOf>
Result<MaxEntProblem> AssembleProblem(
    size_t num_vars,
    const std::vector<const constraints::LinearConstraint*>& rows,
    size_t num_eq, ColOf col_of) {
  MaxEntProblem problem;
  problem.num_vars = num_vars;
  problem.num_eq = num_eq;
  linalg::SparseMatrixBuilder matrix(num_vars);
  PME_RETURN_IF_ERROR(AppendRows(rows, col_of, &matrix, &problem.rhs));
  PME_ASSIGN_OR_RETURN(problem.a, matrix.Build());
  return problem;
}

/// The problem of `rows` over `num_vars` variables, as one matrix: the
/// rows stacked (StackRows), identity columns.
Result<MaxEntProblem> BuildProblem(
    size_t num_vars, const std::vector<constraints::LinearConstraint>& rows);

/// Structural presolve. Two reductions run to fixpoint:
///
///  1. Zero forcing: an equality row with all-nonnegative coefficients and
///     zero RHS forces every variable it touches to 0. This is how
///     statements like P(Breast Cancer | male) = 0 are resolved *exactly*
///     (the dual alone would need λ → −∞ to express a hard zero).
///  2. Singleton substitution: an equality row with one remaining variable
///     pins it to rhs/coef; the value is substituted into every other row.
///
/// Detects infeasibility (negative pinned probability, or an emptied row
/// with nonzero RHS). The reduced problem excludes satisfied rows and
/// fixed variables; `Restore` maps a reduced solution back to the full
/// variable space.
///
/// Most problems have no row to reduce: then the problem is its own
/// reduction. Presolve finds that in one read-only pass over the rows and
/// returns the identity, which copies nothing and allocates no map.
struct PresolvedProblem {
  /// True when presolve reduced nothing: the problem left to solve is the
  /// input itself (Reduced), and every variable and row keeps its index.
  /// `reduced`, `var_map`, `fixed_values` and `row_map` stay empty.
  bool identity = false;
  /// The reduced problem, unless `identity`.
  MaxEntProblem reduced;
  /// original var -> reduced var id, or -1 when the variable was fixed.
  std::vector<int64_t> var_map;
  /// Value of each fixed variable (0 unless pinned by a singleton row).
  std::vector<double> fixed_values;
  size_t num_fixed = 0;
  /// original row -> reduced row id, or -1 when presolve resolved the
  /// row (zero forcing / singleton / vacuous). Both row spaces are
  /// stacked and row order is preserved, so this map carries dual
  /// multipliers between them — the warm-start transport for cached
  /// re-analysis.
  std::vector<int64_t> row_map;
  /// Rows presolve resolved (row_map entries of -1).
  size_t rows_dropped = 0;

  /// The problem left to solve: `original` itself when `identity`, else
  /// `reduced`. `original` must be the problem presolve was given.
  const MaxEntProblem& Reduced(const MaxEntProblem& original) const {
    return identity ? original : reduced;
  }

  /// Reduced row id of original row `r`, or -1 (row_map[r], or `r` when
  /// `identity`).
  int64_t ReducedRow(size_t r) const {
    return identity ? static_cast<int64_t>(r) : row_map[r];
  }

  /// Scatters a reduced-space solution into the full variable space.
  std::vector<double> Restore(std::vector<double> reduced_p) const;
};

Result<PresolvedProblem> Presolve(const MaxEntProblem& problem,
                                  double tol = 1e-12);

}  // namespace pme::maxent

#endif  // PME_MAXENT_PROBLEM_H_
