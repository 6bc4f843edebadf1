#include "maxent/problem.h"

#include <algorithm>
#include <cmath>

namespace pme::maxent {

Result<MaxEntProblem> BuildProblem(
    const constraints::ConstraintSystem& system) {
  PME_ASSIGN_OR_RETURN(auto matrices, system.ToMatrices());
  MaxEntProblem p;
  p.num_vars = system.num_variables();
  p.eq = std::move(matrices.eq);
  p.eq_rhs = std::move(matrices.eq_rhs);
  p.ineq = std::move(matrices.ineq);
  p.ineq_rhs = std::move(matrices.ineq_rhs);
  return p;
}

std::vector<double> PresolvedProblem::Restore(
    const std::vector<double>& reduced_p) const {
  std::vector<double> full(var_map.size(), 0.0);
  for (size_t i = 0; i < var_map.size(); ++i) {
    full[i] = var_map[i] >= 0 ? reduced_p[static_cast<size_t>(var_map[i])]
                              : fixed_values[i];
  }
  return full;
}

namespace {

/// One constraint row of the presolve working copy: a slice of the flat
/// `vars`/`coefs` arrays. Substitution shrinks `len` inside the slice.
struct FlatRow {
  size_t begin = 0;
  size_t len = 0;
  double rhs = 0.0;
  bool active = true;
};

/// Appends a copy of `m`'s rows to the flat working arrays.
void AppendRows(const linalg::SparseMatrix& m, const std::vector<double>& rhs,
                std::vector<uint32_t>* vars, std::vector<double>* coefs,
                std::vector<FlatRow>* rows) {
  const size_t base = vars->size();
  vars->insert(vars->end(), m.col_indices().begin(), m.col_indices().end());
  coefs->insert(coefs->end(), m.values().begin(), m.values().end());
  const auto& offsets = m.row_offsets();
  for (size_t r = 0; r < m.rows(); ++r) {
    rows->push_back(
        {base + offsets[r], offsets[r + 1] - offsets[r], rhs[r], true});
  }
}

}  // namespace

Result<PresolvedProblem> Presolve(const MaxEntProblem& problem, double tol) {
  // Eq rows first, then ineq rows, each in original order: row r is an
  // equality iff r < num_eq.
  const size_t num_eq = problem.eq.rows();
  const size_t nnz = problem.eq.nnz() + problem.ineq.nnz();
  std::vector<uint32_t> vars;
  std::vector<double> coefs;
  std::vector<FlatRow> rows;
  vars.reserve(nnz);
  coefs.reserve(nnz);
  rows.reserve(problem.num_constraints());
  AppendRows(problem.eq, problem.eq_rhs, &vars, &coefs, &rows);
  AppendRows(problem.ineq, problem.ineq_rhs, &vars, &coefs, &rows);

  std::vector<char> is_fixed(problem.num_vars, 0);
  std::vector<double> fixed_value(problem.num_vars, 0.0);

  auto fix = [&](uint32_t var, double value) {
    is_fixed[var] = 1;
    fixed_value[var] = std::max(value, 0.0);
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t r = 0; r < rows.size(); ++r) {
      FlatRow& row = rows[r];
      if (!row.active) continue;
      const bool is_eq = r < num_eq;
      uint32_t* const rv = vars.data() + row.begin;
      double* const rc = coefs.data() + row.begin;
      // Substitute fixed variables and drop zero coefficients.
      size_t w = 0;
      for (size_t i = 0; i < row.len; ++i) {
        if (rc[i] == 0.0) continue;
        if (is_fixed[rv[i]]) {
          row.rhs -= rc[i] * fixed_value[rv[i]];
          continue;
        }
        rv[w] = rv[i];
        rc[w] = rc[i];
        ++w;
      }
      row.len = w;

      if (w == 0) {
        if (is_eq ? std::fabs(row.rhs) > tol : row.rhs < -tol) {
          return Status::Infeasible(
              "presolve: constraint reduced to an unsatisfiable constant");
        }
        row.active = false;
        changed = true;
        continue;
      }

      const bool all_pos =
          std::all_of(rc, rc + w, [](double c) { return c > 0.0; });
      const bool all_neg =
          std::all_of(rc, rc + w, [](double c) { return c < 0.0; });

      if (is_eq) {
        if (std::fabs(row.rhs) <= tol && (all_pos || all_neg)) {
          // Zero forcing: a signed combination of nonnegative variables
          // equal to zero pins every variable to zero.
          for (size_t i = 0; i < w; ++i) fix(rv[i], 0.0);
          row.active = false;
          changed = true;
        } else if (w == 1) {
          const double value = row.rhs / rc[0];
          if (value < -tol) {
            return Status::Infeasible(
                "presolve: a probability term is forced negative");
          }
          fix(rv[0], value);
          row.active = false;
          changed = true;
        }
      } else {
        // Inequality  a·p <= rhs  with a > 0 elementwise.
        if (all_pos) {
          if (row.rhs < -tol) {
            return Status::Infeasible(
                "presolve: inequality bound below zero over nonnegative "
                "terms");
          }
          if (row.rhs <= tol) {
            for (size_t i = 0; i < w; ++i) fix(rv[i], 0.0);
            row.active = false;
            changed = true;
          }
        }
      }
    }
  }

  // Renumber surviving variables.
  PresolvedProblem out;
  out.var_map.assign(problem.num_vars, -1);
  out.fixed_values = std::move(fixed_value);
  size_t next = 0;
  for (size_t v = 0; v < problem.num_vars; ++v) {
    if (is_fixed[v]) {
      ++out.num_fixed;
    } else {
      out.var_map[v] = static_cast<int64_t>(next++);
    }
  }

  // Rebuild surviving rows, renumbering each slice's columns in place.
  // Rows are in original order, so the row maps fall out of the same
  // pass that emits the reduced matrices.
  out.eq_row_map.assign(num_eq, -1);
  out.ineq_row_map.assign(problem.ineq.rows(), -1);
  linalg::SparseMatrixBuilder eq_builder(next);
  linalg::SparseMatrixBuilder ineq_builder(next);
  for (size_t r = 0; r < rows.size(); ++r) {
    const FlatRow& row = rows[r];
    if (!row.active) continue;
    uint32_t* const rv = vars.data() + row.begin;
    const double* const rc = coefs.data() + row.begin;
    for (size_t i = 0; i < row.len; ++i) {
      rv[i] = static_cast<uint32_t>(out.var_map[rv[i]]);
    }
    if (r < num_eq) {
      out.eq_row_map[r] = static_cast<int64_t>(out.reduced.eq_rhs.size());
      PME_RETURN_IF_ERROR(eq_builder.AddRow(rv, rc, row.len));
      out.reduced.eq_rhs.push_back(row.rhs);
    } else {
      out.ineq_row_map[r - num_eq] =
          static_cast<int64_t>(out.reduced.ineq_rhs.size());
      PME_RETURN_IF_ERROR(ineq_builder.AddRow(rv, rc, row.len));
      out.reduced.ineq_rhs.push_back(row.rhs);
    }
  }
  out.reduced.num_vars = next;
  PME_ASSIGN_OR_RETURN(out.reduced.eq, eq_builder.Build());
  PME_ASSIGN_OR_RETURN(out.reduced.ineq, ineq_builder.Build());
  return out;
}

}  // namespace pme::maxent
