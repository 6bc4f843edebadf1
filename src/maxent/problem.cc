#include "maxent/problem.h"

#include <algorithm>
#include <cmath>

namespace pme::maxent {

using constraints::LinearConstraint;
using constraints::Relation;

size_t StackRows(std::vector<const LinearConstraint*>* rows) {
  const auto eq_end =
      std::stable_partition(rows->begin(), rows->end(),
                            [](const LinearConstraint* c) {
                              return c->rel == Relation::kEq;
                            });
  return static_cast<size_t>(eq_end - rows->begin());
}

Result<MaxEntProblem> BuildProblem(
    size_t num_vars, const std::vector<LinearConstraint>& rows) {
  std::vector<const LinearConstraint*> stacked;
  stacked.reserve(rows.size());
  for (const LinearConstraint& c : rows) stacked.push_back(&c);
  const size_t num_eq = StackRows(&stacked);
  return AssembleProblem(num_vars, stacked, num_eq,
                         [](uint32_t var) { return var; });
}

std::vector<double> PresolvedProblem::Restore(
    std::vector<double> reduced_p) const {
  if (identity) return reduced_p;
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

/// What presolve does with a row whose nonzero coefficients are
/// rc[0, len) and whose right-hand side is `rhs`.
enum class RowReduction {
  kNone,
  kEmpty,      ///< no variable left: the row is a constant
  kForceZero,  ///< every variable of the row is 0
  kPin,        ///< the one variable of an equality is rhs / rc[0]
};

RowReduction ReductionOf(bool is_eq, const double* rc, size_t len,
                         double rhs, double tol) {
  if (len == 0) return RowReduction::kEmpty;
  const bool all_pos =
      std::all_of(rc, rc + len, [](double c) { return c > 0.0; });
  if (is_eq) {
    // A signed combination of nonnegative variables equal to zero.
    const bool all_neg =
        std::all_of(rc, rc + len, [](double c) { return c < 0.0; });
    if (std::fabs(rhs) <= tol && (all_pos || all_neg)) {
      return RowReduction::kForceZero;
    }
    return len == 1 ? RowReduction::kPin : RowReduction::kNone;
  }
  // a·p <= rhs <= tol with a > 0 elementwise (or infeasible, below -tol).
  return all_pos && rhs <= tol ? RowReduction::kForceZero
                               : RowReduction::kNone;
}

}  // namespace

Result<PresolvedProblem> Presolve(const MaxEntProblem& problem, double tol) {
  // Row r is an equality iff r < num_eq. A matrix holds no zero entry, so
  // its rows are what the first pass below sees: when no reduction acts
  // on any of them, the problem is its own reduction.
  const size_t num_eq = problem.num_eq;
  const auto& offsets = problem.a.row_offsets();
  bool reducible = false;
  for (size_t r = 0; r < problem.a.rows() && !reducible; ++r) {
    reducible =
        ReductionOf(r < num_eq, problem.a.values().data() + offsets[r],
                    offsets[r + 1] - offsets[r], problem.rhs[r],
                    tol) != RowReduction::kNone;
  }
  if (!reducible) {
    PresolvedProblem identity;
    identity.identity = true;
    return identity;
  }

  // A working copy of the stacked rows.
  std::vector<uint32_t> vars = problem.a.col_indices();
  std::vector<double> coefs = problem.a.values();
  std::vector<FlatRow> rows;
  rows.reserve(problem.a.rows());
  for (size_t r = 0; r < problem.a.rows(); ++r) {
    rows.push_back(
        {offsets[r], offsets[r + 1] - offsets[r], problem.rhs[r], true});
  }

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

      switch (ReductionOf(is_eq, rc, w, row.rhs, tol)) {
        case RowReduction::kNone:
          continue;
        case RowReduction::kEmpty:
          if (is_eq ? std::fabs(row.rhs) > tol : row.rhs < -tol) {
            return Status::Infeasible(
                "presolve: constraint reduced to an unsatisfiable constant");
          }
          break;
        case RowReduction::kForceZero:
          if (!is_eq && row.rhs < -tol) {
            return Status::Infeasible(
                "presolve: inequality bound below zero over nonnegative "
                "terms");
          }
          for (size_t i = 0; i < w; ++i) fix(rv[i], 0.0);
          break;
        case RowReduction::kPin: {
          const double value = row.rhs / rc[0];
          if (value < -tol) {
            return Status::Infeasible(
                "presolve: a probability term is forced negative");
          }
          fix(rv[0], value);
          break;
        }
      }
      row.active = false;
      changed = true;
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
  // Rows are in original order, so the row map falls out of the same
  // pass that emits the reduced matrix.
  out.row_map.assign(rows.size(), -1);
  linalg::SparseMatrixBuilder builder(next);
  builder.Reserve(rows.size(), vars.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    const FlatRow& row = rows[r];
    if (!row.active) {
      ++out.rows_dropped;
      continue;
    }
    uint32_t* const rv = vars.data() + row.begin;
    const double* const rc = coefs.data() + row.begin;
    for (size_t i = 0; i < row.len; ++i) {
      rv[i] = static_cast<uint32_t>(out.var_map[rv[i]]);
    }
    if (r < num_eq) ++out.reduced.num_eq;
    out.row_map[r] = static_cast<int64_t>(out.reduced.rhs.size());
    PME_RETURN_IF_ERROR(builder.AddRow(rv, rc, row.len));
    out.reduced.rhs.push_back(row.rhs);
  }
  out.reduced.num_vars = next;
  PME_ASSIGN_OR_RETURN(out.reduced.a, builder.Build());
  return out;
}

}  // namespace pme::maxent
