// Tests for src/maxent: the dual function (against finite differences),
// presolve, the solver on analytically solvable problems, the
// consistency theorem (Theorem 5), equality/inequality agreement,
// decomposition (Section 5.5), and the inequality extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/math_util.h"
#include "common/prng.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/system.h"
#include "core/table_artifact.h"
#include "knowledge/miner.h"
#include "maxent/block_plan.h"
#include "maxent/closed_form.h"
#include "maxent/decomposed.h"
#include "maxent/dual.h"
#include "maxent/problem.h"
#include "maxent/solution_cache.h"
#include "maxent/solver.h"
#include "maxent/solvers_internal.h"
#include "tests/support/experiment.h"
#include "tests/support/invariant_checks.h"
#include "tests/test_util.h"

namespace pme::maxent {
namespace {

using constraints::ConstraintSystem;
using constraints::LinearConstraint;
using constraints::TermIndex;
using knowledge::Relation;
using pme::testing::kQ1;
using pme::testing::kQ2;
using pme::testing::kQ3;
using pme::testing::kS1;
using pme::testing::kS2;
using pme::testing::kS3;

LinearConstraint Eq(std::vector<uint32_t> vars, double rhs) {
  LinearConstraint c;
  c.vars = std::move(vars);
  c.coefs.assign(c.vars.size(), 1.0);
  c.rhs = rhs;
  return c;
}

MaxEntProblem SimplexProblem(size_t n) {
  ConstraintSystem system(n);
  std::vector<uint32_t> all(n);
  for (uint32_t i = 0; i < n; ++i) all[i] = i;
  system.Add(Eq(all, 1.0));
  return BuildProblem(system).ValueOrDie();
}

// ------------------------------------------------------------------ Dual

TEST(DualFunctionTest, GradientMatchesFiniteDifferences) {
  Prng prng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t rows = 2 + prng.NextBounded(4);
    const size_t cols = 3 + prng.NextBounded(6);
    std::vector<std::vector<double>> dense(rows,
                                           std::vector<double>(cols, 0.0));
    for (auto& row : dense) {
      for (auto& v : row) {
        if (prng.NextDouble() < 0.6) v = prng.NextDouble(0.0, 1.5);
      }
    }
    auto a = linalg::SparseMatrix::FromDense(dense);
    std::vector<double> b(rows);
    for (auto& v : b) v = prng.NextDouble(0.05, 0.5);
    DualFunction dual(&a, b);

    std::vector<double> lambda(rows);
    for (auto& v : lambda) v = prng.NextDouble(-1.0, 1.0);
    std::vector<double> grad;
    dual.Evaluate(lambda, &grad, nullptr);

    const double eps = 1e-6;
    for (size_t j = 0; j < rows; ++j) {
      auto plus = lambda, minus = lambda;
      plus[j] += eps;
      minus[j] -= eps;
      const double fd = (dual.Evaluate(plus, nullptr, nullptr) -
                         dual.Evaluate(minus, nullptr, nullptr)) /
                        (2 * eps);
      EXPECT_NEAR(grad[j], fd, 1e-5);
    }
  }
}

TEST(DualFunctionTest, EvaluateIntoMatchesEvaluate) {
  Prng prng(7);
  auto a = linalg::SparseMatrix::FromDense(
      {{1.0, 0.0, 2.0, 0.5}, {0.0, 1.0, 1.0, 0.0}, {0.3, 0.0, 0.0, 1.0}});
  std::vector<double> b = {0.4, 0.3, 0.3};
  DualFunction dual(&a, b);
  DualWorkspace ws;
  std::vector<double> grad_fused, grad, p;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> lambda(3);
    for (auto& v : lambda) v = prng.NextDouble(-1.0, 1.0);
    const double fused = dual.EvaluateInto(lambda, &grad_fused, &ws);
    const double legacy = dual.Evaluate(lambda, &grad, &p);
    EXPECT_DOUBLE_EQ(fused, legacy);
    ASSERT_EQ(ws.p.size(), p.size());
    for (size_t i = 0; i < p.size(); ++i) EXPECT_DOUBLE_EQ(ws.p[i], p[i]);
    for (size_t j = 0; j < grad.size(); ++j) {
      EXPECT_DOUBLE_EQ(grad_fused[j], grad[j]);
    }
  }
}

TEST(DualFunctionTest, EvaluateIntoNeverResizesAfterWarmup) {
  // The allocation-free contract of the solver hot path: after the first
  // call the workspace and gradient buffers are final — every subsequent
  // evaluation (e.g. line-search probes) reuses them in place.
  Prng prng(13);
  auto a = linalg::SparseMatrix::FromDense(
      {{1.0, 1.0, 0.0}, {0.0, 1.0, 1.0}});
  std::vector<double> b = {0.5, 0.5};
  DualFunction dual(&a, b);
  DualWorkspace ws;
  std::vector<double> grad;
  std::vector<double> lambda = {0.1, -0.2};
  dual.EvaluateInto(lambda, &grad, &ws);
  const double* p_data = ws.p.data();
  const double* grad_data = grad.data();
  const size_t p_cap = ws.p.capacity();
  const size_t grad_cap = grad.capacity();
  for (int trial = 0; trial < 100; ++trial) {
    for (auto& v : lambda) v = prng.NextDouble(-2.0, 2.0);
    dual.EvaluateInto(lambda, &grad, &ws);
    ASSERT_EQ(ws.p.data(), p_data);
    ASSERT_EQ(grad.data(), grad_data);
    ASSERT_EQ(ws.p.capacity(), p_cap);
    ASSERT_EQ(grad.capacity(), grad_cap);
  }
}

TEST(DualFunctionTest, PrimalIsExpOfDualCombination) {
  auto a = linalg::SparseMatrix::FromDense({{1.0, 1.0}});
  std::vector<double> b = {1.0};
  DualFunction dual(&a, b);
  auto p = dual.Primal({2.0});
  EXPECT_NEAR(p[0], std::exp(1.0), 1e-12);
  EXPECT_NEAR(p[1], std::exp(1.0), 1e-12);
}

TEST(DualFunctionTest, RowCurvatureIsTheHessianDiagonalOnUnitRows) {
  // A stacked problem: equality rows p0 + p1 + p2 = 0.3 and p5 = 0, then
  // the ≤ rows −p2 − p3 ≤ −0.1 (a negated >= row), 0.5 p1 + 2 p4 ≤ 0.4
  // (non-unit coefficients) and p5 ≤ 0.25. At the λ below p5 is near the
  // least normal double, so the last row's mass is gone and |b| = 0.25
  // floors its scale, and the p5 = 0 row has neither mass nor rhs.
  ConstraintSystem system(6);
  system.Add(Eq({0, 1, 2}, 0.3));
  system.Add(Eq({5}, 0.0));
  LinearConstraint ge;
  ge.vars = {2, 3};
  ge.coefs = {1.0, 1.0};
  ge.rel = Relation::kGe;
  ge.rhs = 0.1;
  system.Add(ge);
  LinearConstraint mixed;
  mixed.vars = {1, 4};
  mixed.coefs = {0.5, 2.0};
  mixed.rel = Relation::kLe;
  mixed.rhs = 0.4;
  system.Add(mixed);
  LinearConstraint collapsed;
  collapsed.vars = {5};
  collapsed.coefs = {1.0};
  collapsed.rel = Relation::kLe;
  collapsed.rhs = 0.25;
  system.Add(collapsed);
  const MaxEntProblem problem = BuildProblem(system).ValueOrDie();
  ASSERT_EQ(problem.num_eq, 2u);
  ASSERT_EQ(problem.rhs, (std::vector<double>{0.3, 0.0, -0.1, 0.4, 0.25}));

  DualFunction dual(&problem.a, problem.rhs);
  const std::vector<double> lambda = {0.4, -400.0, -0.3, -0.2, -400.0};
  std::vector<double> grad, p;
  dual.Evaluate(lambda, &grad, &p);
  ASSERT_LT(p[5], 1e-300);

  std::vector<double> curvature(problem.a.rows());
  for (size_t j = 0; j < curvature.size(); ++j) {
    curvature[j] = internal::RowCurvature(grad[j], problem.rhs[j]);
    EXPECT_GT(curvature[j], 0.0) << "row " << j;
    EXPECT_TRUE(std::isfinite(1.0 / curvature[j])) << "row " << j;
  }
  // The ±1 rows: D is diag(A·diag(p)·Aᵀ), here above |b|.
  for (size_t j : {size_t{0}, size_t{2}}) {
    double hessian = 0.0;
    for (size_t i = 0; i < p.size(); ++i) {
      hessian += problem.a.At(j, i) * problem.a.At(j, i) * p[i];
    }
    ASSERT_GT(hessian, std::fabs(problem.rhs[j]));
    EXPECT_LE(std::fabs(curvature[j] - hessian), 1e-15 * hessian)
        << "row " << j;
  }
  EXPECT_EQ(curvature[4], 0.25);
  EXPECT_LT(curvature[1], 1e-300);
}

// -------------------------------------------------------------- Presolve

TEST(PresolveTest, ZeroForcingEliminatesVariables) {
  ConstraintSystem system(3);
  system.Add(Eq({0, 1}, 0.0));  // forces p0 = p1 = 0
  system.Add(Eq({0, 1, 2}, 0.4));
  auto problem = BuildProblem(system).ValueOrDie();
  auto pre = Presolve(problem).ValueOrDie();
  EXPECT_EQ(pre.num_fixed, 3u);  // cascade pins p2 = 0.4 too
  EXPECT_EQ(pre.reduced.num_vars, 0u);
  auto full = pre.Restore({});
  EXPECT_DOUBLE_EQ(full[0], 0.0);
  EXPECT_DOUBLE_EQ(full[1], 0.0);
  EXPECT_DOUBLE_EQ(full[2], 0.4);
}

TEST(PresolveTest, SingletonSubstitution) {
  ConstraintSystem system(3);
  system.Add(Eq({0}, 0.3));
  system.Add(Eq({0, 1, 2}, 1.0));
  auto problem = BuildProblem(system).ValueOrDie();
  auto pre = Presolve(problem).ValueOrDie();
  EXPECT_EQ(pre.num_fixed, 1u);
  EXPECT_EQ(pre.reduced.num_vars, 2u);
  ASSERT_EQ(pre.reduced.rhs.size(), 1u);
  EXPECT_NEAR(pre.reduced.rhs[0], 0.7, 1e-12);  // 1.0 - 0.3
}

TEST(PresolveTest, DetectsInfeasibleConstant) {
  ConstraintSystem system(2);
  system.Add(Eq({0, 1}, 0.0));  // all zero
  system.Add(Eq({0, 1}, 0.5));  // contradiction
  auto problem = BuildProblem(system).ValueOrDie();
  auto pre = Presolve(problem);
  ASSERT_FALSE(pre.ok());
  EXPECT_EQ(pre.status().code(), StatusCode::kInfeasible);
}

TEST(PresolveTest, DetectsNegativePin) {
  ConstraintSystem system(1);
  system.Add(Eq({0}, -0.5));
  auto problem = BuildProblem(system).ValueOrDie();
  EXPECT_EQ(Presolve(problem).status().code(), StatusCode::kInfeasible);
}

TEST(PresolveTest, InequalityZeroBoundForces) {
  ConstraintSystem system(2);
  LinearConstraint le;
  le.vars = {0};
  le.coefs = {1.0};
  le.rel = Relation::kLe;
  le.rhs = 0.0;  // p0 <= 0 with p0 >= 0 pins p0 = 0
  system.Add(le);
  system.Add(Eq({0, 1}, 0.5));
  auto problem = BuildProblem(system).ValueOrDie();
  auto pre = Presolve(problem).ValueOrDie();
  EXPECT_EQ(pre.num_fixed, 2u);
  auto full = pre.Restore({});
  EXPECT_DOUBLE_EQ(full[1], 0.5);
}

TEST(PresolveTest, RowMapsAndRenumberingAcrossEqAndIneq) {
  // Seven variables; all values are exact in binary, so every rhs below
  // is asserted exactly. Stacked rows: E0..E3 are rows 0..3, I0..I2 are
  // rows 4..6.
  MaxEntProblem problem;
  problem.num_vars = 7;
  problem.a = linalg::SparseMatrix::FromDense({
      {1, 1, 0, 0, 0, 0, 0},    // E0: p0 + p1 = 0       -> zero forcing
      {0, 0, 2, 0, 0, 0, 0},    // E1: 2 p2 = 0.5        -> pins p2 = 0.25
      {0, 1, 1, 1, 1, 0, 0},    // E2: p1..p4 = 1        -> p3 + p4 = 0.75
      {0, 0, 0, 0, 0.5, 0, 3},  // E3: 0.5 p4 + 3 p6 = 0.875, untouched
      {0, 0, 1, 0, 0, 1, 0},    // I0: p2 + p5 <= 0.25  -> p5 <= 0, forces p5
      {0, 0, 0, 1, 0, 1, 1},    // I1: p3 + p5 + p6 <= 0.75
      {0, 0, 0, 0, -1, 0, 0},   // I2: -p4 <= -0.125, untouched
  });
  problem.rhs = {0.0, 0.5, 1.0, 0.875, 0.25, 0.75, -0.125};
  problem.num_eq = 4;

  const PresolvedProblem pre = Presolve(problem).ValueOrDie();

  // p0, p1, p2, p5 are fixed; p3, p4, p6 survive as reduced 0, 1, 2.
  EXPECT_EQ(pre.num_fixed, 4u);
  EXPECT_EQ(pre.var_map, (std::vector<int64_t>{-1, -1, -1, 0, 1, -1, 2}));
  EXPECT_EQ(pre.fixed_values,
            (std::vector<double>{0, 0, 0.25, 0, 0, 0, 0}));
  // E2, E3 survive as reduced rows 0, 1; I1, I2 as reduced rows 2, 3.
  EXPECT_EQ(pre.row_map, (std::vector<int64_t>{-1, -1, 0, 1, -1, 2, 3}));

  const MaxEntProblem& reduced = pre.reduced;
  EXPECT_EQ(reduced.num_vars, 3u);
  EXPECT_EQ(reduced.num_eq, 2u);
  ASSERT_EQ(reduced.a.rows(), 4u);
  EXPECT_EQ(reduced.a.cols(), 3u);
  EXPECT_EQ(reduced.a.row_offsets(), (std::vector<size_t>{0, 2, 4, 6, 7}));
  EXPECT_EQ(reduced.a.col_indices(),
            (std::vector<uint32_t>{0, 1, 1, 2, 0, 2, 1}));
  EXPECT_EQ(reduced.a.values(), (std::vector<double>{1, 1, 0.5, 3, 1, 1, -1}));
  EXPECT_EQ(reduced.rhs, (std::vector<double>{0.75, 0.875, 0.75, -0.125}));

  EXPECT_EQ(pre.Restore({0.5, 0.25, 0.125}),
            (std::vector<double>{0, 0, 0.25, 0.5, 0.25, 0, 0.125}));
}

// A problem with no row a reduction acts on is its own reduction:
// presolve copies nothing, both maps are the identity, and the solve is
// the same bits as one with presolve off.
TEST(PresolveTest, NothingToReduceKeepsTheProblem) {
  ConstraintSystem system(5);
  system.Add(Eq({0, 1, 2}, 0.6));
  system.Add(Eq({2, 3, 4}, 0.5));
  system.Add(Eq({0, 1, 2, 3, 4}, 1.0));
  LinearConstraint le = Eq({1, 3}, 0.3);
  le.rel = Relation::kLe;
  system.Add(le);
  LinearConstraint ge = Eq({0, 4}, 0.2);  // -p0 - p4 <= -0.2
  ge.rel = Relation::kGe;
  system.Add(ge);
  const MaxEntProblem problem = BuildProblem(system).ValueOrDie();
  const MaxEntProblem assembled = BuildProblem(system).ValueOrDie();

  const PresolvedProblem pre = Presolve(problem).ValueOrDie();
  EXPECT_TRUE(pre.identity);
  EXPECT_EQ(pre.num_fixed, 0u);
  EXPECT_EQ(pre.rows_dropped, 0u);
  EXPECT_EQ(&pre.Reduced(problem), &problem);
  EXPECT_TRUE(pre.reduced.a.values().empty());
  EXPECT_TRUE(pre.var_map.empty());
  EXPECT_TRUE(pre.row_map.empty());
  for (size_t r = 0; r < problem.a.rows(); ++r) {
    EXPECT_EQ(pre.ReducedRow(r), static_cast<int64_t>(r));
  }
  const std::vector<double> p = {0.125, 0.25, 0.0625, 0.5, 0.03125};
  EXPECT_EQ(pre.Restore(p), p);
  // The problem the solve reads is the one assembled, bit for bit.
  const MaxEntProblem& reduced = pre.Reduced(problem);
  EXPECT_EQ(reduced.a.row_offsets(), assembled.a.row_offsets());
  EXPECT_EQ(reduced.a.col_indices(), assembled.a.col_indices());
  EXPECT_EQ(reduced.a.values(), assembled.a.values());
  EXPECT_EQ(reduced.rhs, assembled.rhs);
  EXPECT_EQ(reduced.num_eq, assembled.num_eq);

  const std::vector<double> start = {0.5, -0.25, 0.125, -0.5, -0.125};
  SolverOptions options;
  options.warm_start = &start;
  const SolverResult with = Solve(problem, options).ValueOrDie();
  options.presolve = false;
  const SolverResult without = Solve(problem, options).ValueOrDie();
  EXPECT_TRUE(with.converged);
  EXPECT_EQ(with.presolve_fixed, 0u);
  EXPECT_EQ(with.p, without.p);
  EXPECT_EQ(with.dual_lambda_full, without.dual_lambda_full);
  EXPECT_EQ(with.iterations, without.iterations);
  EXPECT_EQ(with.dual_value, without.dual_value);
  EXPECT_EQ(with.entropy, without.entropy);
}

// --------------------------------------------------- Analytic solutions

TEST(SolverTest, UniformOnSimplex) {
  // max H s.t. Σ p = 1 -> uniform; entropy = ln n.
  for (size_t n : {2, 5, 16}) {
    auto result = Solve(SimplexProblem(n)).ValueOrDie();
    EXPECT_TRUE(result.converged);
    for (double v : result.p) EXPECT_NEAR(v, 1.0 / n, 1e-7);
    EXPECT_NEAR(result.entropy, std::log(double(n)), 1e-6);
    EXPECT_LT(result.max_violation, 1e-8);
  }
}

TEST(SolverTest, TwoBlockMarginals) {
  // Variables arranged 2x2 with row sums {0.6, 0.4} and col sums
  // {0.7, 0.3}: maxent -> product distribution.
  ConstraintSystem system(4);
  system.Add(Eq({0, 1}, 0.6));
  system.Add(Eq({2, 3}, 0.4));
  system.Add(Eq({0, 2}, 0.7));
  system.Add(Eq({1, 3}, 0.3));
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.42, 1e-7);
  EXPECT_NEAR(result.p[1], 0.18, 1e-7);
  EXPECT_NEAR(result.p[2], 0.28, 1e-7);
  EXPECT_NEAR(result.p[3], 0.12, 1e-7);
}

TEST(SolverTest, InequalityBindsWhenActive) {
  // max H s.t. p0 + p1 = 1, p0 <= 0.2  -> p = (0.2, 0.8).
  ConstraintSystem system(2);
  system.Add(Eq({0, 1}, 1.0));
  LinearConstraint le;
  le.vars = {0};
  le.coefs = {1.0};
  le.rel = Relation::kLe;
  le.rhs = 0.2;
  system.Add(le);
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.2, 1e-6);
  EXPECT_NEAR(result.p[1], 0.8, 1e-6);
  EXPECT_TRUE(result.converged);
}

TEST(SolverTest, OnlyUpperBoundRows) {
  // No equality row at all (num_eq == 0): the unconstrained optimum
  // p_i = e^-1 breaks both bounds, so both bind — p0 = 0.2 and
  // p1 = p2 = 0.25.
  ConstraintSystem system(3);
  LinearConstraint le0;
  le0.vars = {0};
  le0.coefs = {1.0};
  le0.rel = Relation::kLe;
  le0.rhs = 0.2;
  system.Add(le0);
  LinearConstraint le12;
  le12.vars = {1, 2};
  le12.coefs = {1.0, 1.0};
  le12.rel = Relation::kLe;
  le12.rhs = 0.5;
  system.Add(le12);
  auto problem = BuildProblem(system).ValueOrDie();
  ASSERT_EQ(problem.num_eq, 0u);
  auto result = Solve(problem).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.p[0], 0.2, 1e-7);
  EXPECT_NEAR(result.p[1], 0.25, 1e-7);
  EXPECT_NEAR(result.p[2], 0.25, 1e-7);
  // Both multipliers stay in the box λ ≤ 0.
  for (double lambda : result.dual_lambda_full) EXPECT_LE(lambda, 0.0);
}

TEST(SolverTest, InequalitySlackWhenInactive) {
  // p0 <= 0.9 does not bind: solution stays uniform.
  ConstraintSystem system(2);
  system.Add(Eq({0, 1}, 1.0));
  LinearConstraint le;
  le.vars = {0};
  le.coefs = {1.0};
  le.rel = Relation::kLe;
  le.rhs = 0.9;
  system.Add(le);
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.5, 1e-6);
  EXPECT_NEAR(result.p[1], 0.5, 1e-6);
}

TEST(SolverTest, GreaterEqualBindsFromBelow) {
  // p0 >= 0.8 forces mass onto p0.
  ConstraintSystem system(2);
  system.Add(Eq({0, 1}, 1.0));
  LinearConstraint ge;
  ge.vars = {0};
  ge.coefs = {1.0};
  ge.rel = Relation::kGe;
  ge.rhs = 0.8;
  system.Add(ge);
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.8, 1e-6);
  EXPECT_NEAR(result.p[1], 0.2, 1e-6);
}

TEST(SolverTest, VagueKnowledgeBand) {
  // Section 4.5: 0.3-eps <= P <= 0.3+eps around an unconstrained optimum
  // of 0.5 clamps to the upper edge 0.35.
  ConstraintSystem system(2);
  system.Add(Eq({0, 1}, 1.0));
  LinearConstraint le;
  le.vars = {0};
  le.coefs = {1.0};
  le.rel = Relation::kLe;
  le.rhs = 0.35;
  system.Add(le);
  LinearConstraint ge;
  ge.vars = {0};
  ge.coefs = {1.0};
  ge.rel = Relation::kGe;
  ge.rhs = 0.25;
  system.Add(ge);
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.35, 1e-6);
}

// ------------------------------------- Equality / inequality agreement

TEST(SolverTest, Figure1KnowledgeAgreesWithItsInequalityBand) {
  // P(s3 | q3) = 0.5, once as an equality and once as the band
  // 0.5 <= P <= 0.5: two ≤ rows in the box-constrained dual.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto build = [&](std::vector<Relation> rels) {
    ConstraintSystem system(index.num_variables());
    system.AddAll(constraints::GenerateInvariants(t, index));
    knowledge::KnowledgeBase kb;
    for (Relation rel : rels) {
      kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.5, rel));
    }
    system.AddAll(
        constraints::CompileKnowledge(kb, t, index).ValueOrDie().constraints);
    return BuildProblem(system).ValueOrDie();
  };

  SolverOptions options;
  options.max_iterations = 5000;
  auto reference = Solve(build({Relation::kEq}), options).ValueOrDie();
  auto band = build({Relation::kGe, Relation::kLe});
  ASSERT_GT(band.a.rows(), band.num_eq);
  auto result = Solve(band, options).ValueOrDie();
  EXPECT_LT(result.max_violation, 1e-6);
  for (size_t i = 0; i < reference.p.size(); ++i) {
    EXPECT_NEAR(result.p[i], reference.p[i], Tolerance::kCrossSolver)
        << "var " << i;
  }
}

// The small instance of the Malouf-style solver comparison (Section 3.3):
// 250 synthetic records, the top 10 positive and 10 negative mined
// two-attribute rules, seed 7. Returns the invariants plus the rules as
// statements of relation `positive_rel` (positive rules) and
// `negative_rel` (negative ones).
MaxEntProblem MaloufSmallInstance(Relation positive_rel,
                                  Relation negative_rel) {
  core::PipelineOptions options;
  options.data.num_records = 250;
  options.data.seed = 7;
  options.anatomy.ell = 5;
  options.miner.min_support_records = 3;
  options.miner.max_attrs = 2;
  auto pipeline = core::BuildPipeline(options).ValueOrDie();
  const auto& table = pipeline.bucketization.table;
  auto index = TermIndex::Build(table);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(table, index));
  const auto top = knowledge::TopK(pipeline.rules, 10, 10);
  knowledge::KnowledgeBase rules;
  rules.AddRules(top);
  knowledge::KnowledgeBase kb;
  for (size_t i = 0; i < top.size(); ++i) {
    knowledge::ConditionalStatement statement = rules.conditionals()[i];
    statement.rel = top[i].positive ? positive_rel : negative_rel;
    kb.Add(std::move(statement));
  }
  system.AddAll(constraints::CompileKnowledge(
                    kb, table, index, &pipeline.bucketization.qi_encoder)
                    .ValueOrDie()
                    .constraints);
  return BuildProblem(system).ValueOrDie();
}

TEST(SolverTest, MaloufSmallInstanceConverges) {
  auto problem = MaloufSmallInstance(Relation::kEq, Relation::kEq);
  EXPECT_EQ(problem.num_vars, 1250u);
  EXPECT_EQ(problem.a.rows(), 520u);
  auto result = Solve(problem).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.max_violation, 1e-8);
  EXPECT_LT(result.iterations, 400u);
}

TEST(SolverTest, AllBindingInequalityTwinCostsWhatItsEqualityFormDoes) {
  // Every rule asserted as a bound on the side its equality binds from:
  // >= for the high positive-rule conditionals, <= for the low
  // negative-rule ones. The box-constrained LBFGS must land on the
  // equality form's distribution at about its cost.
  auto eq = Solve(MaloufSmallInstance(Relation::kEq, Relation::kEq))
                .ValueOrDie();
  auto twin_problem = MaloufSmallInstance(Relation::kGe, Relation::kLe);
  ASSERT_GT(twin_problem.a.rows(), twin_problem.num_eq);
  auto twin = Solve(twin_problem).ValueOrDie();
  ASSERT_TRUE(eq.converged);
  EXPECT_TRUE(twin.converged);
  EXPECT_LE(static_cast<double>(twin.iterations),
            1.2 * static_cast<double>(eq.iterations));
  ASSERT_EQ(twin.p.size(), eq.p.size());
  for (size_t i = 0; i < eq.p.size(); ++i) {
    EXPECT_NEAR(twin.p[i], eq.p[i], 1e-6) << "var " << i;
  }
}

// ------------------------------------------------- Consistency (Thm. 5)

TEST(ConsistencyTest, NoKnowledgeMatchesClosedForm) {
  // Theorem 5: with no background knowledge the MaxEnt solution equals
  // P(q,b)·P(s,b)/P(b) — the uniform-portion rule of the prior work.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  auto closed = ClosedFormNoKnowledge(t, index);
  for (size_t i = 0; i < closed.size(); ++i) {
    EXPECT_NEAR(result.p[i], closed[i], 1e-7) << index.TermName(i, t);
  }
}

TEST(ConsistencyTest, ClosedFormSatisfiesAllInvariants) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto closed = ClosedFormNoKnowledge(t, index);
  auto invariants = constraints::GenerateInvariants(t, index);
  EXPECT_LT(constraints::MaxInvariantViolation(invariants, closed), 1e-12);
}

TEST(ConsistencyTest, ClosedFormMatchesPortionRule) {
  // Eq. (9): P(S | Q, b) = (# of S in b) / N_b.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto closed = ClosedFormNoKnowledge(t, index);
  // P(s2 | q1, b1) = 2/4; joint = P(q1,b1) * 1/2 = 0.2 * 0.5 = 0.1.
  const uint32_t var = index.VariableId(kQ1, kS2, 0).ValueOrDie();
  EXPECT_NEAR(closed[var], 0.1, 1e-12);
  // P(s1 | q1, b1) = 1/4; joint = 0.2 * 0.25 = 0.05.
  const uint32_t var2 = index.VariableId(kQ1, kS1, 0).ValueOrDie();
  EXPECT_NEAR(closed[var2], 0.05, 1e-12);
}

// ------------------------------------------ Section 3.1 forced deduction

TEST(DeductionTest, PaperSection31Example) {
  // "if adversaries know that P(s1|q2) = 0 and P(s1 or s2|q3) = 0, we
  // immediately know that in the first bucket q3 can only be mapped to
  // s3, q2 can only be mapped to s2, and one of the q1 maps to s1 and the
  // other maps to s2."
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ2, {kS1}, 0.0));
  kb.Add(knowledge::AbstractConditional(kQ3, {kS1, kS2}, 0.0));
  auto compiled = constraints::CompileKnowledge(kb, t, index).ValueOrDie();
  system.AddAll(std::move(compiled.constraints));
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  const auto& p = result.p;

  auto at = [&](uint32_t q, uint32_t s, uint32_t b) {
    return p[index.VariableId(q, s, b).ValueOrDie()];
  };
  // q3 -> s3 with its entire bucket-1 mass (0.1).
  EXPECT_NEAR(at(kQ3, kS3, 0), 0.1, 1e-7);
  EXPECT_NEAR(at(kQ3, kS1, 0), 0.0, 1e-9);
  EXPECT_NEAR(at(kQ3, kS2, 0), 0.0, 1e-9);
  // q2 -> s2 (s3 is exhausted by q3).
  EXPECT_NEAR(at(kQ2, kS2, 0), 0.1, 1e-7);
  EXPECT_NEAR(at(kQ2, kS1, 0), 0.0, 1e-9);
  EXPECT_NEAR(at(kQ2, kS3, 0), 0.0, 1e-7);
  // The two q1 occurrences split between s1 (all of it) and s2.
  EXPECT_NEAR(at(kQ1, kS1, 0), 0.1, 1e-7);
  EXPECT_NEAR(at(kQ1, kS2, 0), 0.1, 1e-7);
  EXPECT_NEAR(at(kQ1, kS3, 0), 0.0, 1e-7);
}

// --------------------------------------------------------- Decomposition

TEST(DecomposedTest, MatchesFullSolve) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.5));
  auto compiled = constraints::CompileKnowledge(kb, t, index).ValueOrDie();
  system.AddAll(std::move(compiled.constraints));

  auto problem = BuildProblem(system).ValueOrDie();
  auto full = Solve(problem).ValueOrDie();
  auto decomposed = SolveDecomposed(t, index, system).ValueOrDie();
  for (size_t i = 0; i < full.p.size(); ++i) {
    EXPECT_NEAR(decomposed.p[i], full.p[i], 1e-6) << index.TermName(i, t);
  }
  EXPECT_LT(decomposed.max_violation, 1e-7);

  auto stats = AnalyzeDecomposition(t, index, system).ValueOrDie();
  EXPECT_EQ(stats.relevant_buckets, 2u);
  EXPECT_EQ(stats.irrelevant_buckets, 1u);
  EXPECT_EQ(stats.relevant_variables, 18u);
}

TEST(DecomposedTest, SystemWithoutTheTablesInvariantRowsIsRejected) {
  // A system overload leaves the invariant rows to the table, so a system
  // that does not hold exactly the table's is refused, not half-solved.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  constraints::InvariantOptions concise;
  concise.drop_redundant_row = true;
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index, concise));
  EXPECT_EQ(BlockPlan::Build(t, index, system).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveDecomposed(t, index, system).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AnalyzeDecomposition(t, index, system).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DecomposedTest, NoKnowledgeIsPureClosedForm) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  auto result = SolveDecomposed(t, index, system).ValueOrDie();
  EXPECT_EQ(result.iterations, 0u);  // nothing iterative to solve
  auto closed = ClosedFormNoKnowledge(t, index);
  for (size_t i = 0; i < closed.size(); ++i) {
    EXPECT_NEAR(result.p[i], closed[i], 1e-12);
  }
}

TEST(DecomposedTest, UnsupportedRowIsInfeasibleWithOrWithoutABlock) {
  // An all-zero row reads 0 under every joint, so `= 0.5` cannot hold:
  // planned alone (no block to solve) or next to a supported row.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  LinearConstraint unsupported = Eq({0, 1}, 0.5);
  unsupported.coefs.assign(2, 0.0);
  unsupported.label = "all-zero";
  LinearConstraint supported = Eq({0, 1}, 1.0);
  supported.rel = Relation::kLe;
  const auto prior = std::make_shared<const std::vector<double>>(
      ClosedFormNoKnowledge(t, index));
  for (const auto& rows : {std::vector<LinearConstraint>{unsupported},
                           std::vector<LinearConstraint>{unsupported,
                                                         supported}}) {
    const BlockPlan plan = BlockPlan::Build(t, index, {}, rows);
    EXPECT_EQ(plan.blocks().empty(), rows.size() == 1);
    EXPECT_EQ(
        SolveDecomposed(plan, prior, Entropy(*prior), {}).status().code(),
        StatusCode::kInfeasible)
        << rows.size() << " rows";
  }
}

// ---------------------------------------------------- Closed-form start

// The problem of `block`, as SolveDecomposed assembles it.
MaxEntProblem BlockProblem(const BlockPlan& plan, const PlanBlock& block) {
  return AssembleBlock(plan, block).ValueOrDie();
}

// ∇D of `problem` at `lambda`: each row's residual at the primal there.
std::vector<double> GradientAt(const MaxEntProblem& problem,
                               const std::vector<double>& lambda) {
  DualFunction dual(&problem.a, problem.rhs);
  std::vector<double> grad;
  dual.Evaluate(lambda, &grad, nullptr);
  return grad;
}

// Every block of `plan` starts at the closed form's dual: each invariant
// row holds there, and each knowledge row's gradient is its residual at
// the closed form.
void ExpectClosedFormStart(const BlockPlan& plan,
                           const std::vector<double>& prior) {
  ASSERT_FALSE(plan.blocks().empty());
  for (const PlanBlock& block : plan.blocks()) {
    ASSERT_TRUE(block.warm_start.empty());
    const std::vector<double> start = BlockStart(plan, block, prior);
    ASSERT_EQ(start, ClosedFormDual(plan, block, prior));
    const std::vector<double> grad =
        GradientAt(BlockProblem(plan, block), start);
    size_t invariant_rows = 0;
    for (size_t j = 0; j < block.num_rows(); ++j) {
      if (j < block.num_table_rows) {
        ++invariant_rows;
        EXPECT_LE(std::fabs(grad[j]), 1e-15) << "row " << j;
        continue;
      }
      const LinearConstraint& c = *block.rows[j - block.num_table_rows];
      EXPECT_EQ(start[j], 0.0);
      double lhs = 0.0;
      for (size_t i = 0; i < c.vars.size(); ++i) {
        lhs += c.coefs[i] * prior[c.vars[i]];
      }
      const double sign = c.rel == Relation::kGe ? -1.0 : 1.0;
      EXPECT_NEAR(grad[j], sign * (lhs - c.rhs), 1e-15) << "row " << j;
    }
    EXPECT_GT(invariant_rows, 0u);
  }
}

knowledge::KnowledgeBase Figure1Knowledge(double s1_given_q4) {
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(pme::testing::kQ4, {kS1},
                                        s1_given_q4));
  kb.Add(knowledge::AbstractConditional(pme::testing::kQ5,
                                        {pme::testing::kS5}, 0.5));
  kb.Add(knowledge::AbstractConditional(pme::testing::kQ4, {kS3}, 0.3,
                                        Relation::kLe));
  return kb;
}

ConstraintSystem Figure1System(const anonymize::BucketizedTable& t,
                               const TermIndex& index,
                               const knowledge::KnowledgeBase& kb) {
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  system.AddAll(constraints::CompileKnowledge(kb, t, index)
                    .ValueOrDie()
                    .constraints);
  return system;
}

TEST(ClosedFormStartTest, Figure1BlocksStartAtTheClosedForm) {
  // Figure 1's b1 holds both a repeated QI value and a repeated SA value.
  const auto t = pme::testing::MakeFigure1Table();
  const auto index = TermIndex::Build(t);
  const auto system = Figure1System(t, index, Figure1Knowledge(0.5));
  const std::vector<double> prior = ClosedFormNoKnowledge(t, index);
  ExpectClosedFormStart(BlockPlan::Build(t, index, system).ValueOrDie(),
                        prior);
  const auto knowledge =
      constraints::CompileKnowledge(Figure1Knowledge(0.5), t, index)
          .ValueOrDie()
          .constraints;
  ExpectClosedFormStart(
      BlockPlan::Build(t, index, {}, knowledge, /*one_block=*/true), prior);
}

class SynthStartTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::PipelineOptions options;
    options.data.num_records = 3000;
    options.anatomy.ell = 5;
    options.miner.min_support_records = 3;
    options.miner.max_attrs = 2;
    pipeline_ = new core::ExperimentPipeline(
        core::BuildPipeline(options).ValueOrDie());
    artifact_ = new std::shared_ptr<const core::TableArtifact>(
        core::TableArtifact::BuildBorrowed(
            pipeline_->bucketization.table,
            &pipeline_->bucketization.qi_encoder)
            .ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete artifact_;
    delete pipeline_;
  }

  static const core::TableArtifact& artifact() { return **artifact_; }

  static BlockPlan Plan(const std::vector<LinearConstraint>& request_rows,
                        bool one_block) {
    return BlockPlan::Build(artifact().table(), artifact().index(),
                            artifact().options().invariant_options,
                            request_rows, one_block);
  }

  static core::ExperimentPipeline* pipeline_;
  static std::shared_ptr<const core::TableArtifact>* artifact_;
};

core::ExperimentPipeline* SynthStartTest::pipeline_ = nullptr;
std::shared_ptr<const core::TableArtifact>* SynthStartTest::artifact_ =
    nullptr;

TEST_F(SynthStartTest, BlocksStartAtTheClosedForm) {
  knowledge::KnowledgeBase kb;
  kb.AddRules(knowledge::TopK(pipeline_->rules, 8, 8));
  const auto compiled =
      constraints::CompileKnowledge(kb, artifact().table(), artifact().index(),
                                    artifact().qi_encoder())
          .ValueOrDie();
  ASSERT_FALSE(compiled.constraints.empty());
  ExpectClosedFormStart(Plan(compiled.constraints, false),
                        artifact().closed_form_prior());
  ExpectClosedFormStart(Plan(compiled.constraints, true),
                        artifact().closed_form_prior());
}

TEST_F(SynthStartTest, KnowledgeFreeWholeTableIsSolvedByItsStart) {
  const BlockPlan plan = Plan({}, /*one_block=*/true);
  ASSERT_EQ(plan.blocks().size(), 1u);
  const auto result =
      SolveDecomposed(plan,
                      std::shared_ptr<const std::vector<double>>(
                          *artifact_, &artifact().closed_form_prior()),
                      artifact().closed_form_prior_entropy(), {})
          .ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  const std::vector<double> joint = MaterializeJoint(result);
  const std::vector<double>& prior = artifact().closed_form_prior();
  for (size_t i = 0; i < joint.size(); ++i) {
    EXPECT_NEAR(joint[i], prior[i], 1e-15) << "var " << i;
  }
}

// ------------------------------------------------- Block assembly oracle

// The reference closed-form dual over materialized rows: each row's QI or
// SA invariant source, its bucket and its first variable's position give
// its multiplier; every other row gets 0.
std::vector<double> RowSourceDual(
    const TermIndex& index, const std::vector<double>& prior,
    const std::vector<const LinearConstraint*>& rows) {
  std::vector<double> lambda(rows.size(), 0.0);
  for (size_t j = 0; j < rows.size(); ++j) {
    const LinearConstraint& c = *rows[j];
    const bool qi = c.source == constraints::ConstraintSource::kQiInvariant;
    if ((!qi && c.source != constraints::ConstraintSource::kSaInvariant) ||
        c.vars.empty()) {
      continue;
    }
    const uint32_t b = index.TermOf(c.vars.front()).bucket;
    const uint32_t first = index.BucketRange(b).first;
    const uint32_t h = static_cast<uint32_t>(index.BucketSaList(b).size());
    const uint32_t offset = c.vars.front() - first;
    lambda[j] = qi ? std::log(prior[first + offset / h * h]) + 1.0
                   : std::log(prior[first + offset % h]) -
                         std::log(prior[first]);
  }
  return lambda;
}

// Every block of `plan` assembles, bit for bit, the problem AssembleProblem
// builds from GenerateInvariants' rows of its buckets followed by its
// request rows, and starts at those rows' RowSourceDual.
void ExpectBlocksMatchGeneratedRows(const BlockPlan& plan,
                                 const std::vector<double>& prior) {
  const TermIndex& index = plan.index();
  const std::vector<LinearConstraint> invariants =
      constraints::GenerateInvariants(plan.table(), index,
                                      plan.invariant_options());
  std::vector<std::vector<const LinearConstraint*>> by_bucket(
      index.num_buckets());
  for (const LinearConstraint& c : invariants) {
    by_bucket[index.TermOf(c.vars.front()).bucket].push_back(&c);
  }
  ASSERT_FALSE(plan.blocks().empty());
  for (const PlanBlock& block : plan.blocks()) {
    std::vector<const LinearConstraint*> rows;
    for (const uint32_t b : block.buckets) {
      rows.insert(rows.end(), by_bucket[b].begin(), by_bucket[b].end());
    }
    ASSERT_EQ(rows.size(), block.num_table_rows);
    rows.insert(rows.end(), block.rows.begin(), block.rows.end());
    const MaxEntProblem expected =
        AssembleProblem(block.cols.size(), rows,
                        block.num_table_rows + block.num_eq,
                        [&](uint32_t var) {
                          return static_cast<uint32_t>(
                              std::lower_bound(block.cols.begin(),
                                               block.cols.end(), var) -
                              block.cols.begin());
                        })
            .ValueOrDie();
    const MaxEntProblem actual = AssembleBlock(plan, block).ValueOrDie();
    EXPECT_EQ(actual.num_vars, expected.num_vars);
    EXPECT_EQ(actual.num_eq, expected.num_eq);
    EXPECT_EQ(actual.a.rows(), expected.a.rows());
    EXPECT_EQ(actual.a.cols(), expected.a.cols());
    EXPECT_EQ(actual.a.row_offsets(), expected.a.row_offsets());
    EXPECT_EQ(actual.a.col_indices(), expected.a.col_indices());
    EXPECT_EQ(actual.a.values(), expected.a.values());
    EXPECT_EQ(actual.rhs, expected.rhs);
    EXPECT_EQ(BlockStart(plan, block, prior),
              RowSourceDual(index, prior, rows));
  }
}

TEST_F(SynthStartTest, BlockProblemsMatchTheirGeneratedRows) {
  // The first mined rules, which couple several blocks; some turn into
  // <= and >= statements, so blocks hold both row kinds after their
  // invariant rows.
  ASSERT_GE(pipeline_->rules.size(), 8u);
  knowledge::KnowledgeBase rules;
  rules.AddRules({pipeline_->rules.begin(), pipeline_->rules.begin() + 8});
  knowledge::KnowledgeBase kb;
  for (auto stmt : rules.conditionals()) {
    if (kb.size() % 3 == 1) stmt.rel = Relation::kLe;
    if (kb.size() % 3 == 2) stmt.rel = Relation::kGe;
    kb.Add(std::move(stmt));
  }
  const auto& table = artifact().table();
  const auto compiled =
      constraints::CompileKnowledge(kb, table, artifact().index(),
                                    artifact().qi_encoder())
          .ValueOrDie();
  const std::vector<double>& prior = artifact().closed_form_prior();
  for (const bool drop : {false, true}) {
    constraints::InvariantOptions options;
    options.drop_redundant_row = drop;
    for (const bool one_block : {false, true}) {
      SCOPED_TRACE(std::string(drop ? "drop" : "keep") +
                   (one_block ? ", one block" : ", decomposed"));
      const BlockPlan plan =
          BlockPlan::Build(table, artifact().index(), options,
                           compiled.constraints, one_block);
      ASSERT_EQ(plan.blocks().size() > 1, !one_block);
      ExpectBlocksMatchGeneratedRows(plan, prior);
    }
  }
}

TEST(BlockAssemblyTest, Figure1BlockProblemsMatchTheirGeneratedRows) {
  // Figure 1's b1 repeats a QI value and an SA value, so its invariant
  // rows and its start differ from row to row.
  const auto t = pme::testing::MakeFigure1Table();
  const auto index = TermIndex::Build(t);
  const auto knowledge =
      constraints::CompileKnowledge(Figure1Knowledge(0.5), t, index)
          .ValueOrDie()
          .constraints;
  const std::vector<double> prior = ClosedFormNoKnowledge(t, index);
  for (const bool drop : {false, true}) {
    constraints::InvariantOptions options;
    options.drop_redundant_row = drop;
    for (const bool one_block : {false, true}) {
      SCOPED_TRACE(std::string(drop ? "drop" : "keep") +
                   (one_block ? ", one block" : ", decomposed"));
      ExpectBlocksMatchGeneratedRows(
          BlockPlan::Build(t, index, options, knowledge, one_block), prior);
    }
  }
}

TEST(ClosedFormStartTest, PresolvedZeroKeepsAnExactStartOnTheRowsLeft) {
  // P(s1 | q4) = 0 fixes every (q4, s1) cell; presolve drops that row
  // and shortens the QI and SA rows through those cells. The start
  // reaches the reduced dual through the row map, so every surviving
  // invariant row that lost no cell still holds there.
  const auto t = pme::testing::MakeFigure1Table();
  const auto index = TermIndex::Build(t);
  const auto system = Figure1System(t, index, Figure1Knowledge(0.0));
  const std::vector<double> prior = ClosedFormNoKnowledge(t, index);
  const BlockPlan plan = BlockPlan::Build(t, index, system).ValueOrDie();
  const PlanBlock* block = nullptr;
  for (const PlanBlock& b : plan.blocks()) {
    if (b.num_rows() > (block == nullptr ? 0 : block->num_rows())) {
      block = &b;
    }
  }
  ASSERT_NE(block, nullptr);
  const MaxEntProblem problem = BlockProblem(plan, *block);
  const PresolvedProblem pre = Presolve(problem).ValueOrDie();
  ASSERT_GT(pre.num_fixed, 0u);
  const std::vector<double> start = BlockStart(plan, *block, prior);
  std::vector<double> reduced_start(pre.reduced.a.rows(), 0.0);
  for (size_t r = 0; r < start.size(); ++r) {
    if (pre.row_map[r] >= 0) reduced_start[pre.row_map[r]] = start[r];
  }
  const std::vector<double> grad = GradientAt(pre.reduced, reduced_start);
  size_t exact_rows = 0;
  size_t shortened_rows = 0;
  const auto& offsets = problem.a.row_offsets();
  const auto& cols = problem.a.col_indices();
  for (size_t r = 0; r < block->num_table_rows; ++r) {
    if (pre.row_map[r] < 0) continue;
    const bool lost_a_cell =
        std::any_of(cols.begin() + offsets[r], cols.begin() + offsets[r + 1],
                    [&](uint32_t col) { return pre.var_map[col] < 0; });
    if (lost_a_cell) {
      ++shortened_rows;
      continue;
    }
    ++exact_rows;
    EXPECT_LE(std::fabs(grad[pre.row_map[r]]), 1e-15) << "row " << r;
  }
  EXPECT_GT(exact_rows, 0u);
  EXPECT_GT(shortened_rows, 0u);

  // Solve carries the same start in: with no iteration to run, its dual
  // is the start on every row presolve kept and 0 on the rest (the start
  // of a <= row is 0, inside the sign box).
  SolverOptions options;
  options.warm_start = &start;
  options.max_iterations = 0;
  const SolverResult result = Solve(problem, options).ValueOrDie();
  ASSERT_EQ(result.dual_lambda_full.size(), start.size());
  for (size_t r = 0; r < start.size(); ++r) {
    EXPECT_EQ(result.dual_lambda_full[r], pre.row_map[r] >= 0 ? start[r] : 0.0)
        << "row " << r;
  }
}

TEST(ClosedFormStartTest, WarmHitStartsAtTheCachedMultipliers) {
  // The toggled block's start is the cached dual row for row, with the
  // toggled statement's row at 0.
  const auto t = pme::testing::MakeFigure1Table();
  const auto index = TermIndex::Build(t);
  const std::vector<double> prior = ClosedFormNoKnowledge(t, index);
  const auto seeded_system = Figure1System(t, index, Figure1Knowledge(0.5));
  const auto toggled_system = Figure1System(t, index, Figure1Knowledge(0.51));
  SolutionCache cache;
  SolverOptions options;
  options.solution_cache = &cache;
  ASSERT_TRUE(SolveDecomposed(t, index, seeded_system, options).ok());

  BlockPlan seeded_plan =
      BlockPlan::Build(t, index, seeded_system).ValueOrDie();
  seeded_plan.ConsultCache(options);
  BlockPlan toggled_plan =
      BlockPlan::Build(t, index, toggled_system).ValueOrDie();
  toggled_plan.ConsultCache(options);
  ASSERT_EQ(toggled_plan.cache_warm_hits(), 1u);
  size_t warm_blocks = 0;
  for (size_t i = 0; i < toggled_plan.blocks().size(); ++i) {
    const PlanBlock& before = seeded_plan.blocks()[i];
    const PlanBlock& after = toggled_plan.blocks()[i];
    if (after.warm_start.empty()) continue;
    ++warm_blocks;
    ASSERT_NE(before.cached, nullptr);
    std::vector<double> expected = before.cached->lambda_full;
    const MaxEntProblem before_problem = BlockProblem(seeded_plan, before);
    const MaxEntProblem after_problem = BlockProblem(toggled_plan, after);
    ASSERT_EQ(expected.size(), after_problem.a.rows());
    size_t new_rows = 0;
    for (size_t j = 0; j < after_problem.a.rows(); ++j) {
      if (after_problem.rhs[j] != before_problem.rhs[j]) {
        expected[j] = 0.0;
        ++new_rows;
      }
    }
    EXPECT_EQ(new_rows, 1u);
    const std::vector<double> start = BlockStart(toggled_plan, after, prior);
    EXPECT_EQ(start, expected);
    EXPECT_NE(start, ClosedFormDual(toggled_plan, after, prior));
  }
  EXPECT_EQ(warm_blocks, 1u);
}

TEST(CacheIsolationTest, SameLayoutWithOtherCountsNeitherHitsNorWarms) {
  // A second table with Figure 1's buckets, QI and SA sets — so the same
  // variables and the same knowledge rows — but other QI counts in b1.
  // Under one cache and one (zero) namespace its block must not be
  // answered, or warm-started, by the first table's solve.
  const auto first_table = pme::testing::MakeFigure1Table();
  const auto second_table =
      anonymize::BucketizedTable::Create(
          {{kQ1, kS2, 0}, {kQ2, kS3, 0}, {kQ2, kS1, 0}, {kQ3, kS2, 0},
           {kQ1, pme::testing::kS4, 1}, {kQ3, kS3, 1},
           {pme::testing::kQ4, kS1, 1}, {kQ2, pme::testing::kS4, 2},
           {pme::testing::kQ5, pme::testing::kS5, 2},
           {pme::testing::kQ6, kS2, 2}})
          .ValueOrDie();
  const auto first_index = TermIndex::Build(first_table);
  const auto second_index = TermIndex::Build(second_table);
  ASSERT_EQ(first_index.num_variables(), second_index.num_variables());
  for (uint32_t b = 0; b < first_index.num_buckets(); ++b) {
    ASSERT_EQ(first_index.BucketRange(b), second_index.BucketRange(b));
  }
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.5));
  const auto first_system = Figure1System(first_table, first_index, kb);
  const auto second_system = Figure1System(second_table, second_index, kb);
  ASSERT_EQ(first_system.size(), second_system.size());
  const auto& first_rows = first_system.constraints();
  const auto& second_rows = second_system.constraints();
  EXPECT_EQ(constraints::ConstraintRowSignature(first_rows.back()),
            constraints::ConstraintRowSignature(second_rows.back()));

  SolutionCache cache;
  SolverOptions options;
  options.solution_cache = &cache;
  ASSERT_EQ(options.cache_namespace, Hash128{});
  ASSERT_TRUE(
      SolveDecomposed(first_table, first_index, first_system, options).ok());

  // The first table's own plan hits; the second table's does not.
  BlockPlan again =
      BlockPlan::Build(first_table, first_index, first_system).ValueOrDie();
  again.ConsultCache(options);
  EXPECT_EQ(again.cache_exact_hits(), again.blocks().size());
  BlockPlan other =
      BlockPlan::Build(second_table, second_index, second_system)
          .ValueOrDie();
  other.ConsultCache(options);
  ASSERT_FALSE(other.blocks().empty());
  EXPECT_EQ(other.cache_exact_hits(), 0u);
  EXPECT_EQ(other.cache_warm_hits(), 0u);
  for (const PlanBlock& block : other.blocks()) {
    EXPECT_EQ(block.cached, nullptr);
    EXPECT_TRUE(block.warm_start.empty());
    EXPECT_NE(block.vars_key, again.blocks()[0].vars_key);
  }

  // So its solve through the shared cache is a fresh solve.
  const auto shared =
      SolveDecomposed(second_table, second_index, second_system, options)
          .ValueOrDie();
  const auto fresh =
      SolveDecomposed(second_table, second_index, second_system, {})
          .ValueOrDie();
  EXPECT_EQ(shared.cache_exact_hits, 0u);
  EXPECT_EQ(shared.cache_warm_hits, 0u);
  EXPECT_EQ(shared.iterations, fresh.iterations);
  EXPECT_EQ(shared.p, fresh.p);
}

// -------------------------------------------------- Solver edge cases

TEST(SolverTest, CacheModeNamesRoundTrip) {
  for (CacheMode mode :
       {CacheMode::kOff, CacheMode::kExact, CacheMode::kWarm}) {
    auto parsed = ParseCacheMode(CacheModeToString(mode));
    ASSERT_TRUE(parsed.ok()) << CacheModeToString(mode);
    EXPECT_EQ(parsed.value(), mode);
  }
  for (const char* name : {"on", "Warm", "cold", ""}) {
    EXPECT_EQ(ParseCacheMode(name).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(SolverTest, EmptyProblemIsTriviallySolved) {
  ConstraintSystem system(0);
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.p.empty());
}

TEST(SolverTest, ReportsIterationsAndTime) {
  auto result = Solve(SimplexProblem(8)).ValueOrDie();
  EXPECT_GT(result.iterations, 0u);
  EXPECT_GE(result.seconds, 0.0);
}

TEST(SolverTest, PresolveOffStillSolvesSmoothProblems) {
  SolverOptions options;
  options.presolve = false;
  auto result = Solve(SimplexProblem(4), options).ValueOrDie();
  for (double v : result.p) EXPECT_NEAR(v, 0.25, 1e-7);
  EXPECT_EQ(result.presolve_fixed, 0u);
}

TEST(SolverTest, RandomFeasibleSystemsConverge) {
  // Random marginal-style systems built from a random ground truth are
  // always feasible; LBFGS must drive the violation below tolerance.
  Prng prng(99);
  for (int trial = 0; trial < 15; ++trial) {
    const size_t rows = 3, cols = 4;
    // Ground-truth joint over a rows x cols grid.
    std::vector<double> joint(rows * cols);
    double total = 0.0;
    for (auto& v : joint) {
      v = prng.NextDouble(0.01, 1.0);
      total += v;
    }
    for (auto& v : joint) v /= total;
    ConstraintSystem system(rows * cols);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<uint32_t> vars;
      double rhs = 0.0;
      for (size_t c = 0; c < cols; ++c) {
        vars.push_back(static_cast<uint32_t>(r * cols + c));
        rhs += joint[r * cols + c];
      }
      system.Add(Eq(vars, rhs));
    }
    for (size_t c = 0; c < cols; ++c) {
      std::vector<uint32_t> vars;
      double rhs = 0.0;
      for (size_t r = 0; r < rows; ++r) {
        vars.push_back(static_cast<uint32_t>(r * cols + c));
        rhs += joint[r * cols + c];
      }
      system.Add(Eq(vars, rhs));
    }
    auto problem = BuildProblem(system).ValueOrDie();
    auto result = Solve(problem).ValueOrDie();
    EXPECT_LT(result.max_violation, 1e-7);
    // MaxEnt with marginal constraints = independent product.
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        double row_sum = 0.0, col_sum = 0.0;
        for (size_t cc = 0; cc < cols; ++cc) row_sum += joint[r * cols + cc];
        for (size_t rr = 0; rr < rows; ++rr) col_sum += joint[rr * cols + c];
        EXPECT_NEAR(result.p[r * cols + c], row_sum * col_sum, 1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace pme::maxent
