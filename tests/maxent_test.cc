// Tests for src/maxent: the dual function (against finite differences),
// presolve, every solver on analytically solvable problems, the
// consistency theorem (Theorem 5), solver agreement, decomposition
// (Section 5.5), and the inequality extension.

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"
#include "common/prng.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/system.h"
#include "maxent/closed_form.h"
#include "maxent/decomposed.h"
#include "maxent/dual.h"
#include "maxent/problem.h"
#include "maxent/solver.h"
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
  ASSERT_EQ(pre.reduced.eq_rhs.size(), 1u);
  EXPECT_NEAR(pre.reduced.eq_rhs[0], 0.7, 1e-12);  // 1.0 - 0.3
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
  // is asserted exactly.
  MaxEntProblem problem;
  problem.num_vars = 7;
  problem.eq = linalg::SparseMatrix::FromDense({
      {1, 1, 0, 0, 0, 0, 0},    // E0: p0 + p1 = 0       -> zero forcing
      {0, 0, 2, 0, 0, 0, 0},    // E1: 2 p2 = 0.5        -> pins p2 = 0.25
      {0, 1, 1, 1, 1, 0, 0},    // E2: p1..p4 = 1        -> p3 + p4 = 0.75
      {0, 0, 0, 0, 0.5, 0, 3},  // E3: 0.5 p4 + 3 p6 = 0.875, untouched
  });
  problem.eq_rhs = {0.0, 0.5, 1.0, 0.875};
  problem.ineq = linalg::SparseMatrix::FromDense({
      {0, 0, 1, 0, 0, 1, 0},   // I0: p2 + p5 <= 0.25  -> p5 <= 0, forces p5
      {0, 0, 0, 1, 0, 1, 1},   // I1: p3 + p5 + p6 <= 0.75
      {0, 0, 0, 0, -1, 0, 0},  // I2: -p4 <= -0.125, untouched
  });
  problem.ineq_rhs = {0.25, 0.75, -0.125};

  const PresolvedProblem pre = Presolve(problem).ValueOrDie();

  // p0, p1, p2, p5 are fixed; p3, p4, p6 survive as reduced 0, 1, 2.
  EXPECT_EQ(pre.num_fixed, 4u);
  EXPECT_EQ(pre.var_map, (std::vector<int64_t>{-1, -1, -1, 0, 1, -1, 2}));
  EXPECT_EQ(pre.fixed_values,
            (std::vector<double>{0, 0, 0.25, 0, 0, 0, 0}));
  EXPECT_EQ(pre.eq_row_map, (std::vector<int64_t>{-1, -1, 0, 1}));
  EXPECT_EQ(pre.ineq_row_map, (std::vector<int64_t>{-1, 0, 1}));

  const MaxEntProblem& reduced = pre.reduced;
  EXPECT_EQ(reduced.num_vars, 3u);
  ASSERT_EQ(reduced.eq.rows(), 2u);
  EXPECT_EQ(reduced.eq.cols(), 3u);
  EXPECT_EQ(reduced.eq.row_offsets(), (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(reduced.eq.col_indices(), (std::vector<uint32_t>{0, 1, 1, 2}));
  EXPECT_EQ(reduced.eq.values(), (std::vector<double>{1, 1, 0.5, 3}));
  EXPECT_EQ(reduced.eq_rhs, (std::vector<double>{0.75, 0.875}));

  ASSERT_EQ(reduced.ineq.rows(), 2u);
  EXPECT_EQ(reduced.ineq.cols(), 3u);
  EXPECT_EQ(reduced.ineq.row_offsets(), (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(reduced.ineq.col_indices(), (std::vector<uint32_t>{0, 2, 1}));
  EXPECT_EQ(reduced.ineq.values(), (std::vector<double>{1, 1, -1}));
  EXPECT_EQ(reduced.ineq_rhs, (std::vector<double>{0.75, -0.125}));

  EXPECT_EQ(pre.Restore({0.5, 0.25, 0.125}),
            (std::vector<double>{0, 0, 0.25, 0.5, 0.25, 0, 0.125}));
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

// -------------------------------------------------- All-solver agreement

class AllSolversTest : public ::testing::TestWithParam<SolverKind> {};

TEST_P(AllSolversTest, UniformOnSimplex) {
  auto result = Solve(SimplexProblem(6), GetParam()).ValueOrDie();
  for (double v : result.p) EXPECT_NEAR(v, 1.0 / 6, 1e-6);
}

TEST_P(AllSolversTest, Figure1WithKnowledgeAgreesWithLbfgs) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.5));
  auto compiled =
      constraints::CompileKnowledge(kb, t, index).ValueOrDie();
  system.AddAll(std::move(compiled.constraints));
  auto problem = BuildProblem(system).ValueOrDie();

  SolverOptions options;
  options.max_iterations = 5000;
  auto reference = Solve(problem, SolverKind::kLbfgs, options).ValueOrDie();
  auto result = Solve(problem, GetParam(), options).ValueOrDie();
  EXPECT_LT(result.max_violation, 1e-6);
  for (size_t i = 0; i < reference.p.size(); ++i) {
    EXPECT_NEAR(result.p[i], reference.p[i], Tolerance::kCrossSolver)
        << "var " << i << " solver " << SolverKindToString(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, AllSolversTest,
    ::testing::Values(SolverKind::kLbfgs, SolverKind::kGis, SolverKind::kIis,
                      SolverKind::kSteepest, SolverKind::kNewton),
    [](const ::testing::TestParamInfo<SolverKind>& info) {
      return SolverKindToString(info.param);
    });

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

  auto stats = AnalyzeDecomposition(index, system);
  EXPECT_EQ(stats.relevant_buckets, 2u);
  EXPECT_EQ(stats.irrelevant_buckets, 1u);
  EXPECT_EQ(stats.relevant_variables, 18u);
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

// -------------------------------------------------- Solver edge cases

TEST(SolverTest, GisRejectsNegativeCoefficients) {
  ConstraintSystem system(2);
  LinearConstraint c;
  c.vars = {0, 1};
  c.coefs = {1.0, -1.0};
  c.rhs = 0.1;
  system.Add(c);
  system.Add(Eq({0, 1}, 1.0));
  auto problem = BuildProblem(system).ValueOrDie();
  auto r = Solve(problem, SolverKind::kGis);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolverTest, NewtonRefusesHugeDuals) {
  SolverOptions options;
  options.newton_max_dim = 0;
  auto r = Solve(SimplexProblem(3), SolverKind::kNewton, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
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
  EXPECT_EQ(result.kind, SolverKind::kLbfgs);
}

TEST(SolverTest, PresolveOffStillSolvesSmoothProblems) {
  SolverOptions options;
  options.presolve = false;
  auto result = Solve(SimplexProblem(4), SolverKind::kLbfgs, options)
                    .ValueOrDie();
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
