// Tests for src/maxent: the dual function (against finite differences),
// presolve, the solver on analytically solvable problems, the
// consistency theorem (Theorem 5), equality/inequality agreement,
// decomposition (Section 5.5), and the inequality extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/math_util.h"
#include "common/prng.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/system.h"
#include "core/experiment.h"
#include "core/table_artifact.h"
#include "knowledge/miner.h"
#include "maxent/block_plan.h"
#include "maxent/closed_form.h"
#include "maxent/decomposed.h"
#include "maxent/dual.h"
#include "maxent/problem.h"
#include "maxent/solution_cache.h"
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

// ---------------------------------------------------- Closed-form start

bool IsInvariant(const LinearConstraint& c) {
  return c.source == constraints::ConstraintSource::kQiInvariant ||
         c.source == constraints::ConstraintSource::kSaInvariant;
}

// The problem of `block`, as SolveDecomposed assembles it.
MaxEntProblem BlockProblem(const PlanBlock& block) {
  return AssembleProblem(block.cols.size(), block.rows, block.num_eq,
                         [&](uint32_t var) {
                           return static_cast<uint32_t>(
                               std::lower_bound(block.cols.begin(),
                                                block.cols.end(), var) -
                               block.cols.begin());
                         })
      .ValueOrDie();
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
    ASSERT_EQ(start, ClosedFormDual(plan.index(), prior, block.rows));
    const std::vector<double> grad = GradientAt(BlockProblem(block), start);
    size_t invariant_rows = 0;
    for (size_t j = 0; j < block.rows.size(); ++j) {
      const LinearConstraint& c = *block.rows[j];
      if (IsInvariant(c)) {
        ++invariant_rows;
        EXPECT_LE(std::fabs(grad[j]), 1e-15) << "row " << j;
        continue;
      }
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
  ExpectClosedFormStart(BlockPlan::Build(index, system), prior);
  ExpectClosedFormStart(BlockPlan::Build(index, nullptr, nullptr,
                                         system.constraints(),
                                         /*one_block=*/true),
                        prior);
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
    return BlockPlan::Build(artifact().index(), &artifact().invariants(),
                            &artifact().invariant_rows_by_bucket(),
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

TEST(ClosedFormStartTest, PresolvedZeroKeepsAnExactStartOnTheRowsLeft) {
  // P(s1 | q4) = 0 fixes every (q4, s1) cell; presolve drops that row
  // and shortens the QI and SA rows through those cells. The start
  // reaches the reduced dual through the row map, so every surviving
  // invariant row that lost no cell still holds there.
  const auto t = pme::testing::MakeFigure1Table();
  const auto index = TermIndex::Build(t);
  const auto system = Figure1System(t, index, Figure1Knowledge(0.0));
  const std::vector<double> prior = ClosedFormNoKnowledge(t, index);
  const BlockPlan plan = BlockPlan::Build(index, system);
  const PlanBlock* block = nullptr;
  for (const PlanBlock& b : plan.blocks()) {
    if (b.rows.size() > (block == nullptr ? 0 : block->rows.size())) {
      block = &b;
    }
  }
  ASSERT_NE(block, nullptr);
  const MaxEntProblem problem = BlockProblem(*block);
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
  for (size_t r = 0; r < block->rows.size(); ++r) {
    const LinearConstraint& c = *block->rows[r];
    if (!IsInvariant(c) || pre.row_map[r] < 0) continue;
    const bool lost_a_cell =
        std::any_of(c.vars.begin(), c.vars.end(), [&](uint32_t var) {
          const size_t col = static_cast<size_t>(
              std::lower_bound(block->cols.begin(), block->cols.end(), var) -
              block->cols.begin());
          return pre.var_map[col] < 0;
        });
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

  BlockPlan seeded_plan = BlockPlan::Build(index, seeded_system);
  seeded_plan.ConsultCache(options);
  BlockPlan toggled_plan = BlockPlan::Build(index, toggled_system);
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
    ASSERT_EQ(expected.size(), after.rows.size());
    size_t new_rows = 0;
    for (size_t j = 0; j < after.rows.size(); ++j) {
      if (after.rows[j]->rhs != before.rows[j]->rhs) {
        expected[j] = 0.0;
        ++new_rows;
      }
    }
    EXPECT_EQ(new_rows, 1u);
    const std::vector<double> start = BlockStart(toggled_plan, after, prior);
    EXPECT_EQ(start, expected);
    EXPECT_NE(start, ClosedFormDual(index, prior, after.rows));
  }
  EXPECT_EQ(warm_blocks, 1u);
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
