// Stress and property suites for the MaxEnt solver stack: presolve
// equivalence, KKT verification for inequality-constrained optima,
// duplicate/redundant-row robustness, and the product form across
// problem scales.

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"
#include "common/prng.h"
#include "constraints/system.h"
#include "maxent/problem.h"
#include "maxent/solver.h"

namespace pme::maxent {
namespace {

using constraints::ConstraintSystem;
using constraints::LinearConstraint;
using knowledge::Relation;

LinearConstraint Row(std::vector<uint32_t> vars, std::vector<double> coefs,
                     Relation rel, double rhs) {
  LinearConstraint c;
  c.vars = std::move(vars);
  c.coefs = std::move(coefs);
  c.rel = rel;
  c.rhs = rhs;
  return c;
}

LinearConstraint Eq(std::vector<uint32_t> vars, double rhs) {
  std::vector<double> coefs(vars.size(), 1.0);
  return Row(std::move(vars), std::move(coefs), Relation::kEq, rhs);
}

/// A random feasible marginal system over an r x c grid with ground truth.
struct GridProblem {
  MaxEntProblem problem;
  std::vector<double> truth;
};

GridProblem MakeGrid(size_t rows, size_t cols, Prng& prng) {
  GridProblem g;
  g.truth.resize(rows * cols);
  double total = 0.0;
  for (auto& v : g.truth) {
    v = prng.NextDouble(0.01, 1.0);
    total += v;
  }
  for (auto& v : g.truth) v /= total;
  ConstraintSystem system(rows * cols);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<uint32_t> vars;
    double rhs = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      vars.push_back(static_cast<uint32_t>(r * cols + c));
      rhs += g.truth[r * cols + c];
    }
    system.Add(Eq(vars, rhs));
  }
  for (size_t c = 0; c < cols; ++c) {
    std::vector<uint32_t> vars;
    double rhs = 0.0;
    for (size_t r = 0; r < rows; ++r) {
      vars.push_back(static_cast<uint32_t>(r * cols + c));
      rhs += g.truth[r * cols + c];
    }
    system.Add(Eq(vars, rhs));
  }
  g.problem = BuildProblem(system).ValueOrDie();
  return g;
}

TEST(SolverStressTest, PresolveOnOffAgree) {
  Prng prng(31);
  for (int trial = 0; trial < 10; ++trial) {
    auto grid = MakeGrid(4, 5, prng);
    SolverOptions with, without;
    with.presolve = true;
    without.presolve = false;
    auto a = Solve(grid.problem, with).ValueOrDie();
    auto b = Solve(grid.problem, without).ValueOrDie();
    for (size_t i = 0; i < a.p.size(); ++i) {
      EXPECT_NEAR(a.p[i], b.p[i], 1e-6);
    }
  }
}

TEST(SolverStressTest, DuplicateRowsAreHarmless) {
  // Redundant constraints make the dual rank-deficient; the optimum must
  // be unchanged (entropy is strictly concave in p).
  Prng prng(32);
  auto grid = MakeGrid(3, 4, prng);
  auto baseline = Solve(grid.problem).ValueOrDie();

  ConstraintSystem doubled(grid.problem.num_vars);
  // Reconstruct the same constraints twice.
  for (int round = 0; round < 2; ++round) {
    const auto& m = grid.problem.a;
    for (size_t r = 0; r < m.rows(); ++r) {
      LinearConstraint c;
      for (size_t k = m.row_offsets()[r]; k < m.row_offsets()[r + 1]; ++k) {
        c.vars.push_back(m.col_indices()[k]);
        c.coefs.push_back(m.values()[k]);
      }
      c.rhs = grid.problem.rhs[r];
      doubled.Add(std::move(c));
    }
  }
  auto doubled_problem = BuildProblem(doubled).ValueOrDie();
  auto result = Solve(doubled_problem).ValueOrDie();
  for (size_t i = 0; i < baseline.p.size(); ++i) {
    EXPECT_NEAR(result.p[i], baseline.p[i], 1e-6);
  }
}

TEST(SolverStressTest, InequalityKktConditions) {
  // For   max H  s.t.  sum p = 1,  p0 + p1 <= cap:
  // either the cap is slack and the solution is uniform, or it binds and
  // p0 = p1 = cap/2 with the rest uniform on the remaining mass.
  for (double cap : {0.05, 0.2, 0.5, 0.9}) {
    ConstraintSystem system(5);
    system.Add(Eq({0, 1, 2, 3, 4}, 1.0));
    system.Add(Row({0, 1}, {1.0, 1.0}, Relation::kLe, cap));
    auto problem = BuildProblem(system).ValueOrDie();
    auto result = Solve(problem).ValueOrDie();
    const double unconstrained_pair = 2.0 / 5.0;
    if (cap >= unconstrained_pair) {
      for (double v : result.p) EXPECT_NEAR(v, 0.2, 1e-6) << "cap " << cap;
    } else {
      EXPECT_NEAR(result.p[0], cap / 2, 1e-6);
      EXPECT_NEAR(result.p[1], cap / 2, 1e-6);
      for (int i = 2; i < 5; ++i) {
        EXPECT_NEAR(result.p[i], (1.0 - cap) / 3, 1e-6) << "cap " << cap;
      }
    }
  }
}

TEST(SolverStressTest, MixedEqualityInequalityWithZeroForcing) {
  // Zero-forced variables + active inequality + free block, all at once.
  ConstraintSystem system(6);
  system.Add(Eq({0, 1}, 0.0));                             // p0 = p1 = 0
  system.Add(Eq({0, 1, 2, 3, 4, 5}, 1.0));                 // total mass
  system.Add(Row({2}, {1.0}, Relation::kLe, 0.1));         // cap p2
  system.Add(Row({3}, {1.0}, Relation::kGe, 0.4));         // floor p3
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_NEAR(result.p[0], 0.0, 1e-9);
  EXPECT_NEAR(result.p[1], 0.0, 1e-9);
  EXPECT_NEAR(result.p[2], 0.1, 1e-5);
  EXPECT_NEAR(result.p[3], 0.4, 1e-5);
  EXPECT_NEAR(result.p[4], 0.25, 1e-5);
  EXPECT_NEAR(result.p[5], 0.25, 1e-5);
}

class GridScaleTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GridScaleTest, AllScalesReachProductForm) {
  const auto [rows, cols, seed] = GetParam();
  Prng prng(static_cast<uint64_t>(seed));
  auto grid = MakeGrid(rows, cols, prng);
  auto result = Solve(grid.problem).ValueOrDie();
  EXPECT_TRUE(result.converged);
  // MaxEnt subject to both marginals is the product of the marginals.
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      double row_sum = 0.0, col_sum = 0.0;
      for (int cc = 0; cc < cols; ++cc) row_sum += grid.truth[r * cols + cc];
      for (int rr = 0; rr < rows; ++rr) col_sum += grid.truth[rr * cols + c];
      EXPECT_NEAR(result.p[r * cols + c], row_sum * col_sum, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scales, GridScaleTest,
    ::testing::Values(std::make_tuple(2, 2, 1), std::make_tuple(5, 3, 2),
                      std::make_tuple(10, 10, 3), std::make_tuple(1, 8, 4),
                      std::make_tuple(20, 5, 5), std::make_tuple(30, 30, 6)));

class ProductFormScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(ProductFormScaleTest, MatchesProductForm) {
  const int size = GetParam();
  Prng prng(static_cast<uint64_t>(size) * 17);
  auto grid = MakeGrid(size, size + 1, prng);
  SolverOptions options;
  options.max_iterations = 50000;
  auto result = Solve(grid.problem, options).ValueOrDie();
  for (int r = 0; r < size; ++r) {
    for (int c = 0; c < size + 1; ++c) {
      double row_sum = 0.0, col_sum = 0.0;
      for (int cc = 0; cc < size + 1; ++cc) {
        row_sum += grid.truth[r * (size + 1) + cc];
      }
      for (int rr = 0; rr < size; ++rr) {
        col_sum += grid.truth[rr * (size + 1) + c];
      }
      EXPECT_NEAR(result.p[r * (size + 1) + c], row_sum * col_sum, 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProductFormScaleTest,
                         ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(SolverStressTest, TinyRhsValuesStayStable) {
  // RHS magnitudes like 1/14210 (paper scale) must not break conditioning.
  ConstraintSystem system(4);
  const double tiny = 1.0 / 14210.0;
  system.Add(Eq({0, 1}, tiny));
  system.Add(Eq({2, 3}, tiny * 3));
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.p[0], tiny / 2, 5e-9);
  EXPECT_NEAR(result.p[2], tiny * 1.5, 5e-9);
}

TEST(SolverStressTest, ManyBlocksScaleLinearly) {
  // 500 independent 2x2 blocks: 2,000 variables, 2,000 constraints. The
  // solve must converge; this guards against accidental O(n^2) behavior
  // in assembly or the solver loop.
  const size_t blocks = 500;
  ConstraintSystem system(blocks * 4);
  for (size_t b = 0; b < blocks; ++b) {
    const uint32_t base = static_cast<uint32_t>(b * 4);
    const double mass = 1.0 / blocks;
    system.Add(Eq({base, base + 1}, mass * 0.6));
    system.Add(Eq({base + 2, base + 3}, mass * 0.4));
    system.Add(Eq({base, base + 2}, mass * 0.5));
    system.Add(Eq({base + 1, base + 3}, mass * 0.5));
  }
  auto problem = BuildProblem(system).ValueOrDie();
  auto result = Solve(problem).ValueOrDie();
  EXPECT_LT(result.max_violation, 1e-7);
}

}  // namespace
}  // namespace pme::maxent
