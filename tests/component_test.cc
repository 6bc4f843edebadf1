// Tests for the connected-component block decomposition: the union-find
// bucket partition (constraints::ComponentAnalysis), the block-decomposed
// parallel solver, randomized agreement with the monolithic solve, and
// thread-count determinism.

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"
#include "common/prng.h"
#include "common/vec_math.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/constraint.h"
#include "constraints/term_index.h"
#include "maxent/decomposed.h"
#include "maxent/problem.h"
#include "maxent/solver.h"
#include "tests/support/component_analysis.h"
#include "tests/test_util.h"

namespace pme {
namespace {

using anonymize::AbstractRecord;
using anonymize::BucketizedTable;
using constraints::ComponentAnalysis;
using constraints::LinearConstraint;
using constraints::TermIndex;
using pme::testing::kQ3;
using pme::testing::kQ4;
using pme::testing::kQ5;
using pme::testing::kS1;
using pme::testing::kS3;
using pme::testing::kS5;
using pme::testing::SolveTable;

/// The whole table's rows: its invariant rows, then `knowledge`.
std::vector<LinearConstraint> WholeSystem(
    const BucketizedTable& t, const TermIndex& index,
    const std::vector<LinearConstraint>& knowledge) {
  std::vector<LinearConstraint> rows =
      constraints::GenerateInvariants(t, index);
  rows.insert(rows.end(), knowledge.begin(), knowledge.end());
  return rows;
}

void AddConditional(const BucketizedTable& t, const TermIndex& index,
                    std::vector<LinearConstraint>* rows, uint32_t q,
                    uint32_t s, double value) {
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(q, {s}, value));
  auto compiled = constraints::CompileKnowledge(kb, t, index).ValueOrDie();
  rows->insert(rows->end(), compiled.constraints.begin(),
               compiled.constraints.end());
}

// ------------------------------------------------------ ComponentAnalysis

TEST(ComponentAnalysisTest, NoKnowledgeYieldsSingletonFreeComponents) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  std::vector<LinearConstraint> knowledge;
  auto analysis =
      ComponentAnalysis::Build(index, WholeSystem(t, index, knowledge));

  // Invariants never couple buckets: every bucket is its own component
  // and none needs the iterative solver.
  EXPECT_EQ(analysis.num_components(), t.num_buckets());
  EXPECT_EQ(analysis.num_coupled(), 0u);
  for (uint32_t b = 0; b < t.num_buckets(); ++b) {
    const auto& comp = analysis.components()[analysis.ComponentOf(b)];
    EXPECT_EQ(comp.buckets, std::vector<uint32_t>{b});
    EXPECT_FALSE(comp.coupled);
    const auto [first, last] = index.BucketRange(b);
    EXPECT_EQ(comp.num_variables, static_cast<size_t>(last - first));
  }
}

TEST(ComponentAnalysisTest, KnowledgeMergesBucketsSharingItsSupport) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  std::vector<LinearConstraint> knowledge;
  // q3 occurs in buckets 0 and 1: one statement about q3 couples them.
  AddConditional(t, index, &knowledge, kQ3, kS3, 0.5);
  auto analysis =
      ComponentAnalysis::Build(index, WholeSystem(t, index, knowledge));

  EXPECT_EQ(analysis.num_components(), 2u);
  EXPECT_EQ(analysis.num_coupled(), 1u);
  EXPECT_EQ(analysis.ComponentOf(0), analysis.ComponentOf(1));
  EXPECT_NE(analysis.ComponentOf(0), analysis.ComponentOf(2));
  const auto& coupled = analysis.components()[analysis.ComponentOf(0)];
  EXPECT_TRUE(coupled.coupled);
  EXPECT_EQ(coupled.buckets, (std::vector<uint32_t>{0, 1}));
  EXPECT_FALSE(analysis.components()[analysis.ComponentOf(2)].coupled);
}

TEST(ComponentAnalysisTest, DisjointKnowledgeYieldsIndependentBlocks) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  std::vector<LinearConstraint> knowledge;
  // q4 occurs only in bucket 1, q5 only in bucket 2: two independent
  // coupled blocks, and bucket 0 stays closed-form.
  AddConditional(t, index, &knowledge, kQ4, kS1, 0.9);
  AddConditional(t, index, &knowledge, kQ5, kS5, 0.8);
  auto analysis =
      ComponentAnalysis::Build(index, WholeSystem(t, index, knowledge));

  EXPECT_EQ(analysis.num_components(), 3u);
  EXPECT_EQ(analysis.num_coupled(), 2u);
  EXPECT_FALSE(analysis.components()[analysis.ComponentOf(0)].coupled);
  EXPECT_TRUE(analysis.components()[analysis.ComponentOf(1)].coupled);
  EXPECT_TRUE(analysis.components()[analysis.ComponentOf(2)].coupled);
  EXPECT_NE(analysis.ComponentOf(1), analysis.ComponentOf(2));
}

TEST(ComponentAnalysisTest, StatsReportComponentCensus) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  std::vector<LinearConstraint> knowledge;
  AddConditional(t, index, &knowledge, kQ4, kS1, 0.9);
  auto stats = maxent::AnalyzeDecomposition(
      maxent::BlockPlan::Build(t, index, {}, knowledge));

  EXPECT_EQ(stats.num_components, 3u);
  EXPECT_EQ(stats.num_coupled_components, 1u);
  EXPECT_EQ(stats.relevant_buckets, 1u);
  EXPECT_EQ(stats.irrelevant_buckets, 2u);
  ASSERT_EQ(stats.coupled_component_variables.size(), 1u);
  EXPECT_EQ(stats.coupled_component_variables[0], stats.relevant_variables);
  EXPECT_EQ(stats.total_variables, index.num_variables());
}

// -------------------------------------------- Block solves vs monolithic

TEST(SolveDecomposedTest, IndependentBlocksMatchMonolithicSolve) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  std::vector<LinearConstraint> knowledge;
  AddConditional(t, index, &knowledge, kQ4, kS1, 0.9);
  AddConditional(t, index, &knowledge, kQ5, kS5, 0.8);

  auto problem = maxent::BuildProblem(index.num_variables(),
                                      WholeSystem(t, index, knowledge))
                     .ValueOrDie();
  auto mono = maxent::Solve(problem).ValueOrDie();
  auto block = SolveTable(t, index, knowledge).ValueOrDie();
  ASSERT_EQ(block.p.size(), mono.p.size());
  for (size_t i = 0; i < mono.p.size(); ++i) {
    EXPECT_NEAR(block.p[i], mono.p[i], 1e-6) << index.TermName(i, t);
  }
  EXPECT_LT(block.max_violation, 1e-7);
}

TEST(SolveDecomposedTest, InequalityRowsSliceIntoTheRightBlock) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  std::vector<LinearConstraint> knowledge;

  // A hand-made inequality on bucket 1 plus an equality on bucket 2:
  // two coupled blocks, one of which has a ≤ row in its box-constrained dual.
  const auto [b1_first, b1_last] = index.BucketRange(1);
  (void)b1_last;
  LinearConstraint le;
  le.vars = {b1_first};
  le.coefs = {1.0};
  le.rel = knowledge::Relation::kLe;
  le.rhs = 0.02;
  le.source = constraints::ConstraintSource::kBackground;
  le.label = "test-le";
  knowledge.push_back(le);
  AddConditional(t, index, &knowledge, kQ5, kS5, 0.8);

  auto problem = maxent::BuildProblem(index.num_variables(),
                                      WholeSystem(t, index, knowledge))
                     .ValueOrDie();
  auto mono = maxent::Solve(problem).ValueOrDie();
  auto block = SolveTable(t, index, knowledge).ValueOrDie();
  for (size_t i = 0; i < mono.p.size(); ++i) {
    EXPECT_NEAR(block.p[i], mono.p[i], 1e-5) << index.TermName(i, t);
  }
  EXPECT_LT(block.max_violation, 1e-6);
}

// ------------------------------------------------- Randomized agreement

/// (num_buckets, bucket_size, qi_pool, sa_pool, seed), as in
/// property_test.cc.
BucketizedTable RandomTable(int buckets, int size, int qi_pool, int sa_pool,
                            int seed) {
  Prng prng(static_cast<uint64_t>(seed) * 7919 + 13);
  std::vector<AbstractRecord> records;
  for (int b = 0; b < buckets; ++b) {
    for (int r = 0; r < size; ++r) {
      AbstractRecord rec;
      rec.qi = static_cast<uint32_t>(prng.NextBounded(qi_pool));
      rec.sa = static_cast<uint32_t>(prng.NextBounded(sa_pool));
      rec.bucket = static_cast<uint32_t>(b);
      records.push_back(rec);
    }
  }
  std::vector<int64_t> qi_map(qi_pool, -1), sa_map(sa_pool, -1);
  uint32_t next_qi = 0, next_sa = 0;
  for (auto& rec : records) {
    if (qi_map[rec.qi] < 0) qi_map[rec.qi] = next_qi++;
    if (sa_map[rec.sa] < 0) sa_map[rec.sa] = next_sa++;
    rec.qi = static_cast<uint32_t>(qi_map[rec.qi]);
    rec.sa = static_cast<uint32_t>(sa_map[rec.sa]);
  }
  return BucketizedTable::Create(std::move(records)).ValueOrDie();
}

TEST(SolveDecomposedTest, RandomMultiComponentSystemsAgreeWithMonolithic) {
  // Wide QI pools keep most statements confined to few buckets, so the
  // systems decompose into several independent blocks — the property the
  // block solver must not change the answer under.
  for (int seed = 1; seed <= 6; ++seed) {
    auto t = RandomTable(8, 3, 18, 5, seed);
    auto index = TermIndex::Build(t);
    std::vector<LinearConstraint> knowledge;
    Prng prng(seed * 31 + 7);
    for (int k = 0; k < 4; ++k) {
      const uint32_t q =
          static_cast<uint32_t>(prng.NextBounded(t.num_qi_values()));
      const uint32_t s =
          static_cast<uint32_t>(prng.NextBounded(t.num_sa_values()));
      // True conditionals keep the system feasible for any placement.
      AddConditional(t, index, &knowledge, q, s, t.TrueConditional(q, s));
    }

    auto stats = maxent::AnalyzeDecomposition(
        maxent::BlockPlan::Build(t, index, {}, knowledge));
    EXPECT_GE(stats.num_components, stats.num_coupled_components);

    auto problem = maxent::BuildProblem(index.num_variables(),
                                        WholeSystem(t, index, knowledge))
                       .ValueOrDie();
    auto mono = maxent::Solve(problem).ValueOrDie();
    auto block = SolveTable(t, index, knowledge).ValueOrDie();
    ASSERT_EQ(block.p.size(), mono.p.size());
    double max_diff = 0.0;
    for (size_t i = 0; i < mono.p.size(); ++i) {
      max_diff = std::max(max_diff, std::fabs(block.p[i] - mono.p[i]));
    }
    EXPECT_LT(max_diff, 1e-6) << "seed " << seed;
    EXPECT_LT(block.max_violation, 1e-6) << "seed " << seed;
  }
}

// ------------------------------------------------ Thread-count invariance

TEST(SolveDecomposedTest, ThreadCountDoesNotChangeThePosterior) {
  auto t = RandomTable(10, 3, 24, 6, 42);
  auto index = TermIndex::Build(t);
  std::vector<LinearConstraint> knowledge;
  Prng prng(4242);
  for (int k = 0; k < 6; ++k) {
    const uint32_t q =
        static_cast<uint32_t>(prng.NextBounded(t.num_qi_values()));
    const uint32_t s =
        static_cast<uint32_t>(prng.NextBounded(t.num_sa_values()));
    AddConditional(t, index, &knowledge, q, s, t.TrueConditional(q, s));
  }

  maxent::SolverOptions serial, parallel;
  serial.threads = 1;
  parallel.threads = 8;
  auto a = SolveTable(t, index, knowledge, serial).ValueOrDie();
  auto b = SolveTable(t, index, knowledge, parallel).ValueOrDie();
  ASSERT_EQ(a.p.size(), b.p.size());
  for (size_t i = 0; i < a.p.size(); ++i) {
    // Bitwise identical: the block solves are deterministic and the
    // scatter targets are disjoint, so threading must not perturb them.
    EXPECT_EQ(a.p[i], b.p[i]) << index.TermName(i, t);
  }
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.entropy, b.entropy);
}

// ------------------------------------------------- Fully coupled tables

/// Couples every bucket of the Figure 1 table into one component. The
/// statements are chosen so their *materialized* support really spans
/// buckets (a conditional whose SA occurs in only one of the QI's
/// buckets collapses to a single-bucket constraint after invariant
/// substitution): P(s3 | q1) touches buckets 1-2, and P({s1, s2} | q2)
/// touches buckets 1 and 3.
std::vector<LinearConstraint> FullyCoupledKnowledge(
    const BucketizedTable& t, const TermIndex& index) {
  std::vector<LinearConstraint> rows;
  AddConditional(t, index, &rows, pme::testing::kQ1, kS3,
                 t.TrueConditional(pme::testing::kQ1, kS3));
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(
      pme::testing::kQ2, {kS1, pme::testing::kS2}, 0.5));
  auto compiled = constraints::CompileKnowledge(kb, t, index).ValueOrDie();
  rows.insert(rows.end(), compiled.constraints.begin(),
              compiled.constraints.end());
  return rows;
}

TEST(SolveDecomposedTest, SparseKnowledgeStaysDecomposed) {
  // One conditional touching a single bucket: one coupled block, far
  // smaller than the table.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  std::vector<LinearConstraint> knowledge;
  AddConditional(t, index, &knowledge, kQ5, kS5, 0.8);
  auto decomposed = SolveTable(t, index, knowledge).ValueOrDie();
  ASSERT_EQ(decomposed.component_outcomes.size(), 1u);
  EXPECT_LT(decomposed.component_outcomes[0].num_variables,
            index.num_variables());
}

// ----------------------------------------------- SIMD dispatch parity

TEST(SolveDecomposedTest, SimdOffAndAutoPosteriorsAgree) {
  // Tightly converged solves are where the 1e-10 parity claim is
  // meaningful: with both dispatch paths driving the residual to 1e-12,
  // the remaining posterior difference is pure kernel rounding. (At the
  // default 1e-8 tolerance each mode may stop at a different iterate
  // within tolerance of the optimum — that difference is solver slack,
  // not kernel error; the integration suite covers it separately.)
  auto saved = kernels::GetSimdMode();
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  const auto knowledge = FullyCoupledKnowledge(t, index);
  maxent::SolverOptions options;
  options.tolerance = 1e-12;

  kernels::SetSimdMode(kernels::SimdMode::kOff);
  auto off = SolveTable(t, index, knowledge, options).ValueOrDie();
  kernels::SetSimdMode(kernels::SimdMode::kAuto);
  auto vec = SolveTable(t, index, knowledge, options).ValueOrDie();
  kernels::SetSimdMode(saved);

  EXPECT_TRUE(off.converged);
  EXPECT_TRUE(vec.converged);
  ASSERT_EQ(off.p.size(), vec.p.size());
  for (size_t i = 0; i < off.p.size(); ++i) {
    EXPECT_NEAR(off.p[i], vec.p[i], 1e-10) << index.TermName(i, t);
  }
}

}  // namespace
}  // namespace pme
