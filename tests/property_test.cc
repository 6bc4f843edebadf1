// Property-based suites (parameterized over random table shapes): the
// invariant theory (soundness / completeness / conciseness), solver
// consistency, decomposition equivalence, and posterior sanity must hold
// for *every* bucketized table, not just the paper's example.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "anonymize/bucketized_table.h"
#include "common/prng.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/term_index.h"
#include "core/posterior.h"
#include "core/privacy_maxent.h"
#include "maxent/closed_form.h"
#include "maxent/decomposed.h"
#include "maxent/problem.h"
#include "maxent/solver.h"
#include "tests/support/assignment.h"
#include "tests/support/invariant_checks.h"

namespace pme {
namespace {

using anonymize::AbstractRecord;
using anonymize::BucketizedTable;
using constraints::TermIndex;

/// (num_buckets, bucket_size, qi_pool, sa_pool, seed)
using TableShape = std::tuple<int, int, int, int, int>;

BucketizedTable RandomTable(const TableShape& shape) {
  const auto [buckets, size, qi_pool, sa_pool, seed] = shape;
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
  // Instance ids must be dense: remap to first-seen order.
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

class TableProperty : public ::testing::TestWithParam<TableShape> {};

TEST_P(TableProperty, InvariantsSoundUnderRandomAssignments) {
  auto t = RandomTable(GetParam());
  auto index = TermIndex::Build(t);
  auto invariants = constraints::GenerateInvariants(t, index);
  Prng prng(std::get<4>(GetParam()) + 1000);
  for (int trial = 0; trial < 30; ++trial) {
    auto p = constraints::Assignment::Random(t, prng)
                 .TermProbabilities(index);
    EXPECT_LT(constraints::MaxInvariantViolation(invariants, p), 1e-12);
  }
}

TEST_P(TableProperty, ConcisenessRankHolds) {
  auto t = RandomTable(GetParam());
  auto index = TermIndex::Build(t);
  for (uint32_t b = 0; b < t.num_buckets(); ++b) {
    const size_t g = index.BucketQiList(b).size();
    const size_t h = index.BucketSaList(b).size();
    EXPECT_EQ(constraints::BucketInvariantRank(t, index, b), g + h - 1);
  }
}

TEST_P(TableProperty, SingleTermsAreNotInvariantsUnlessForced) {
  // A single probability term lies in the invariant row space only in the
  // degenerate case where the bucket has g == 1 or h == 1 (the term is
  // then pinned by its QI- or SA-invariant).
  auto t = RandomTable(GetParam());
  auto index = TermIndex::Build(t);
  for (uint32_t b = 0; b < t.num_buckets(); ++b) {
    const size_t g = index.BucketQiList(b).size();
    const size_t h = index.BucketSaList(b).size();
    const auto [first, last] = index.BucketRange(b);
    std::vector<double> e(last - first, 0.0);
    e[0] = 1.0;
    const bool in_space = constraints::InRowSpaceOfInvariants(t, index, b, e);
    EXPECT_EQ(in_space, g == 1 || h == 1);
    e[0] = 0.0;
  }
}

TEST_P(TableProperty, NoKnowledgeSolveMatchesClosedForm) {
  auto t = RandomTable(GetParam());
  auto index = TermIndex::Build(t);
  auto problem = maxent::BuildProblem(index.num_variables(),
                                      constraints::GenerateInvariants(t, index))
                     .ValueOrDie();
  auto result = maxent::Solve(problem).ValueOrDie();
  auto closed = maxent::ClosedFormNoKnowledge(t, index);
  for (size_t i = 0; i < closed.size(); ++i) {
    EXPECT_NEAR(result.p[i], closed[i], 1e-6);
  }
}

TEST_P(TableProperty, DroppedRedundantRowChangesNothing) {
  // Theorem 3: the concise invariant set defines the same feasible set,
  // so the MaxEnt optimum is identical.
  auto t = RandomTable(GetParam());
  auto index = TermIndex::Build(t);
  constraints::InvariantOptions full, concise;
  concise.drop_redundant_row = true;

  const auto sys_full = constraints::GenerateInvariants(t, index, full);
  const auto sys_concise = constraints::GenerateInvariants(t, index, concise);

  auto a = maxent::Solve(maxent::BuildProblem(index.num_variables(), sys_full)
                             .ValueOrDie())
               .ValueOrDie();
  auto b =
      maxent::Solve(maxent::BuildProblem(index.num_variables(), sys_concise)
                        .ValueOrDie())
          .ValueOrDie();
  for (size_t i = 0; i < a.p.size(); ++i) {
    EXPECT_NEAR(a.p[i], b.p[i], 1e-6);
  }
}

TEST_P(TableProperty, GroundTruthIsAlwaysFeasibleWithTrueKnowledge) {
  // Constraints derived from the original data can never contradict the
  // published table (Section 4.2); the solver must converge and the
  // solution must satisfy everything.
  auto t = RandomTable(GetParam());
  auto index = TermIndex::Build(t);
  Prng prng(std::get<4>(GetParam()) + 500);

  knowledge::KnowledgeBase kb;
  for (int k = 0; k < 5; ++k) {
    const uint32_t q =
        static_cast<uint32_t>(prng.NextBounded(t.num_qi_values()));
    const uint32_t s =
        static_cast<uint32_t>(prng.NextBounded(t.num_sa_values()));
    kb.Add(knowledge::AbstractConditional(q, {s}, t.TrueConditional(q, s)));
  }
  auto analysis = core::Analyze(t, kb).ValueOrDie();
  EXPECT_LT(analysis.solver.max_violation, 1e-6);
}

TEST_P(TableProperty, PosteriorRowsAreDistributions) {
  auto t = RandomTable(GetParam());
  knowledge::KnowledgeBase empty;
  auto analysis = core::Analyze(t, empty).ValueOrDie();
  for (uint32_t q = 0; q < analysis.posterior.num_qi(); ++q) {
    double sum = 0.0;
    for (uint32_t s = 0; s < analysis.posterior.num_sa(); ++s) {
      EXPECT_GE(analysis.posterior.Conditional(q, s), -1e-9);
      sum += analysis.posterior.Conditional(q, s);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST_P(TableProperty, FullTrueKnowledgeDrivesAccuracyToZero) {
  // With the complete set of true conditionals P(s | q) as knowledge, the
  // MaxEnt posterior reproduces the original conditionals exactly, so the
  // weighted KL distance vanishes (the adversary knows everything).
  auto t = RandomTable(GetParam());
  knowledge::KnowledgeBase kb;
  for (uint32_t q = 0; q < t.num_qi_values(); ++q) {
    for (uint32_t s = 0; s < t.num_sa_values(); ++s) {
      kb.Add(knowledge::AbstractConditional(q, {s}, t.TrueConditional(q, s)));
    }
  }
  auto analysis = core::Analyze(t, kb).ValueOrDie();
  EXPECT_NEAR(analysis.estimation_accuracy, 0.0, 1e-4);
}

TEST_P(TableProperty, DecompositionEquivalence) {
  // Proposition 1: decomposed and monolithic solves agree, with any
  // knowledge placement.
  auto t = RandomTable(GetParam());
  Prng prng(std::get<4>(GetParam()) + 99);
  knowledge::KnowledgeBase kb;
  const uint32_t q =
      static_cast<uint32_t>(prng.NextBounded(t.num_qi_values()));
  const uint32_t s =
      static_cast<uint32_t>(prng.NextBounded(t.num_sa_values()));
  kb.Add(knowledge::AbstractConditional(q, {s}, t.TrueConditional(q, s)));

  core::AnalysisOptions mono, decomp;
  mono.use_decomposition = false;
  decomp.use_decomposition = true;
  auto a = core::Analyze(t, kb, mono).ValueOrDie();
  auto b = core::Analyze(t, kb, decomp).ValueOrDie();
  for (uint32_t qq = 0; qq < t.num_qi_values(); ++qq) {
    for (uint32_t ss = 0; ss < t.num_sa_values(); ++ss) {
      EXPECT_NEAR(a.posterior.Conditional(qq, ss),
                  b.posterior.Conditional(qq, ss), 1e-5);
    }
  }
}

TEST_P(TableProperty, EntropyNeverIncreasesWithKnowledge) {
  // Adding constraints can only shrink the feasible set, so the maximum
  // entropy cannot rise.
  auto t = RandomTable(GetParam());
  knowledge::KnowledgeBase empty, kb;
  kb.Add(knowledge::AbstractConditional(0, {0}, t.TrueConditional(0, 0)));
  auto base = core::Analyze(t, empty).ValueOrDie();
  auto informed = core::Analyze(t, kb).ValueOrDie();
  EXPECT_LE(informed.solver.entropy, base.solver.entropy + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TableProperty,
    ::testing::Values(std::make_tuple(3, 4, 5, 4, 1),
                      std::make_tuple(5, 5, 8, 6, 2),
                      std::make_tuple(8, 3, 6, 5, 3),
                      std::make_tuple(2, 6, 4, 6, 4),
                      std::make_tuple(10, 4, 12, 8, 5),
                      std::make_tuple(1, 5, 3, 4, 6),
                      std::make_tuple(6, 5, 20, 5, 7),
                      std::make_tuple(4, 2, 3, 3, 8)),
    [](const ::testing::TestParamInfo<TableShape>& info) {
      return "b" + std::to_string(std::get<0>(info.param)) + "s" +
             std::to_string(std::get<1>(info.param)) + "q" +
             std::to_string(std::get<2>(info.param)) + "a" +
             std::to_string(std::get<3>(info.param)) + "seed" +
             std::to_string(std::get<4>(info.param));
    });

}  // namespace
}  // namespace pme
