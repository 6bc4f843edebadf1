// Tests for src/core: the posterior table, the estimation-accuracy
// measure (Section 7.1), privacy metrics, and the Analyze facade on the
// paper's worked examples.

#include <gtest/gtest.h>

#include <cmath>

#include "core/posterior.h"
#include "core/privacy_maxent.h"
#include "knowledge/knowledge_base.h"
#include "tests/test_util.h"

namespace pme::core {
namespace {

using pme::testing::kQ1;
using pme::testing::kQ2;
using pme::testing::kQ3;
using pme::testing::kQ4;
using pme::testing::kQ5;
using pme::testing::kQ6;
using pme::testing::kS1;
using pme::testing::kS2;
using pme::testing::kS3;
using pme::testing::kS4;
using pme::testing::kS5;

// -------------------------------------------------------- PosteriorTable

TEST(PosteriorTest, RowsAreDistributions) {
  auto t = pme::testing::MakeFigure1Table();
  knowledge::KnowledgeBase empty;
  auto analysis = Analyze(t, empty).ValueOrDie();
  for (uint32_t q = 0; q < analysis.posterior.num_qi(); ++q) {
    double sum = 0.0;
    for (uint32_t s = 0; s < analysis.posterior.num_sa(); ++s) {
      const double v = analysis.posterior.Conditional(q, s);
      EXPECT_GE(v, -1e-9);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6) << "q" << q + 1;
  }
}

TEST(PosteriorTest, NoKnowledgeMatchesPortionRule) {
  // With no knowledge, P*(s | q) must equal the bucket-portion rule.
  // q6 occurs only in bucket 3 whose SAs are {s2, s4, s5}: 1/3 each.
  auto t = pme::testing::MakeFigure1Table();
  knowledge::KnowledgeBase empty;
  auto analysis = Analyze(t, empty).ValueOrDie();
  EXPECT_NEAR(analysis.posterior.Conditional(kQ6, kS2), 1.0 / 3, 1e-6);
  EXPECT_NEAR(analysis.posterior.Conditional(kQ6, kS4), 1.0 / 3, 1e-6);
  EXPECT_NEAR(analysis.posterior.Conditional(kQ6, kS5), 1.0 / 3, 1e-6);
  EXPECT_NEAR(analysis.posterior.Conditional(kQ6, kS1), 0.0, 1e-9);
  // q1 spans buckets 1 (2 occurrences, SA portions s1:1/4 s2:2/4 s3:1/4)
  // and 2 (1 occurrence, portions s1:1/3 s3:1/3 s4:1/3):
  // P*(s1|q1) = (2/3)(1/4) + (1/3)(1/3) = 1/6 + 1/9 = 5/18.
  EXPECT_NEAR(analysis.posterior.Conditional(kQ1, kS1), 5.0 / 18, 1e-6);
}

TEST(PosteriorTest, GroundTruthMatchesTable) {
  auto t = pme::testing::MakeFigure1Table();
  auto truth = PosteriorTable::GroundTruth(t);
  for (uint32_t q = 0; q < t.num_qi_values(); ++q) {
    for (uint32_t s = 0; s < t.num_sa_values(); ++s) {
      EXPECT_NEAR(truth.Conditional(q, s), t.TrueConditional(q, s), 1e-12);
    }
  }
}

// --------------------------------------------------- EstimationAccuracy

TEST(EstimationAccuracyTest, ZeroForPerfectEstimate) {
  auto t = pme::testing::MakeFigure1Table();
  auto truth = PosteriorTable::GroundTruth(t);
  EXPECT_NEAR(EstimationAccuracy(truth, truth), 0.0, 1e-12);
}

TEST(EstimationAccuracyTest, PositiveForImperfectEstimate) {
  auto t = pme::testing::MakeFigure1Table();
  auto truth = PosteriorTable::GroundTruth(t);
  knowledge::KnowledgeBase empty;
  auto analysis = Analyze(t, empty).ValueOrDie();
  EXPECT_GT(EstimationAccuracy(truth, analysis.posterior), 0.0);
  EXPECT_NEAR(analysis.estimation_accuracy,
              EstimationAccuracy(truth, analysis.posterior), 1e-12);
}

TEST(EstimationAccuracyTest, KnowledgeImprovesAdversaryEstimate) {
  // Core claim of Figure 5: more (correct) knowledge drives the KL
  // distance down — privacy gets worse.
  auto t = pme::testing::MakeFigure1Table();
  knowledge::KnowledgeBase empty;
  auto base = Analyze(t, empty).ValueOrDie();

  knowledge::KnowledgeBase kb;
  // Knowledge derived from the original data: P(s1 | q2) = 1/2 is wrong —
  // use the true conditionals. Cathy/Helen (q2): s1 1/2, s4 1/2.
  kb.Add(knowledge::AbstractConditional(kQ2, {kS1}, 0.5));
  kb.Add(knowledge::AbstractConditional(kQ3, {kS2}, 0.5));
  auto informed = Analyze(t, kb).ValueOrDie();
  EXPECT_LT(informed.estimation_accuracy, base.estimation_accuracy);
}

// ---------------------------------------------------------- Facade shape

TEST(AnalyzeTest, ConstraintCensus) {
  auto t = pme::testing::MakeFigure1Table();
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.5));
  auto analysis = Analyze(t, kb).ValueOrDie();
  EXPECT_EQ(analysis.num_invariant_constraints, 18u);
  EXPECT_EQ(analysis.num_background_constraints, 1u);
  EXPECT_EQ(analysis.num_vacuous_statements, 0u);
  // q3 lives in buckets 1 and 2 -> both relevant, bucket 3 irrelevant.
  EXPECT_EQ(analysis.decomposition.relevant_buckets, 2u);
  EXPECT_EQ(analysis.decomposition.irrelevant_buckets, 1u);
}

TEST(AnalyzeTest, DecompositionMatchesMonolithicSolve) {
  auto t = pme::testing::MakeFigure1Table();
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.5));
  AnalysisOptions with, without;
  with.use_decomposition = true;
  without.use_decomposition = false;
  auto a = Analyze(t, kb, with).ValueOrDie();
  auto b = Analyze(t, kb, without).ValueOrDie();
  for (uint32_t q = 0; q < t.num_qi_values(); ++q) {
    for (uint32_t s = 0; s < t.num_sa_values(); ++s) {
      EXPECT_NEAR(a.posterior.Conditional(q, s),
                  b.posterior.Conditional(q, s), 1e-6);
    }
  }
  EXPECT_NEAR(a.estimation_accuracy, b.estimation_accuracy, 1e-6);
}

TEST(AnalyzeTest, BreastCancerDeductionFromIntroduction) {
  // Introduction example: "we immediately know that both females in
  // Bucket 1 and Bucket 2 have Breast Cancer, because they are the only
  // females in their respective buckets" — given the knowledge that
  // males rarely (here: never) have breast cancer.
  auto t = pme::testing::MakeFigure1Table();
  knowledge::KnowledgeBase kb;
  // P(s1 | male-q) = 0 for every male QI instance q1, q3, q6.
  kb.Add(knowledge::AbstractConditional(kQ1, {kS1}, 0.0));
  kb.Add(knowledge::AbstractConditional(kQ3, {kS1}, 0.0));
  kb.Add(knowledge::AbstractConditional(kQ6, {kS1}, 0.0));
  auto analysis = Analyze(t, kb).ValueOrDie();
  // Cathy (q2, the only female in bucket 1) must have s1 in bucket 1's
  // share; Grace (q4, only female in bucket 2) must have s1 certainly.
  EXPECT_NEAR(analysis.posterior.Conditional(kQ4, kS1), 1.0, 1e-6);
  // q2 appears in buckets 1 and 3; in bucket 1 her record must carry s1,
  // so P*(s1 | q2) = (share of q2 in bucket 1) = 1/2.
  EXPECT_NEAR(analysis.posterior.Conditional(kQ2, kS1), 0.5, 1e-6);
  // Privacy metric reflects the certain disclosure.
  EXPECT_NEAR(analysis.metrics.max_disclosure, 1.0, 1e-6);
}

TEST(AnalyzeTest, RejectsIndividualKnowledge) {
  auto t = pme::testing::MakeFigure1Table();
  knowledge::KnowledgeBase kb;
  knowledge::IndividualStatement stmt;
  stmt.terms = {{0, kS4}};
  stmt.probability = 1.0;
  kb.Add(stmt);
  EXPECT_EQ(Analyze(t, kb).status().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------- PrivacyMetrics

TEST(MetricsTest, UniformPosteriorBounds) {
  auto t = pme::testing::MakeFigure1Table();
  knowledge::KnowledgeBase empty;
  auto analysis = Analyze(t, empty).ValueOrDie();
  const auto& m = analysis.metrics;
  EXPECT_GT(m.max_disclosure, 0.0);
  EXPECT_LE(m.max_disclosure, 1.0 + 1e-9);
  EXPECT_GT(m.min_effective_candidates, 1.0);
  EXPECT_LE(m.expected_best_guess, m.max_disclosure + 1e-12);
}

TEST(MetricsTest, KnowledgeReducesEffectiveCandidates) {
  auto t = pme::testing::MakeFigure1Table();
  knowledge::KnowledgeBase empty;
  auto base = Analyze(t, empty).ValueOrDie();
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ2, {kS1}, 0.5));
  kb.Add(knowledge::AbstractConditional(kQ3, {kS2}, 0.5));
  auto informed = Analyze(t, kb).ValueOrDie();
  EXPECT_LE(informed.metrics.min_effective_candidates,
            base.metrics.min_effective_candidates + 1e-9);
  EXPECT_GE(informed.metrics.expected_best_guess,
            base.metrics.expected_best_guess - 1e-9);
}

}  // namespace
}  // namespace pme::core
