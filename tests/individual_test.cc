// Tests for the Section-6 IndividualModel: pseudonym-expanded MaxEnt with
// knowledge about individuals, exercised on the paper's Figure 4 examples.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/pseudonym.h"
#include "core/individual_model.h"
#include "core/privacy_maxent.h"
#include "knowledge/knowledge_base.h"
#include "tests/test_util.h"

namespace pme::core {
namespace {

using pme::testing::kQ1;
using pme::testing::kQ2;
using pme::testing::kQ3;
using pme::testing::kQ5;
using pme::testing::kS1;
using pme::testing::kS2;
using pme::testing::kS3;
using pme::testing::kS4;
using pme::testing::kS5;

class IndividualModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pseudonyms_ = std::make_unique<anonymize::PseudonymTable>(
        anonymize::PseudonymTable::Create(&table_).ValueOrDie());
    model_ = std::make_unique<IndividualModel>(
        IndividualModel::Build(pseudonyms_.get()).ValueOrDie());
  }

  anonymize::BucketizedTable table_{pme::testing::MakeFigure1Table()};
  std::unique_ptr<anonymize::PseudonymTable> pseudonyms_;
  std::unique_ptr<IndividualModel> model_;
};

TEST_F(IndividualModelTest, VariableSpaceShape) {
  // q1's pseudonyms (3 of them) see buckets 1 and 2 with 3 SAs each: 6
  // variables per pseudonym. q4/q5/q6 pseudonyms see one bucket: 3 each.
  // q2: buckets 1 and 3 (3+3); q3: buckets 1 and 2 (3+3).
  // Total = 3*6 (q1) + 2*6 (q2) + 2*6 (q3) + 3 + 3 + 3 = 51.
  EXPECT_EQ(model_->num_variables(), 51u);
  // Invariants: 10 pseudonym rows + per-(q,b): q1:2,q2:2,q3:2,q4:1,q5:1,
  // q6:1 = 9 rows + per-(s,b): 3+3+3 = 9 rows.
  EXPECT_EQ(model_->num_constraints(), 28u);
}

TEST_F(IndividualModelTest, NoKnowledgeMatchesAggregatePosterior) {
  // Without individual knowledge the individual posterior must coincide
  // with the bucket-portion rule for the person's QI instance.
  auto result = model_->Solve().ValueOrDie();
  EXPECT_LT(result.max_violation, 1e-7);
  // i10 = James (q6), only bucket 3: uniform over {s2, s4, s5}.
  auto posterior = model_->PosteriorFor(9, result.p);
  EXPECT_NEAR(posterior[kS2], 1.0 / 3, 1e-6);
  EXPECT_NEAR(posterior[kS4], 1.0 / 3, 1e-6);
  EXPECT_NEAR(posterior[kS5], 1.0 / 3, 1e-6);
  // Any of q1's pseudonyms: P*(s1|i) = 5/18 (as in the aggregate model).
  auto p_q1 = model_->PosteriorFor(0, result.p);
  EXPECT_NEAR(p_q1[kS1], 5.0 / 18, 1e-6);
}

TEST_F(IndividualModelTest, PaperType1Knowledge) {
  // Section 6 (1): "P(Breast Cancer | Alice with q1) = 0.2" compiles to
  // P(i1,q1,s1,1) + P(i1,q1,s1,2) = 0.2/N.
  knowledge::KnowledgeBase kb;
  knowledge::IndividualStatement stmt;
  stmt.kind = knowledge::IndividualKind::kPersonSaSet;
  stmt.terms = {{0, kS1}};
  stmt.probability = 0.2;
  stmt.label = "Alice breast cancer 0.2";
  kb.Add(stmt);
  ASSERT_TRUE(model_->AddKnowledge(kb).ok());
  auto result = model_->Solve().ValueOrDie();
  EXPECT_LT(result.max_violation, 1e-7);
  auto posterior = model_->PosteriorFor(0, result.p);
  EXPECT_NEAR(posterior[kS1], 0.2, 1e-6);
  // The other pseudonyms of q1 must compensate: total s1 mass attributable
  // to q1 is untouched by who exactly carries it... their posterior stays
  // a proper distribution.
  double sum = 0.0;
  for (double v : model_->PosteriorFor(1, result.p)) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_F(IndividualModelTest, PaperType2KnowledgeEitherOr) {
  // Section 6 (2): "Alice (q1) has either Breast Cancer (s1) or HIV (s4)"
  // => P(i1,q1,s1,1) + P(i1,q1,s1,2) + P(i1,q1,s4,2) = 1/N.
  knowledge::KnowledgeBase kb;
  knowledge::IndividualStatement stmt;
  stmt.terms = {{0, kS1}, {0, kS4}};
  stmt.probability = 1.0;
  kb.Add(stmt);
  ASSERT_TRUE(model_->AddKnowledge(kb).ok());
  auto result = model_->Solve().ValueOrDie();
  auto posterior = model_->PosteriorFor(0, result.p);
  EXPECT_NEAR(posterior[kS1] + posterior[kS4], 1.0, 1e-6);
  EXPECT_NEAR(posterior[kS2] + posterior[kS3] + posterior[kS5], 0.0, 1e-6);
}

TEST_F(IndividualModelTest, PaperType3GroupCount) {
  // Section 6 (3): "Two people among Alice (q1), Bob (q2) and Charlie
  // (q5) have HIV (s4)" => the three candidate terms sum to 2/N.
  knowledge::KnowledgeBase kb;
  knowledge::IndividualStatement stmt;
  stmt.kind = knowledge::IndividualKind::kGroupCount;
  stmt.terms = {{0, kS4}, {3, kS4}, {8, kS4}};
  stmt.probability = 2.0;
  kb.Add(stmt);
  ASSERT_TRUE(model_->AddKnowledge(kb).ok());
  auto result = model_->Solve().ValueOrDie();
  EXPECT_LT(result.max_violation, 1e-7);
  const double p_alice = model_->PosteriorFor(0, result.p)[kS4];
  const double p_bob = model_->PosteriorFor(3, result.p)[kS4];
  const double p_charlie = model_->PosteriorFor(8, result.p)[kS4];
  EXPECT_NEAR(p_alice + p_bob + p_charlie, 2.0, 1e-6);
  // Charlie (q5) sits in bucket 3 whose SA multiset {s2,s4,s5} contains
  // s4, so his share is positive; everyone's is at most 1.
  EXPECT_GT(p_charlie, 0.0);
  EXPECT_LE(p_alice, 1.0 + 1e-6);
}

TEST_F(IndividualModelTest, CertainKnowledgeForcesAssignment) {
  // "Frank has Pneumonia" (introduction): Frank is a q3 person; claim a
  // q3 pseudonym and assert s3 with probability 1.
  auto frank = pseudonyms_->ClaimPseudonym(pme::testing::kQ3).ValueOrDie();
  knowledge::KnowledgeBase kb;
  knowledge::IndividualStatement stmt;
  stmt.terms = {{frank, kS3}};
  stmt.probability = 1.0;
  kb.Add(stmt);
  ASSERT_TRUE(model_->AddKnowledge(kb).ok());
  auto result = model_->Solve().ValueOrDie();
  auto posterior = model_->PosteriorFor(frank, result.p);
  EXPECT_NEAR(posterior[kS3], 1.0, 1e-6);
}

TEST_F(IndividualModelTest, AbstractConditionalAggregates) {
  // Distribution knowledge in the individual space: P(s3 | q3) = 0.5.
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(pme::testing::kQ3, {kS3}, 0.5));
  ASSERT_TRUE(model_->AddKnowledge(kb).ok());
  auto result = model_->Solve().ValueOrDie();
  // Aggregated over q3's two pseudonyms, s3 mass must be 0.5 * P(q3) * N
  // = 0.5 * 2 records = posterior sum 1.0.
  const double total = model_->PosteriorFor(5, result.p)[kS3] +
                       model_->PosteriorFor(6, result.p)[kS3];
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST_F(IndividualModelTest, InfeasibleIndividualKnowledgeDetected) {
  // Charlie (q5, bucket 3) cannot have s1 — bucket 3 has no s1.
  knowledge::KnowledgeBase kb;
  knowledge::IndividualStatement stmt;
  stmt.terms = {{8, kS1}};
  stmt.probability = 1.0;
  kb.Add(stmt);
  EXPECT_EQ(model_->AddKnowledge(kb).code(), StatusCode::kInfeasible);
}

TEST_F(IndividualModelTest, InequalityIndividualKnowledge) {
  // "At least two of {Alice, Bob, Charlie} have HIV" — the extended model
  // with a >= row (Section 6 discussion of inequality knowledge).
  knowledge::KnowledgeBase kb;
  knowledge::IndividualStatement stmt;
  stmt.kind = knowledge::IndividualKind::kGroupCount;
  stmt.terms = {{0, kS4}, {3, kS4}, {8, kS4}};
  stmt.rel = knowledge::Relation::kGe;
  stmt.probability = 2.0;
  kb.Add(stmt);
  ASSERT_TRUE(model_->AddKnowledge(kb).ok());
  auto result = model_->Solve().ValueOrDie();
  const double total = model_->PosteriorFor(0, result.p)[kS4] +
                       model_->PosteriorFor(3, result.p)[kS4] +
                       model_->PosteriorFor(8, result.p)[kS4];
  // The bound ">= 2" is only *just* feasible here (2 is also the maximum
  // the published buckets allow), so Slater's condition fails and the
  // inequality multiplier diverges; finite iterations approach the bound
  // from below. Accept a loose tolerance.
  EXPECT_GE(total, 2.0 - 1e-3);
}

TEST_F(IndividualModelTest, RejectsUnknownPseudonym) {
  knowledge::KnowledgeBase kb;
  knowledge::IndividualStatement stmt;
  stmt.terms = {{99, kS1}};
  stmt.probability = 1.0;
  kb.Add(stmt);
  EXPECT_EQ(model_->AddKnowledge(kb).code(), StatusCode::kInvalidArgument);
}

TEST_F(IndividualModelTest, RejectsDatasetModeConditional) {
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::MakeConditional({0}, {0}, kS2, 0.3));
  EXPECT_EQ(model_->AddKnowledge(kb).code(), StatusCode::kInvalidArgument);
}

// Pseudonyms are the tuple ids that turn each bag of same-QI records into
// a set (Bertossi–Gottlob, bag semantics via set semantics), so on
// abstract knowledge alone the expanded model's P*(s | q), averaged over
// q's pseudonyms, is the session's posterior. Both solves stop at the
// 1e-8 dual tolerance in joint units and a posterior divides by
// P(q) = n_q / N, so with N = 10 they agree to 1e-7, not 1e-8.
TEST(IndividualSessionParityTest, AbstractKnowledgeGivesTheSessionPosterior) {
  const anonymize::BucketizedTable table = pme::testing::MakeFigure1Table();
  const auto pseudonyms =
      anonymize::PseudonymTable::Create(&table).ValueOrDie();
  struct Statement {
    uint32_t q;
    uint32_t s;
    double probability;
  };
  const std::vector<std::vector<Statement>> cases = {
      {}, {{kQ3, kS3, 0.5}}, {{kQ3, kS3, 0.5}, {kQ1, kS1, 0.1}}};
  for (const std::vector<Statement>& statements : cases) {
    SCOPED_TRACE(std::to_string(statements.size()) + " statements");
    knowledge::KnowledgeBase kb;
    for (const Statement& st : statements) {
      kb.Add(knowledge::AbstractConditional(st.q, {st.s}, st.probability));
    }
    IndividualModel model = IndividualModel::Build(&pseudonyms).ValueOrDie();
    ASSERT_TRUE(model.AddKnowledge(kb).ok());
    const auto expanded = model.Solve().ValueOrDie();
    ASSERT_TRUE(expanded.converged);
    const Analysis session = Analyze(table, kb).ValueOrDie();
    ASSERT_TRUE(session.solver.converged);
    for (uint32_t q = 0; q < table.num_qi_values(); ++q) {
      const std::vector<uint32_t>& of_q = pseudonyms.PseudonymsOf(q);
      std::vector<double> average(table.num_sa_values(), 0.0);
      for (const uint32_t i : of_q) {
        const std::vector<double> posterior =
            model.PosteriorFor(i, expanded.p);
        for (uint32_t s = 0; s < average.size(); ++s) {
          average[s] += posterior[s] / static_cast<double>(of_q.size());
        }
      }
      for (uint32_t s = 0; s < average.size(); ++s) {
        EXPECT_NEAR(average[s], session.posterior.Conditional(q, s), 1e-7)
            << "q" << q + 1 << " s" << s + 1;
      }
    }
  }
}

}  // namespace
}  // namespace pme::core
