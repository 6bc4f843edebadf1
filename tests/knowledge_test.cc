// Tests for src/knowledge: association-rule mining (verified against a
// brute-force recount), Top-(K+, K−) selection, and knowledge statements.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/adult_synth.h"
#include "knowledge/knowledge_base.h"
#include "knowledge/miner.h"
#include "tests/support/stats.h"
#include "tests/test_util.h"

namespace pme::knowledge {
namespace {

data::Dataset MedicalDataset() { return pme::testing::MakeFigure1Dataset(); }

TEST(MinerTest, BreastCancerNegativeRuleIsMined) {
  // The paper's canonical example: "it is rare for male to have breast
  // cancer" — in Figure 1(a) no male has it, so the negative rule
  // male => NOT breast-cancer must surface with confidence 1.
  auto d = MedicalDataset();
  MinerOptions options;
  options.min_support_records = 2;
  options.max_attrs = 1;
  auto rules = MineAssociationRules(d, options).ValueOrDie();

  const size_t gender = d.schema().IndexOf("gender").ValueOrDie();
  const uint32_t male =
      d.schema().attribute(0).dictionary.Lookup("male").ValueOrDie();
  const uint32_t bc =
      d.schema().attribute(2).dictionary.Lookup("breast-cancer").ValueOrDie();

  bool found = false;
  for (const auto& r : rules) {
    if (!r.positive && r.attrs == std::vector<size_t>{gender} &&
        r.values == std::vector<uint32_t>{male} && r.sa_code == bc) {
      found = true;
      EXPECT_DOUBLE_EQ(r.confidence, 1.0);
      EXPECT_DOUBLE_EQ(r.conditional, 0.0);
      EXPECT_DOUBLE_EQ(r.support, 0.6);  // all 6 males support Qv ∧ ¬S
    }
  }
  EXPECT_TRUE(found);
}

TEST(MinerTest, PositiveRuleConfidenceMatchesStats) {
  auto d = MedicalDataset();
  MinerOptions options;
  options.min_support_records = 1;
  options.max_attrs = 1;
  auto rules = MineAssociationRules(d, options).ValueOrDie();
  data::DatasetStats stats(&d);
  const size_t sa = d.schema().SoleSensitiveIndex().ValueOrDie();
  for (const auto& r : rules) {
    const double expected =
        stats.Conditional(r.attrs, r.values, sa, r.sa_code).ValueOrDie();
    EXPECT_NEAR(r.conditional, expected, 1e-12) << r.ToString(d);
    if (r.positive) {
      EXPECT_NEAR(r.confidence, expected, 1e-12);
    } else {
      EXPECT_NEAR(r.confidence, 1.0 - expected, 1e-12);
    }
  }
}

TEST(MinerTest, SupportThresholdPrunes) {
  auto d = MedicalDataset();
  MinerOptions loose, tight;
  loose.min_support_records = 1;
  tight.min_support_records = 3;
  auto many = MineAssociationRules(d, loose).ValueOrDie();
  auto few = MineAssociationRules(d, tight).ValueOrDie();
  EXPECT_GT(many.size(), few.size());
  for (const auto& r : few) {
    EXPECT_GE(r.support * static_cast<double>(d.num_records()), 3.0 - 1e-9);
  }
}

TEST(MinerTest, AttributeRangeRespected) {
  auto d = MedicalDataset();
  MinerOptions options;
  options.min_support_records = 1;
  options.min_attrs = 2;
  options.max_attrs = 2;
  auto rules = MineAssociationRules(d, options).ValueOrDie();
  EXPECT_FALSE(rules.empty());
  for (const auto& r : rules) EXPECT_EQ(r.NumQiAttributes(), 2u);
}

TEST(MinerTest, BruteForceCountAgreement) {
  // Cross-check the miner's grouping against DatasetStats (independent
  // scan-based counting) on a synthetic dataset.
  data::AdultSynthOptions synth;
  synth.num_records = 400;
  auto d = data::GenerateAdultLike(synth).ValueOrDie();
  MinerOptions options;
  options.min_support_records = 5;
  options.max_attrs = 2;
  auto rules = MineAssociationRules(d, options).ValueOrDie();
  ASSERT_FALSE(rules.empty());
  data::DatasetStats stats(&d);
  const size_t sa = d.schema().SoleSensitiveIndex().ValueOrDie();
  size_t checked = 0;
  for (const auto& r : rules) {
    if (checked >= 200) break;  // bounded runtime
    ++checked;
    const size_t qv = stats.CountMatching(r.attrs, r.values);
    const size_t qs = stats.CountMatchingWithSa(r.attrs, r.values, sa,
                                                r.sa_code);
    const double n = static_cast<double>(d.num_records());
    EXPECT_NEAR(r.conditional, static_cast<double>(qs) / qv, 1e-12);
    if (r.positive) {
      EXPECT_NEAR(r.support, qs / n, 1e-12);
    } else {
      EXPECT_NEAR(r.support, (qv - qs) / n, 1e-12);
    }
  }
}

TEST(MinerTest, SortedByConfidenceWithinPolarity) {
  auto d = MedicalDataset();
  MinerOptions options;
  options.min_support_records = 1;
  auto rules = MineAssociationRules(d, options).ValueOrDie();
  double last_pos = 2.0, last_neg = 2.0;
  bool seen_negative = false;
  for (const auto& r : rules) {
    if (r.positive) {
      EXPECT_FALSE(seen_negative) << "positive rules must come first";
      EXPECT_LE(r.confidence, last_pos + 1e-12);
      last_pos = r.confidence;
    } else {
      seen_negative = true;
      EXPECT_LE(r.confidence, last_neg + 1e-12);
      last_neg = r.confidence;
    }
  }
}

TEST(MinerTest, RejectsBadOptions) {
  auto d = MedicalDataset();
  MinerOptions options;
  options.min_attrs = 0;
  EXPECT_FALSE(MineAssociationRules(d, options).ok());
  options.min_attrs = 3;
  options.max_attrs = 2;
  EXPECT_FALSE(MineAssociationRules(d, options).ok());
}

TEST(TopKTest, SelectsStrongestOfEachPolarity) {
  auto d = MedicalDataset();
  MinerOptions options;
  options.min_support_records = 1;
  auto rules = MineAssociationRules(d, options).ValueOrDie();
  auto top = TopK(rules, 3, 2);
  size_t pos = 0, neg = 0;
  for (const auto& r : top) (r.positive ? pos : neg) += 1;
  EXPECT_EQ(pos, 3u);
  EXPECT_EQ(neg, 2u);
  // The kept positive rules must dominate all discarded positive rules.
  double kept_min = 2.0;
  for (const auto& r : top) {
    if (r.positive) kept_min = std::min(kept_min, r.confidence);
  }
  size_t seen = 0;
  for (const auto& r : rules) {
    if (r.positive && ++seen > 3) EXPECT_LE(r.confidence, kept_min + 1e-12);
  }
}

TEST(TopKTest, KLargerThanAvailableKeepsAll) {
  auto d = MedicalDataset();
  MinerOptions options;
  options.min_support_records = 3;
  options.max_attrs = 1;
  auto rules = MineAssociationRules(d, options).ValueOrDie();
  auto top = TopK(rules, 100000, 100000);
  EXPECT_EQ(top.size(), rules.size());
}

TEST(FilterByNumAttributesTest, Filters) {
  auto d = MedicalDataset();
  MinerOptions options;
  options.min_support_records = 1;
  auto rules = MineAssociationRules(d, options).ValueOrDie();
  auto t1 = FilterByNumAttributes(rules, 1);
  auto t2 = FilterByNumAttributes(rules, 2);
  EXPECT_EQ(t1.size() + t2.size(), rules.size());
  for (const auto& r : t1) EXPECT_EQ(r.NumQiAttributes(), 1u);
}

TEST(KnowledgeBaseTest, AddRulesProducesEqualityStatements) {
  auto d = MedicalDataset();
  MinerOptions options;
  options.min_support_records = 3;
  auto rules = MineAssociationRules(d, options).ValueOrDie();
  auto top = TopK(rules, 2, 2);
  EXPECT_GE(top.size(), 3u);  // >= 1 positive and 2 negative exist
  KnowledgeBase kb;
  kb.AddRules(top);
  EXPECT_EQ(kb.conditionals().size(), top.size());
  EXPECT_TRUE(kb.individuals().empty());
  for (const auto& s : kb.conditionals()) {
    EXPECT_EQ(s.rel, Relation::kEq);
    EXPECT_FALSE(s.abstract_qi.has_value());
    EXPECT_EQ(s.sa_codes.size(), 1u);
  }
}

TEST(KnowledgeBaseTest, BuildersAndSize) {
  KnowledgeBase kb;
  kb.Add(MakeConditional({0}, {1}, 2, 0.3));
  kb.Add(AbstractConditional(3, {0, 1}, 0.0));
  IndividualStatement ind;
  ind.terms = {{0, 1}};
  ind.probability = 0.5;
  kb.Add(ind);
  EXPECT_EQ(kb.size(), 3u);
  EXPECT_EQ(kb.conditionals()[1].abstract_qi.value(), 3u);
  EXPECT_EQ(kb.conditionals()[1].sa_codes.size(), 2u);
  EXPECT_FALSE(kb.empty());
}

TEST(RuleRankTest, DeterministicTotalOrder) {
  AssociationRule a, b;
  a.confidence = b.confidence = 0.5;
  a.support = 0.2;
  b.support = 0.1;
  EXPECT_TRUE(RuleRankBefore(a, b));
  EXPECT_FALSE(RuleRankBefore(b, a));
  b.support = 0.2;
  a.attrs = {0};
  b.attrs = {0, 1};
  EXPECT_TRUE(RuleRankBefore(a, b));  // fewer attributes first
}

TEST(RuleTest, ToStringIsReadable) {
  auto d = MedicalDataset();
  AssociationRule r;
  r.attrs = {0};
  r.values = {0};  // male (first interned)
  r.sa_code = 0;   // breast-cancer
  r.positive = false;
  r.confidence = 1.0;
  const std::string s = r.ToString(d);
  EXPECT_NE(s.find("gender=male"), std::string::npos);
  EXPECT_NE(s.find("NOT"), std::string::npos);
  EXPECT_NE(s.find("breast-cancer"), std::string::npos);
}

}  // namespace
}  // namespace pme::knowledge
