// Tests for src/constraints: term indexing (Zero-invariants), the QI-/SA-
// invariant equations with the paper's hand-computed values, assignments,
// the background-knowledge compiler (Section 4.1's worked example), and
// the constraint system / irrelevant-bucket analysis.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/system.h"
#include "constraints/term_index.h"
#include "maxent/block_plan.h"
#include "maxent/problem.h"
#include "tests/support/assignment.h"
#include "tests/support/experiment.h"
#include "tests/support/invariant_checks.h"
#include "tests/test_util.h"

namespace pme::constraints {
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

// ------------------------------------------------------------ TermIndex

TEST(TermIndexTest, MaterializesOnlyInBucketTerms) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  // Each Figure 1(c) bucket has 3 distinct QIs and 3 distinct SAs.
  EXPECT_EQ(index.num_variables(), 27u);
  EXPECT_EQ(index.num_buckets(), 3u);
  auto [b0_first, b0_last] = index.BucketRange(0);
  EXPECT_EQ(b0_last - b0_first, 9u);
}

TEST(TermIndexTest, ZeroInvariantsAreStructural) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  // Paper: q1 not in bucket 3, s1 not in bucket 3.
  EXPECT_TRUE(index.IsZeroInvariant(kQ1, kS2, 2));
  EXPECT_TRUE(index.IsZeroInvariant(kQ2, kS1, 2));
  EXPECT_FALSE(index.IsZeroInvariant(kQ1, kS2, 0));
  EXPECT_EQ(index.VariableId(kQ1, kS2, 2).status().code(),
            StatusCode::kNotFound);
}

TEST(TermIndexTest, RoundTripVariableIds) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  for (uint32_t var = 0; var < index.num_variables(); ++var) {
    const Term& term = index.TermOf(var);
    EXPECT_EQ(index.VariableId(term.qi, term.sa, term.bucket).ValueOrDie(),
              var);
  }
}

TEST(TermIndexTest, TermNamesUsePaperNotation) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  const uint32_t var = index.VariableId(kQ1, kS2, 0).ValueOrDie();
  EXPECT_EQ(index.TermName(var, t), "P(q1,s2,b1)");
}

// ----------------------------------------------------------- Invariants

TEST(InvariantsTest, CountsPerBucket) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto invariants = GenerateInvariants(t, index);
  // g + h = 6 per bucket, 3 buckets.
  EXPECT_EQ(invariants.size(), 18u);
  InvariantOptions concise;
  concise.drop_redundant_row = true;
  EXPECT_EQ(GenerateInvariants(t, index, concise).size(), 15u);
}

TEST(InvariantsTest, PaperQiInvariantExample) {
  // Paper Eq. (4) example: P(q1,s1,1)+P(q1,s2,1)+P(q1,s3,1) = P(q1,1) = 2/10.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto invariants = GenerateInvariants(t, index);
  bool found = false;
  for (const auto& c : invariants) {
    // The QI row of q1 in bucket 1: every term is P(q1, ·, b1).
    if (c.source != ConstraintSource::kQiInvariant) continue;
    const Term& term = index.TermOf(c.vars.front());
    if (term.bucket != 0 || term.qi != kQ1) continue;
    found = true;
    EXPECT_DOUBLE_EQ(c.rhs, 0.2);
    ASSERT_EQ(c.vars.size(), 3u);
    std::vector<uint32_t> expected = {
        index.VariableId(kQ1, kS1, 0).ValueOrDie(),
        index.VariableId(kQ1, kS2, 0).ValueOrDie(),
        index.VariableId(kQ1, kS3, 0).ValueOrDie()};
    EXPECT_EQ(c.vars, expected);
  }
  EXPECT_TRUE(found);
}

TEST(InvariantsTest, PaperSaInvariantExample) {
  // Paper Eq. (5) example: P(q1,s4,2)+P(q3,s4,2)+P(q4,s4,2) = P(s4,2) = 1/10.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto invariants = GenerateInvariants(t, index);
  bool found = false;
  for (const auto& c : invariants) {
    // The SA row of s4 in bucket 2: every term is P(·, s4, b2).
    if (c.source != ConstraintSource::kSaInvariant) continue;
    const Term& term = index.TermOf(c.vars.front());
    if (term.bucket != 1 || term.sa != kS4) continue;
    found = true;
    EXPECT_DOUBLE_EQ(c.rhs, 0.1);
    std::vector<uint32_t> sorted_vars = c.vars;
    std::sort(sorted_vars.begin(), sorted_vars.end());
    std::vector<uint32_t> expected = {
        index.VariableId(kQ1, kS4, 1).ValueOrDie(),
        index.VariableId(kQ3, kS4, 1).ValueOrDie(),
        index.VariableId(kQ4, kS4, 1).ValueOrDie()};
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sorted_vars, expected);
  }
  EXPECT_TRUE(found);
}

TEST(InvariantsTest, SoundnessUnderGroundTruth) {
  // Theorem 1: the ground-truth assignment satisfies every invariant.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto invariants = GenerateInvariants(t, index);
  auto p = Assignment::FromRecords(t).TermProbabilities(index);
  EXPECT_LT(MaxInvariantViolation(invariants, p), 1e-12);
}

TEST(InvariantsTest, SoundnessUnderManyRandomAssignments) {
  // Theorem 1, property form: invariants hold under *every* assignment.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto invariants = GenerateInvariants(t, index);
  Prng prng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    auto p = Assignment::Random(t, prng).TermProbabilities(index);
    EXPECT_LT(MaxInvariantViolation(invariants, p), 1e-12);
  }
}

TEST(InvariantsTest, ConcisenessRankIsGPlusHMinus1) {
  // Theorem 3: per bucket, rank of the invariant matrix is g + h - 1.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  for (uint32_t b = 0; b < t.num_buckets(); ++b) {
    const size_t g = index.BucketQiList(b).size();
    const size_t h = index.BucketSaList(b).size();
    EXPECT_EQ(BucketInvariantRank(t, index, b), g + h - 1) << "bucket " << b;
  }
}

TEST(InvariantsTest, CompletenessForInvariantExpressions) {
  // Theorem 2 ("if" direction): linear combinations of base invariants
  // are invariants and lie in the row space.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  Prng prng(7);
  for (int trial = 0; trial < 50; ++trial) {
    for (uint32_t b = 0; b < t.num_buckets(); ++b) {
      auto m = BucketInvariantMatrix(t, index, b);
      // Random combination of the bucket's invariant rows.
      std::vector<double> combo(m.cols(), 0.0);
      for (size_t r = 0; r < m.rows(); ++r) {
        const double w = prng.NextDouble(-2.0, 2.0);
        for (size_t c = 0; c < m.cols(); ++c) combo[c] += w * m.At(r, c);
      }
      EXPECT_TRUE(InRowSpaceOfInvariants(t, index, b, combo));
    }
  }
}

TEST(InvariantsTest, CompletenessRejectsNonInvariants) {
  // Theorem 2 ("only if" direction): a single probability term is NOT an
  // invariant (the paper's example: P(q1,s1,1) varies across assignments)
  // and must not lie in the row space.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  const auto [first, last] = index.BucketRange(0);
  for (uint32_t var = first; var < last; ++var) {
    std::vector<double> e(last - first, 0.0);
    e[var - first] = 1.0;
    EXPECT_FALSE(InRowSpaceOfInvariants(t, index, 0, e))
        << index.TermName(var, t);
  }
}

TEST(InvariantsTest, NonInvariantValueVariesAcrossAssignments) {
  // Direct check of the Definition 5.4 example: P(q1,s1,1) takes different
  // values under different assignments.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  const uint32_t var = index.VariableId(kQ1, kS1, 0).ValueOrDie();
  Prng prng(3);
  double lo = 1e9, hi = -1e9;
  for (int trial = 0; trial < 100; ++trial) {
    auto p = Assignment::Random(t, prng).TermProbabilities(index);
    lo = std::min(lo, p[var]);
    hi = std::max(hi, p[var]);
  }
  EXPECT_LT(lo, hi);  // not constant => not an invariant
}

// ----------------------------------------------------------- Assignment

TEST(AssignmentTest, ProbabilitiesSumToOne) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  Prng prng(5);
  for (int trial = 0; trial < 20; ++trial) {
    auto p = Assignment::Random(t, prng).TermProbabilities(index);
    double sum = 0.0;
    for (double v : p) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(AssignmentTest, SwapSaChangesOnlyThatBucket) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto a = Assignment::FromRecords(t);
  auto before = a.TermProbabilities(index);
  a.SwapSa(0, 0, 2);  // swap Allen's and Cathy's diseases
  auto after = a.TermProbabilities(index);
  const auto [b1_first, b1_last] = index.BucketRange(0);
  bool changed_inside = false;
  for (uint32_t v = 0; v < index.num_variables(); ++v) {
    if (v >= b1_first && v < b1_last) {
      changed_inside |= std::fabs(before[v] - after[v]) > 1e-12;
    } else {
      EXPECT_NEAR(before[v], after[v], 1e-15);
    }
  }
  EXPECT_TRUE(changed_inside);
}

// ---------------------------------------------------------- BK compiler

TEST(BkCompilerTest, PaperFluMaleExample) {
  // Section 4.1: P(Flu | male) = 0.3 compiles to a constraint with RHS
  // 0.3 * P(male) = 0.18 whose materialized terms are P(q1,s2,b1),
  // P(q3,s2,b1) and P(q6,s2,b3). (The paper also writes the term
  // P({male,college}, Flu, 3); that term is a Zero-invariant — q1 does
  // not occur in bucket 3 — so dropping it leaves an equivalent
  // constraint.)
  auto dataset = pme::testing::MakeFigure1Dataset();
  auto bz = anonymize::BucketizeDataset(dataset,
                                        pme::testing::Figure1Partition())
                .ValueOrDie();
  auto index = TermIndex::Build(bz.table);

  const size_t gender = dataset.schema().IndexOf("gender").ValueOrDie();
  const uint32_t male =
      dataset.schema().attribute(gender).dictionary.Lookup("male").ValueOrDie();

  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::MakeConditional({gender}, {male}, kS2, 0.3));

  auto compiled =
      CompileKnowledge(kb, bz.table, index, &bz.qi_encoder).ValueOrDie();
  ASSERT_EQ(compiled.constraints.size(), 1u);
  const auto& c = compiled.constraints[0];
  EXPECT_NEAR(c.rhs, 0.18, 1e-12);
  std::vector<uint32_t> sorted_vars = c.vars;
  std::sort(sorted_vars.begin(), sorted_vars.end());
  std::vector<uint32_t> expected = {index.VariableId(kQ1, kS2, 0).ValueOrDie(),
                                    index.VariableId(kQ3, kS2, 0).ValueOrDie(),
                                    index.VariableId(kQ6, kS2, 2).ValueOrDie()};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sorted_vars, expected);
  EXPECT_EQ(c.source, ConstraintSource::kBackground);
}

TEST(BkCompilerTest, MatchQiInstancesForMale) {
  auto dataset = pme::testing::MakeFigure1Dataset();
  auto bz = anonymize::BucketizeDataset(dataset,
                                        pme::testing::Figure1Partition())
                .ValueOrDie();
  const size_t gender = dataset.schema().IndexOf("gender").ValueOrDie();
  const uint32_t male =
      dataset.schema().attribute(gender).dictionary.Lookup("male").ValueOrDie();
  knowledge::ConditionalStatement stmt;
  stmt.attrs = {gender};
  stmt.values = {male};
  auto matches = MatchQiInstances(stmt, bz.qi_encoder,
                                  QiPostings::Build(bz.qi_encoder))
                     .ValueOrDie();
  std::sort(matches.begin(), matches.end());
  EXPECT_EQ(matches, (std::vector<uint32_t>{kQ1, kQ3, kQ6}));
}

// The linear scan the posting lists replace: decode every interned tuple
// and keep those matching every (attribute, value) pair of the statement.
std::vector<uint32_t> ScanQiInstances(
    const knowledge::ConditionalStatement& stmt,
    const data::TupleEncoder& encoder) {
  std::vector<uint32_t> matches;
  for (uint32_t q = 0; q < encoder.size(); ++q) {
    const auto& tuple = encoder.Decode(q);
    bool match = true;
    for (size_t i = 0; i < stmt.attrs.size() && match; ++i) {
      const auto pos = std::find(encoder.attrs().begin(),
                                 encoder.attrs().end(), stmt.attrs[i]) -
                       encoder.attrs().begin();
      match = tuple[static_cast<size_t>(pos)] == stmt.values[i];
    }
    if (match) matches.push_back(q);
  }
  return matches;
}

TEST(BkCompilerTest, IndexedMatchEqualsLinearScan) {
  // Four QI attributes (dataset columns 1, 3, 4, 6) with small value
  // ranges, so multi-attribute statements match a few tuples each.
  data::TupleEncoder encoder({1, 3, 4, 6});
  std::mt19937 rng(7);
  for (int i = 0; i < 400; ++i) {
    encoder.EncodeCodes({static_cast<uint32_t>(rng() % 5),
                         static_cast<uint32_t>(rng() % 3),
                         static_cast<uint32_t>(rng() % 7),
                         static_cast<uint32_t>(rng() % 4)});
  }
  const QiPostings postings = QiPostings::Build(encoder);
  const std::vector<size_t> qi_attrs = {1, 3, 4, 6};
  for (int trial = 0; trial < 300; ++trial) {
    knowledge::ConditionalStatement stmt;
    std::vector<size_t> attrs = qi_attrs;
    std::shuffle(attrs.begin(), attrs.end(), rng);
    attrs.resize(1 + rng() % 3);
    for (const size_t attr : attrs) {
      stmt.attrs.push_back(attr);
      // Codes up to 8 include values no tuple carries.
      stmt.values.push_back(static_cast<uint32_t>(rng() % 9));
    }
    const auto indexed = MatchQiInstances(stmt, encoder, postings);
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    EXPECT_EQ(indexed.value(), ScanQiInstances(stmt, encoder))
        << "trial " << trial;
  }

  knowledge::ConditionalStatement absent;
  absent.attrs = {1, 4};
  absent.values = {2, 40};
  EXPECT_TRUE(MatchQiInstances(absent, encoder, postings).value().empty());

  // The empty Qv matches every tuple; a repeated attribute keeps the
  // tuples carrying both of its values.
  const knowledge::ConditionalStatement empty;
  EXPECT_EQ(MatchQiInstances(empty, encoder, postings).value(),
            ScanQiInstances(empty, encoder));
  EXPECT_EQ(MatchQiInstances(empty, encoder, postings).value().size(),
            encoder.size());
  for (const uint32_t second : {2u, 3u}) {
    knowledge::ConditionalStatement repeated;
    repeated.attrs = {4, 1, 4};
    repeated.values = {2, 1, second};
    EXPECT_EQ(MatchQiInstances(repeated, encoder, postings).value(),
              ScanQiInstances(repeated, encoder));
  }

  knowledge::ConditionalStatement not_qi;
  not_qi.attrs = {3, 5};
  not_qi.values = {0, 0};
  const auto error = MatchQiInstances(not_qi, encoder, postings);
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(error.status().message().find("not a quasi-identifier"),
            std::string::npos);
}

// The memo keeps its resident bytes within its budget: least recently
// used entries go first, an entry larger than the whole budget is not
// kept, and a handed-out entry outlives its eviction. The process-wide
// compile.memo_bytes gauge follows the resident bytes and gets them back
// when the memo goes.
TEST(StatementTermMemoTest, ResidentBytesStayWithinTheBudget) {
  const auto terms = [](size_t num_vars) {
    auto t = std::make_shared<StatementTerms>();
    t->vars.assign(num_vars, 7u);
    t->prob_qv = 0.25;
    return std::shared_ptr<const StatementTerms>(std::move(t));
  };
  const auto key = [](uint64_t i) {
    Hasher128 h;
    h.Update(i);
    return h.Finish();
  };
  const metrics::Gauge& gauge =
      metrics::Registry::Global().GetGauge("compile.memo_bytes");
  const int64_t gauge_before = gauge.Value();
  {
    constexpr size_t kBudget = 4096;
    StatementTermMemo memo(kBudget);
    std::mt19937 rng(11);
    for (uint64_t i = 0; i < 200; ++i) {
      memo.Insert(key(i), terms(rng() % 300));
      EXPECT_LE(memo.resident_bytes(), kBudget) << i;
      EXPECT_EQ(gauge.Value() - gauge_before,
                static_cast<int64_t>(memo.resident_bytes()));
    }
    EXPECT_GT(memo.size(), 1u);

    const auto huge = terms(kBudget);
    memo.Insert(key(1000), huge);
    EXPECT_EQ(memo.Find(key(1000)), nullptr);
    EXPECT_EQ(huge->vars.size(), kBudget);
    EXPECT_LE(memo.resident_bytes(), kBudget);

    // Re-inserting a key replaces its entry and recharges its bytes.
    memo.Insert(key(2000), terms(10));
    const size_t with_small = memo.resident_bytes();
    memo.Insert(key(2000), terms(20));
    EXPECT_LE(memo.resident_bytes(), with_small + 20 * sizeof(uint32_t));
    EXPECT_EQ(memo.Find(key(2000))->vars.size(), 20u);
  }
  EXPECT_EQ(gauge.Value(), gauge_before);

  // Room for three entries: a lookup refreshes the oldest one, so the
  // next insertion evicts the second oldest instead.
  StatementTermMemo lru(3 * StatementTermMemo::EntryBytes(*terms(10)));
  for (uint64_t i = 0; i < 3; ++i) lru.Insert(key(i), terms(10));
  ASSERT_EQ(lru.size(), 3u);
  ASSERT_NE(lru.Find(key(0)), nullptr);
  lru.Insert(key(3), terms(10));
  EXPECT_NE(lru.Find(key(0)), nullptr);
  EXPECT_EQ(lru.Find(key(1)), nullptr);
  EXPECT_NE(lru.Find(key(2)), nullptr);
  EXPECT_NE(lru.Find(key(3)), nullptr);
}

// A compiled statement's variables are strictly ascending, whatever
// order the matched QI instances, buckets and S-set emit them in, and
// the memo hands the same ascending terms back. Such a row is canonical:
// its signature is that of the same row in any order.
TEST(BkCompilerTest, StatementTermsAscendAndHashLikeAnyOrder) {
  core::PipelineOptions options;
  options.data.num_records = 400;
  options.anatomy.ell = 5;
  options.miner.min_support_records = 3;
  options.miner.max_attrs = 2;
  const auto pipeline = core::BuildPipeline(options).ValueOrDie();
  const anonymize::BucketizedTable& table = pipeline.bucketization.table;
  const TermIndex index = TermIndex::Build(table);
  knowledge::KnowledgeBase kb;
  kb.AddRules(knowledge::TopK(pipeline.rules, 32, 32));
  StatementTermMemo memo;
  const auto compile = [&] {
    return CompileKnowledge(kb, table, index,
                            &pipeline.bucketization.qi_encoder, nullptr,
                            &memo)
        .ValueOrDie();
  };
  const CompiledKnowledge cold = compile();
  const CompiledKnowledge memoized = compile();
  EXPECT_EQ(memoized.memo_hits, kb.size());
  ASSERT_EQ(cold.constraints.size(), memoized.constraints.size());
  ASSERT_FALSE(cold.constraints.empty());

  std::mt19937 rng(5);
  size_t emitted_out_of_order = 0;
  for (size_t i = 0; i < cold.constraints.size(); ++i) {
    const LinearConstraint& c = cold.constraints[i];
    EXPECT_EQ(c.vars, memoized.constraints[i].vars) << i;
    for (size_t k = 1; k < c.vars.size(); ++k) {
      ASSERT_LT(c.vars[k - 1], c.vars[k]) << "row " << i << " entry " << k;
    }
    // The compiler's emission order: QI instance, then bucket, then SA
    // value, each ascending.
    std::vector<uint32_t> emitted = c.vars;
    std::sort(emitted.begin(), emitted.end(), [&](uint32_t a, uint32_t b) {
      const Term& x = index.TermOf(a);
      const Term& y = index.TermOf(b);
      return std::tie(x.qi, x.bucket, x.sa) < std::tie(y.qi, y.bucket, y.sa);
    });
    if (emitted != c.vars) ++emitted_out_of_order;

    LinearConstraint shuffled = c;
    std::vector<size_t> order(c.vars.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t k = 0; k < order.size(); ++k) {
      shuffled.vars[k] = c.vars[order[k]];
      shuffled.coefs[k] = c.coefs[order[k]];
    }
    EXPECT_EQ(ConstraintRowSignature(shuffled), ConstraintRowSignature(c))
        << i;
  }
  // The table gives the test rows that the compiler emits out of order.
  EXPECT_GT(emitted_out_of_order, 0u);
}

TEST(BkCompilerTest, AbstractSection55Example) {
  // Section 5.5: P(s3 | q3) = 0.5 with P(q3) = 2/10 gives
  // P(q3,s3,1) + P(q3,s3,2) = 0.1.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.5));
  auto compiled = CompileKnowledge(kb, t, index).ValueOrDie();
  ASSERT_EQ(compiled.constraints.size(), 1u);
  const auto& c = compiled.constraints[0];
  EXPECT_NEAR(c.rhs, 0.1, 1e-12);
  std::vector<uint32_t> sorted_vars = c.vars;
  std::sort(sorted_vars.begin(), sorted_vars.end());
  std::vector<uint32_t> expected = {index.VariableId(kQ3, kS3, 0).ValueOrDie(),
                                    index.VariableId(kQ3, kS3, 1).ValueOrDie()};
  EXPECT_EQ(sorted_vars, expected);
}

TEST(BkCompilerTest, SaSetStatement) {
  // Section 3.1: P(s1 or s2 | q3) = 0 — an S-set statement with zero RHS.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS1, kS2}, 0.0));
  auto compiled = CompileKnowledge(kb, t, index).ValueOrDie();
  ASSERT_EQ(compiled.constraints.size(), 1u);
  EXPECT_DOUBLE_EQ(compiled.constraints[0].rhs, 0.0);
  // q3 occurs in buckets 1 and 2; s1 in both, s2 only in bucket 1.
  EXPECT_EQ(compiled.constraints[0].vars.size(), 3u);
}

TEST(BkCompilerTest, InfeasibleStatementDetected) {
  // s5 never shares a bucket with q1 — asserting P(s5 | q1) > 0
  // contradicts the published table.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ1, {kS5}, 0.5));
  auto result = CompileKnowledge(kb, t, index);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(BkCompilerTest, ZeroOverImpossibleIsVacuouslySatisfied) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ1, {kS5}, 0.0));
  auto compiled = CompileKnowledge(kb, t, index).ValueOrDie();
  EXPECT_TRUE(compiled.constraints.empty());
}

TEST(BkCompilerTest, InequalityStatementsKeepRelation) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.6,
                                        knowledge::Relation::kLe));
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.4,
                                        knowledge::Relation::kGe));
  auto compiled = CompileKnowledge(kb, t, index).ValueOrDie();
  ASSERT_EQ(compiled.constraints.size(), 2u);
  EXPECT_EQ(compiled.constraints[0].rel, Relation::kLe);
  EXPECT_EQ(compiled.constraints[1].rel, Relation::kGe);
}

TEST(BkCompilerTest, DatasetModeWithoutEncoderFails) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::MakeConditional({0}, {0}, kS2, 0.3));
  EXPECT_FALSE(CompileKnowledge(kb, t, index).ok());
}

TEST(BkCompilerTest, RejectsOutOfRangeProbability) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 1.5));
  EXPECT_FALSE(CompileKnowledge(kb, t, index).ok());
}

// -------------------------------------------------------------- System

TEST(ConstraintSystemTest, ProblemStacksEqualitiesFirst) {
  ConstraintSystem system(4);
  LinearConstraint le;
  le.vars = {2};
  le.coefs = {1.0};
  le.rel = Relation::kLe;
  le.rhs = 0.3;
  system.Add(le);
  LinearConstraint eq;
  eq.vars = {0, 1};
  eq.coefs = {1.0, 1.0};
  eq.rhs = 0.5;
  system.Add(eq);
  LinearConstraint ge;
  ge.vars = {3};
  ge.coefs = {1.0};
  ge.rel = Relation::kGe;
  ge.rhs = 0.1;
  system.Add(ge);

  // The equality row moves first; the inequality rows keep their order.
  auto problem = maxent::BuildProblem(system).ValueOrDie();
  EXPECT_EQ(problem.num_eq, 1u);
  ASSERT_EQ(problem.a.rows(), 3u);
  EXPECT_DOUBLE_EQ(problem.a.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(problem.a.At(1, 2), 1.0);
  // kGe was negated into kLe form.
  EXPECT_DOUBLE_EQ(problem.a.At(2, 3), -1.0);
  EXPECT_EQ(problem.rhs, (std::vector<double>{0.5, 0.3, -0.1}));
}

TEST(ConstraintSystemTest, ViolationMeasures) {
  ConstraintSystem system(2);
  LinearConstraint c;
  c.vars = {0, 1};
  c.coefs = {1.0, 1.0};
  c.rhs = 1.0;
  system.Add(c);
  EXPECT_NEAR(system.MaxViolation({0.5, 0.5}), 0.0, 1e-15);
  EXPECT_NEAR(system.MaxViolation({0.5, 0.2}), 0.3, 1e-12);
}

/// Definition 5.6 as the planner decides it: a bucket is relevant iff
/// it lies in one of the knowledge-coupled blocks.
std::vector<bool> BucketRelevance(const anonymize::BucketizedTable& table,
                                  const TermIndex& index,
                                  const ConstraintSystem& system) {
  const maxent::BlockPlan plan =
      maxent::BlockPlan::Build(table, index, system).ValueOrDie();
  std::vector<bool> relevant(index.num_buckets(), false);
  for (const maxent::PlanBlock& block : plan.blocks()) {
    for (const uint32_t b : block.buckets) relevant[b] = true;
  }
  return relevant;
}

TEST(ConstraintSystemTest, IrrelevantBucketAnalysis) {
  // Section 5.5 / Definition 5.6: with P(s3 | q3) knowledge, buckets 1
  // and 2 are relevant (q3 lives there), bucket 3 is irrelevant.
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(GenerateInvariants(t, index));
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ3, {kS3}, 0.5));
  auto compiled = CompileKnowledge(kb, t, index).ValueOrDie();
  system.AddAll(std::move(compiled.constraints));

  auto relevant = BucketRelevance(t, index, system);
  ASSERT_EQ(relevant.size(), 3u);
  EXPECT_TRUE(relevant[0]);
  EXPECT_TRUE(relevant[1]);
  EXPECT_FALSE(relevant[2]);
  EXPECT_EQ(system.CountBySource(ConstraintSource::kBackground), 1u);
  EXPECT_EQ(system.CountBySource(ConstraintSource::kQiInvariant), 9u);
}

TEST(ConstraintSystemTest, NoKnowledgeMeansAllIrrelevant) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  ConstraintSystem system(index.num_variables());
  system.AddAll(GenerateInvariants(t, index));
  auto relevant = BucketRelevance(t, index, system);
  ASSERT_EQ(relevant.size(), 3u);
  for (bool r : relevant) EXPECT_FALSE(r);
}

}  // namespace
}  // namespace pme::constraints
