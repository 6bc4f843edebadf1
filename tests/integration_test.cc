// End-to-end integration tests: the full pipeline of the paper's
// evaluation (synthetic Adult-like data -> 5-diversity bucketization ->
// rule mining -> Privacy-MaxEnt) at reduced scale, checking the headline
// behaviours the figures rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "anonymize/diversity.h"
#include "bench/bench_common.h"
#include "common/vec_math.h"
#include "maxent/decomposed.h"
#include "knowledge/miner.h"
#include "tests/support/experiment.h"

namespace pme::core {
namespace {

PipelineOptions SmallPipeline() {
  PipelineOptions options;
  options.data.num_records = 600;
  options.data.seed = 424242;
  options.anatomy.ell = 5;
  options.miner.min_support_records = 3;
  options.miner.max_attrs = 2;
  return options;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new ExperimentPipeline(
        BuildPipeline(SmallPipeline()).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  static ExperimentPipeline* pipeline_;
};

ExperimentPipeline* PipelineTest::pipeline_ = nullptr;

TEST_F(PipelineTest, BucketizationIsDiverse) {
  const auto& table = pipeline_->bucketization.table;
  EXPECT_EQ(table.num_records(), 600u);
  EXPECT_EQ(table.num_buckets(), 120u);
  const uint32_t exempt = anonymize::MostFrequentSa(table);
  EXPECT_TRUE(anonymize::SatisfiesDistinctDiversity(table, 4, exempt));
}

TEST_F(PipelineTest, MinerFindsBothPolarities) {
  size_t pos = 0, neg = 0;
  for (const auto& r : pipeline_->rules) (r.positive ? pos : neg) += 1;
  EXPECT_GT(pos, 10u);
  EXPECT_GT(neg, 10u);
}

TEST_F(PipelineTest, NoKnowledgeBaseline) {
  auto analysis = AnalyzeWithRules(*pipeline_, {}).ValueOrDie();
  EXPECT_TRUE(analysis.solver.converged);
  EXPECT_EQ(analysis.num_background_constraints, 0u);
  EXPECT_EQ(analysis.decomposition.relevant_buckets, 0u);
  EXPECT_GT(analysis.estimation_accuracy, 0.0);
  EXPECT_LT(analysis.solver.max_violation, 1e-7);
}

TEST_F(PipelineTest, KnowledgeMonotonicallyErodesPrivacy) {
  // The Figure-5 claim at small scale: estimation accuracy (weighted KL
  // to the truth) decreases as Top-(K+, K-) knowledge grows.
  const auto& rules = pipeline_->rules;
  std::vector<double> accuracy;
  for (size_t k : {0, 20, 100, 400}) {
    auto top = knowledge::TopK(rules, k / 2, k / 2);
    auto analysis = AnalyzeWithRules(*pipeline_, top).ValueOrDie();
    EXPECT_LT(analysis.solver.max_violation, 1e-5) << "K=" << k;
    accuracy.push_back(analysis.estimation_accuracy);
  }
  // Step-to-step the conditional-space KL may wobble slightly (the
  // I-projection guarantee is on the joint), so allow small slack, but
  // the overall trend must be a clear drop.
  for (size_t i = 1; i < accuracy.size(); ++i) {
    EXPECT_LE(accuracy[i], accuracy[i - 1] + 0.02) << "step " << i;
  }
  EXPECT_LT(accuracy.back(), accuracy.front() * 0.8);
}

TEST_F(PipelineTest, MixedKnowledgeBeatsSinglePolarity) {
  // Figure 5's second claim: at equal K, the (K+, K-) mix erodes privacy
  // at least as much as negative-only rules of the same budget.
  const auto& rules = pipeline_->rules;
  const size_t k = 200;
  auto mixed = AnalyzeWithRules(*pipeline_,
                                knowledge::TopK(rules, k / 2, k / 2))
                   .ValueOrDie();
  auto neg_only =
      AnalyzeWithRules(*pipeline_, knowledge::TopK(rules, 0, k)).ValueOrDie();
  // Negative-only rules carry much redundancy (most say "q rarely has s");
  // the mix should recover the truth at least as well.
  EXPECT_LE(mixed.estimation_accuracy,
            neg_only.estimation_accuracy + 0.05);
}

TEST_F(PipelineTest, DecompositionSpeedsUpSparselyTouchedKnowledge) {
  const auto& rules = pipeline_->rules;
  auto top = knowledge::TopK(rules, 3, 3);
  auto analysis = AnalyzeWithRules(*pipeline_, top).ValueOrDie();
  // Six statements touch far fewer buckets than exist.
  EXPECT_LT(analysis.decomposition.relevant_buckets,
            pipeline_->bucketization.table.num_buckets());
}

TEST_F(PipelineTest, FullPipelineDeterminism) {
  auto a = BuildPipeline(SmallPipeline()).ValueOrDie();
  auto top = knowledge::TopK(a.rules, 10, 10);
  auto r1 = AnalyzeWithRules(a, top).ValueOrDie();
  auto r2 = AnalyzeWithRules(a, top).ValueOrDie();
  EXPECT_DOUBLE_EQ(r1.estimation_accuracy, r2.estimation_accuracy);
}

TEST_F(PipelineTest, SimdOffAndAutoAgreeEndToEnd) {
  // `--simd=off` must reproduce the vectorized pipeline: both solves
  // converge, and their posteriors agree to solver-tolerance order
  // (each run stops at ‖∇D‖∞ ≤ 1e-8, so the two optima can differ by
  // that much — kernel rounding itself is far below it).
  const auto saved = kernels::GetSimdMode();
  auto top = knowledge::TopK(pipeline_->rules, 20, 20);
  kernels::SetSimdMode(kernels::SimdMode::kOff);
  auto off = AnalyzeWithRules(*pipeline_, top).ValueOrDie();
  kernels::SetSimdMode(kernels::SimdMode::kAuto);
  auto vec = AnalyzeWithRules(*pipeline_, top).ValueOrDie();
  kernels::SetSimdMode(saved);

  EXPECT_TRUE(off.solver.converged);
  EXPECT_TRUE(vec.solver.converged);
  const std::vector<double> off_p = maxent::MaterializeJoint(off.solver);
  const std::vector<double> vec_p = maxent::MaterializeJoint(vec.solver);
  ASSERT_EQ(off_p.size(), vec_p.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < off_p.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(off_p[i] - vec_p[i]));
  }
  EXPECT_LE(max_diff, 1e-6);
  EXPECT_NEAR(off.estimation_accuracy, vec.estimation_accuracy, 1e-6);
}

TEST(CsvWriterTest, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/pme_csv_writer_test.csv";
  {
    bench::CsvWriter writer(path, {"k", "accuracy"});
    ASSERT_TRUE(writer.ok());
    writer.Row({10, 0.5});
    writer.Row({20, 0.25});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "k,accuracy");
  std::getline(in, line);
  EXPECT_EQ(line, "10,0.5");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, EmptyPathDisablesOutput) {
  bench::CsvWriter writer("", {"a"});
  EXPECT_TRUE(writer.ok());
  writer.Row({1.0});  // must not crash
}

}  // namespace
}  // namespace pme::core
