// Tests for the privacy report renderer (core/report).

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "anonymize/anatomy.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "core/analysis_session.h"
#include "core/report.h"
#include "core/table_artifact.h"
#include "data/adult_synth.h"
#include "knowledge/knowledge_base.h"
#include "tests/test_util.h"

namespace pme::core {
namespace {

using pme::testing::kQ5;
using pme::testing::kS1;
using pme::testing::kS2;
using pme::testing::kS4;

/// The report's "%.2e" rendering of a violation.
std::string Sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

class ReportTest : public ::testing::Test {
 protected:
  ReportTest() : table_(pme::testing::MakeFigure1Table()) {}
  anonymize::BucketizedTable table_;
};

TEST_F(ReportTest, ContainsAllSections) {
  knowledge::KnowledgeBase empty;
  auto analysis = Analyze(table_, empty).ValueOrDie();
  const std::string report = RenderPrivacyReport(table_, analysis);
  for (const char* section :
       {"[published table]", "[assumed adversary knowledge — the bound]",
        "[maxent solve]", "[privacy under this bound]",
        "[highest-risk individuals]"}) {
    EXPECT_NE(report.find(section), std::string::npos) << section;
  }
  EXPECT_NE(report.find("records:            10"), std::string::npos);
  EXPECT_NE(report.find("buckets:            3"), std::string::npos);
}

TEST_F(ReportTest, KnowledgeCensusCanBeSuppressed) {
  knowledge::KnowledgeBase empty;
  auto analysis = Analyze(table_, empty).ValueOrDie();
  ReportOptions options;
  options.include_knowledge_census = false;
  const std::string report = RenderPrivacyReport(table_, analysis, options);
  EXPECT_EQ(report.find("[assumed adversary knowledge"), std::string::npos);
}

TEST_F(ReportTest, CertainDisclosureIsFlagged) {
  // Breast-cancer knowledge makes q4 -> s1 certain; the report must list
  // it first and count one near-certain link for q4 (plus any others).
  knowledge::KnowledgeBase kb;
  for (uint32_t male_q : {pme::testing::kQ1, pme::testing::kQ3,
                          pme::testing::kQ6}) {
    kb.Add(knowledge::AbstractConditional(male_q, {kS1}, 0.0));
  }
  auto analysis = Analyze(table_, kb).ValueOrDie();
  ReportOptions options;
  options.top_risks = 3;
  const std::string report = RenderPrivacyReport(table_, analysis, options);
  EXPECT_NE(report.find("1. q4 -> s1  (posterior 1.0000)"),
            std::string::npos)
      << report;
  EXPECT_EQ(report.find("4. "), std::string::npos) << "top_risks respected";
}

TEST_F(ReportTest, TopRisksRespectsTableSize) {
  knowledge::KnowledgeBase empty;
  auto analysis = Analyze(table_, empty).ValueOrDie();
  ReportOptions options;
  options.top_risks = 100;  // more than 6 QI instances
  const std::string report = RenderPrivacyReport(table_, analysis, options);
  EXPECT_NE(report.find("6. "), std::string::npos);
  EXPECT_EQ(report.find("7. "), std::string::npos);
}

TEST_F(ReportTest, BlockLineSaysAnIterateWasKept) {
  // Three iterations cannot meet the tolerance, but they already bring
  // the block closer to its rows than the closed-form prior: the block
  // keeps its iterate, and the report says so with the solve's status,
  // iterations and worst violation.
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(pme::testing::kQ4, {kS1}, 0.9));
  AnalysisOptions options;
  options.solver_options.max_iterations = 3;
  metrics::Counter& not_converged =
      metrics::Registry::Global().GetCounter("solve.not_converged");
  const uint64_t before = not_converged.Value();
  auto analysis = Analyze(table_, kb, options).ValueOrDie();
  EXPECT_EQ(not_converged.Value(), before + 1);
  ASSERT_EQ(analysis.solver.component_outcomes.size(), 1u);
  const maxent::ComponentOutcome& outcome =
      analysis.solver.component_outcomes[0];
  EXPECT_TRUE(outcome.degraded);
  EXPECT_FALSE(outcome.used_prior);
  EXPECT_EQ(outcome.iterations, 3u);
  EXPECT_EQ(analysis.solver.components_degraded, 1u);
  const std::string report = RenderPrivacyReport(table_, analysis);
  EXPECT_NE(report.find("kept best iterate (not_converged; 3 iterations, "
                        "worst violation " +
                        Sci(outcome.max_violation) + ")"),
            std::string::npos)
      << report;
}

TEST_F(ReportTest, BlockLineSaysThePriorWasKept) {
  // A poisoned line search leaves the λ = 0 primal, which is no
  // distribution: the block keeps its closed-form prior instead.
  ASSERT_TRUE(failpoint::Configure("lbfgs_nan@1").ok());
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(pme::testing::kQ4, {kS1}, 0.9));
  metrics::Counter& not_converged =
      metrics::Registry::Global().GetCounter("solve.not_converged");
  const uint64_t before = not_converged.Value();
  auto analysis = Analyze(table_, kb);
  failpoint::Reset();
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(not_converged.Value(), before + 1);
  const maxent::ComponentOutcome& outcome =
      analysis.value().solver.component_outcomes.at(0);
  EXPECT_TRUE(outcome.used_prior);
  const std::string report = RenderPrivacyReport(table_, analysis.value());
  EXPECT_NE(report.find("kept closed-form prior (not_converged; 1 "
                        "iterations, worst violation " +
                        Sci(outcome.max_violation) + ")"),
            std::string::npos)
      << report;
}

TEST_F(ReportTest, BlockLineCarriesTheBlockErrorMessage) {
  // q5 occurs once, in bucket 3 (index 2): each statement pins one term
  // of q5's row to 0.06 of its 0.1 mass, so presolve forces the third
  // term to -0.02 and rejects the block. The block keeps the prior; the
  // analysis still answers and the report says why.
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ5, {kS4}, 0.6));
  kb.Add(knowledge::AbstractConditional(kQ5, {kS2}, 0.6));
  auto artifact = TableArtifact::BuildBorrowed(table_).ValueOrDie();
  auto analysis = AnalysisSession(artifact).Run(kb).ValueOrDie();
  ASSERT_EQ(analysis.solver.component_outcomes.size(), 1u);
  const maxent::ComponentOutcome& outcome =
      analysis.solver.component_outcomes[0];
  EXPECT_TRUE(outcome.used_prior);
  EXPECT_EQ(outcome.status, StatusCode::kInfeasible);
  EXPECT_NE(outcome.message.find("a probability term is forced negative"),
            std::string::npos)
      << outcome.message;
  EXPECT_EQ(analysis.solver.components_failed, 1u);
  EXPECT_TRUE(analysis.solver.degraded);
  const std::string report = RenderPrivacyReport(table_, analysis);
  EXPECT_NE(report.find("kept closed-form prior (infeasible: presolve: a "
                        "probability term is forced negative; 0 iterations, "
                        "worst violation "),
            std::string::npos)
      << report;
}

TEST_F(ReportTest, PosteriorCsvShape) {
  knowledge::KnowledgeBase empty;
  auto analysis = Analyze(table_, empty).ValueOrDie();
  const std::string csv = PosteriorToCsv(table_, analysis);
  // Header + 6 QI * 5 SA rows.
  size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + 6u * 5u);
  EXPECT_EQ(csv.rfind("qi,sa,posterior\n", 0), 0u);
  EXPECT_NE(csv.find("q1,s2,"), std::string::npos);
}

/// Splits one RFC 4180 record (no embedded line breaks) into its fields.
std::vector<std::string> SplitCsvRecord(const std::string& line) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c != '"') {
        fields.back() += c;
      } else if (i + 1 < line.size() && line[i + 1] == '"') {
        fields.back() += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

TEST(PosteriorCsvTest, DatasetQiNamesAreQuotedFields) {
  data::AdultSynthOptions synth;
  synth.num_records = 400;
  const auto dataset = data::GenerateAdultLike(synth).ValueOrDie();
  anonymize::AnatomyOptions anatomy;
  anatomy.ell = 5;
  const auto partition =
      anonymize::AnatomyPartition(dataset, anatomy).ValueOrDie();
  const auto bz = anonymize::BucketizeDataset(dataset, partition).ValueOrDie();
  knowledge::KnowledgeBase empty;
  const auto analysis = Analyze(bz.table, empty).ValueOrDie();
  ASSERT_NE(bz.table.QiName(0).find(','), std::string::npos);

  std::istringstream csv(PosteriorToCsv(bz.table, analysis));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "qi,sa,posterior");
  size_t rows = 0;
  while (std::getline(csv, line)) {
    const uint32_t q = static_cast<uint32_t>(rows / bz.table.num_sa_values());
    const uint32_t s = static_cast<uint32_t>(rows % bz.table.num_sa_values());
    const std::vector<std::string> fields = SplitCsvRecord(line);
    ASSERT_EQ(fields.size(), 3u) << line;
    EXPECT_EQ(fields[0], bz.table.QiName(q));
    EXPECT_EQ(fields[1], bz.table.SaName(s));
    ++rows;
  }
  EXPECT_EQ(rows, static_cast<size_t>(bz.table.num_qi_values()) *
                      bz.table.num_sa_values());
}

TEST(HighestRiskTest, TiedPosteriorsListTheLowestQisInOrder) {
  // 200 buckets, each one QI instance with two records of distinct SAs:
  // every QI's best posterior is exactly 0.5, a 200-way tie.
  std::vector<anonymize::AbstractRecord> records;
  for (uint32_t q = 0; q < 200; ++q) {
    records.push_back({q, 0, q});
    records.push_back({q, 1, q});
  }
  const auto table =
      anonymize::BucketizedTable::Create(std::move(records)).ValueOrDie();
  knowledge::KnowledgeBase empty;
  const auto analysis = Analyze(table, empty).ValueOrDie();
  ReportOptions options;
  options.top_risks = 5;
  const std::string report = RenderPrivacyReport(table, analysis, options);
  const size_t list = report.find("[highest-risk individuals]");
  ASSERT_NE(list, std::string::npos);
  size_t at = list;
  for (int rank = 1; rank <= 5; ++rank) {
    const std::string entry = "  " + std::to_string(rank) + ". q" +
                              std::to_string(rank) +
                              " -> s1  (posterior 0.5000)\n";
    const size_t found = report.find(entry, at);
    ASSERT_NE(found, std::string::npos) << entry << report;
    at = found + entry.size();
  }
  EXPECT_EQ(report.find("  6. ", list), std::string::npos);
}

}  // namespace
}  // namespace pme::core
