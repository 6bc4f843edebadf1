// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared fixtures: the paper's running example (Figure 1) and small
// helpers used across test files.

#ifndef PME_TESTS_TEST_UTIL_H_
#define PME_TESTS_TEST_UTIL_H_

#include <memory>
#include <utility>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/math_util.h"
#include "common/span.h"
#include "constraints/constraint.h"
#include "constraints/term_index.h"
#include "data/dataset.h"
#include "maxent/block_plan.h"
#include "maxent/closed_form.h"
#include "maxent/decomposed.h"

namespace pme::testing {

// Abstract instance ids for Figure 1(c). QI instances:
//   q1 = {male, college}, q2 = {female, college}, q3 = {male, high school},
//   q4 = {female, junior}, q5 = {female, graduate}, q6 = {male, graduate}.
// SA instances:
//   s1 = Breast Cancer, s2 = Flu, s3 = Pneumonia, s4 = HIV, s5 = Lung Cancer.
inline constexpr uint32_t kQ1 = 0, kQ2 = 1, kQ3 = 2, kQ4 = 3, kQ5 = 4,
                          kQ6 = 5;
inline constexpr uint32_t kS1 = 0, kS2 = 1, kS3 = 2, kS4 = 3, kS5 = 4;

/// Copies a view into a vector, for EXPECT_EQ against a vector literal.
template <typename T>
std::vector<typename Span<T>::value_type> ToVector(Span<T> view) {
  return {view.begin(), view.end()};
}

/// The bucketized data set D' of Figure 1(c), with the original bindings
/// of Figure 1(a) as ground truth:
///   Bucket 1: Allen (q1,s2), Brian (q1,s3), Cathy (q2,s1), David (q3,s2)
///   Bucket 2: Ethan (q1,s4), Frank (q3,s3), Grace (q4,s1)
///   Bucket 3: Helen (q2,s4), Iris (q5,s5), James (q6,s2)
inline anonymize::BucketizedTable MakeFigure1Table() {
  std::vector<anonymize::AbstractRecord> records = {
      {kQ1, kS2, 0}, {kQ1, kS3, 0}, {kQ2, kS1, 0}, {kQ3, kS2, 0},
      {kQ1, kS4, 1}, {kQ3, kS3, 1}, {kQ4, kS1, 1},
      {kQ2, kS4, 2}, {kQ5, kS5, 2}, {kQ6, kS2, 2},
  };
  auto result = anonymize::BucketizedTable::Create(std::move(records));
  return std::move(result).value();
}

/// The concrete Figure 1(a) dataset (Gender, Degree -> Disease), with the
/// same bucketization. Useful for dataset-mode knowledge tests (e.g. the
/// paper's P(Flu | male) = 0.3 example).
inline data::Dataset MakeFigure1Dataset() {
  data::Schema schema;
  schema.AddAttribute("gender", data::AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("degree", data::AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("disease", data::AttributeRole::kSensitive);
  data::Dataset d(std::move(schema));
  auto add = [&d](const char* g, const char* deg, const char* dis) {
    (void)d.AppendRecordValues({g, deg, dis});
  };
  // Intern order fixes codes: ensure SA codes match kS1..kS5 by interning
  // diseases in the s1..s5 order via a first pass on dictionary.
  auto& sa_dict = d.mutable_schema().attribute(2).dictionary;
  sa_dict.Intern("breast-cancer");  // s1
  sa_dict.Intern("flu");            // s2
  sa_dict.Intern("pneumonia");      // s3
  sa_dict.Intern("hiv");            // s4
  sa_dict.Intern("lung-cancer");    // s5
  add("male", "college", "flu");            // Allen      b1
  add("male", "college", "pneumonia");      // Brian      b1
  add("female", "college", "breast-cancer");  // Cathy    b1
  add("male", "high-school", "flu");        // David      b1
  add("male", "college", "hiv");            // Ethan      b2
  add("male", "high-school", "pneumonia");  // Frank      b2
  add("female", "junior", "breast-cancer");  // Grace     b2
  add("female", "college", "hiv");          // Helen      b3
  add("female", "graduate", "lung-cancer");  // Iris      b3
  add("male", "graduate", "flu");           // James      b3
  return d;
}

/// Bucket assignment matching MakeFigure1Table for MakeFigure1Dataset.
inline std::vector<uint32_t> Figure1Partition() {
  return {0, 0, 0, 0, 1, 1, 1, 2, 2, 2};
}

/// The table's problem with `knowledge` as its request rows, solved the
/// way a request solves it: BlockPlan::Build (every invariant row kept),
/// the cache consulted, every block solved over the closed form. The
/// result carries the full joint in `p`.
inline Result<maxent::SolverResult> SolveTable(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index,
    const std::vector<constraints::LinearConstraint>& knowledge,
    const maxent::SolverOptions& options = {}) {
  maxent::BlockPlan plan =
      maxent::BlockPlan::Build(table, index, {}, knowledge);
  plan.ConsultCache(options);
  auto prior = std::make_shared<const std::vector<double>>(
      maxent::ClosedFormNoKnowledge(table, index));
  const double prior_entropy = Entropy(*prior);
  PME_ASSIGN_OR_RETURN(
      maxent::SolverResult result,
      maxent::SolveDecomposed(plan, std::move(prior), prior_entropy, options));
  result.p = maxent::MaterializeJoint(result);
  result.blocks.clear();
  result.prior.reset();
  return result;
}

}  // namespace pme::testing

#endif  // PME_TESTS_TEST_UTIL_H_
