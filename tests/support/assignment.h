// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_TESTS_SUPPORT_ASSIGNMENT_H_
#define PME_TESTS_SUPPORT_ASSIGNMENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/prng.h"
#include "constraints/term_index.h"

namespace pme::constraints {

/// An assignment Λ (Definitions 5.2/5.3): for every bucket, a bijection
/// between the bucket's QI occurrences and SA occurrences — one of the
/// "possible worlds" consistent with the published table. The original
/// data is one particular assignment.
///
/// Assignments exist to *test* the invariant theory: an expression is an
/// invariant iff its value is identical across all assignments, so the
/// property tests evaluate candidate expressions under many random
/// assignments.
class Assignment {
 public:
  /// The ground-truth assignment recorded in the table.
  static Assignment FromRecords(const anonymize::BucketizedTable& table);

  /// A uniformly random assignment: each bucket's SA multiset is shuffled
  /// against its QI occurrence list.
  static Assignment Random(const anonymize::BucketizedTable& table,
                           Prng& prng);

  /// The (qi, sa) pairs of bucket b, one per record.
  const std::vector<std::pair<uint32_t, uint32_t>>& BucketPairs(
      uint32_t b) const {
    return pairs_[b];
  }

  /// Swaps the SA values of two pairs within bucket b — the elementary
  /// move between assignments used in the completeness proof (Step 2).
  void SwapSa(uint32_t b, size_t i, size_t j);

  /// Term probabilities under this assignment: p[var] = (#pairs matching
  /// the term) / N, over the TermIndex numbering. Terms not realized by
  /// the assignment get 0.
  std::vector<double> TermProbabilities(const TermIndex& index) const;

  /// Total number of records.
  size_t num_records() const { return num_records_; }

 private:
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> pairs_;
  size_t num_records_ = 0;
};

}  // namespace pme::constraints

#endif  // PME_TESTS_SUPPORT_ASSIGNMENT_H_
