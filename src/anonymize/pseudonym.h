// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_ANONYMIZE_PSEUDONYM_H_
#define PME_ANONYMIZE_PSEUDONYM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/status.h"

namespace pme::anonymize {

/// The expanded-identifier view of Section 6 / Figure 4: every record gets
/// a pseudonym; all occurrences of the same QI instance share the *set* of
/// pseudonyms assigned to that instance, reflecting that the adversary
/// cannot tell which occurrence belongs to which person.
///
/// Pseudonym ids are dense in [0, N): pseudonym k belongs to QI instance
/// `QiOf(k)`; the set of candidate (bucket, occurrence) slots for k is
/// every occurrence of that QI instance anywhere in the table.
class PseudonymTable {
 public:
  /// Builds the pseudonym expansion for `table` (which must outlive this
  /// object). Pseudonyms are numbered by QI instance in ascending order
  /// (all of q1's pseudonyms first, then q2's, ...), matching Figure 4.
  static Result<PseudonymTable> Create(const BucketizedTable* table);

  /// Total number of pseudonyms == number of records N.
  size_t num_pseudonyms() const { return qi_of_.size(); }

  /// The QI instance a pseudonym belongs to.
  uint32_t QiOf(uint32_t pseudonym) const { return qi_of_[pseudonym]; }

  /// All pseudonyms of a QI instance (Figure 4's {i1, i2, i3} for q1).
  const std::vector<uint32_t>& PseudonymsOf(uint32_t qi) const {
    return pseudonyms_of_qi_[qi];
  }

  /// Buckets in which a pseudonym may reside: all buckets containing its
  /// QI instance.
  Span<const uint32_t> CandidateBuckets(uint32_t pseudonym) const {
    return table_->BucketsWithQi(qi_of_[pseudonym]);
  }

  /// Resolves a person known to have QI instance `qi` to one of its
  /// pseudonyms (the first unclaimed one). This models the linking attack
  /// step "if we know Alice is in the data set, assign her any of the
  /// pseudonyms". Errors if more people are claimed than occurrences exist.
  Result<uint32_t> ClaimPseudonym(uint32_t qi);

  /// Display label "i{k+1}" matching the paper's notation.
  std::string Name(uint32_t pseudonym) const {
    return "i" + std::to_string(pseudonym + 1);
  }

  const BucketizedTable& table() const { return *table_; }

 private:
  PseudonymTable() = default;

  const BucketizedTable* table_ = nullptr;
  std::vector<uint32_t> qi_of_;
  std::vector<std::vector<uint32_t>> pseudonyms_of_qi_;
  std::vector<size_t> claimed_;  // per QI instance
};

}  // namespace pme::anonymize

#endif  // PME_ANONYMIZE_PSEUDONYM_H_
