// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CONSTRAINTS_TERM_INDEX_H_
#define PME_CONSTRAINTS_TERM_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/status.h"

namespace pme::constraints {

/// A probability term P(q, s, b) (Definition 5.1).
struct Term {
  uint32_t qi = 0;
  uint32_t sa = 0;
  uint32_t bucket = 0;

  bool operator==(const Term& other) const {
    return qi == other.qi && sa == other.sa && bucket == other.bucket;
  }
};

/// Dense numbering of the *materialized* probability terms of a bucketized
/// table: P(q, s, b) for q ∈ QI(b) and s ∈ SA(b).
///
/// Terms where q or s does not occur in bucket b are exactly the paper's
/// Zero-invariants (Eq. 6); they are never materialized, so the
/// Zero-invariant equations hold structurally and the optimization never
/// spends a variable (or a constraint) on them. This mirrors how the
/// original evaluation could scale to 2,842 buckets: the joint space
/// |QI|x|SA|x|B| is astronomically larger than the materialized space
/// (~g·h per bucket, with g, h ≤ bucket size).
///
/// Variables are ordered bucket-major: all terms of bucket 0 first, then
/// bucket 1, ... Within a bucket the order is (qi-rank, sa-rank) over the
/// sorted distinct instance lists, so the id of (q, s, b) is computable as
/// offset(b) + rank_b(q)·h_b + rank_b(s).
class TermIndex {
 public:
  /// Builds the index for `table` (which must outlive the index).
  static TermIndex Build(const anonymize::BucketizedTable& table);
  /// Same as Build(table); the thread count is ignored. Kept only because
  /// the pipeline benchmark still passes one.
  static TermIndex Build(const anonymize::BucketizedTable& table,
                         size_t /*threads*/) {
    return Build(table);
  }

  /// Number of materialized variables.
  size_t num_variables() const { return terms_.size(); }

  /// The term behind a variable id.
  const Term& TermOf(uint32_t var) const { return terms_[var]; }

  /// The variable id of P(q, s, b); kNotFound when the term is a
  /// Zero-invariant (not materialized).
  Result<uint32_t> VariableId(uint32_t q, uint32_t s, uint32_t b) const;

  /// VariableId without the error status: nullopt for a Zero-invariant
  /// or an out-of-range bucket. For hot loops that probe many terms.
  std::optional<uint32_t> FindVariable(uint32_t q, uint32_t s,
                                       uint32_t b) const;

  /// True iff P(q, s, b) is a Zero-invariant (q or s absent from b).
  bool IsZeroInvariant(uint32_t q, uint32_t s, uint32_t b) const;

  /// Variable-id range [first, last) of bucket b.
  std::pair<uint32_t, uint32_t> BucketRange(uint32_t b) const {
    return {bucket_offsets_[b], bucket_offsets_[b + 1]};
  }

  /// Sorted distinct QI instances of bucket b.
  const std::vector<uint32_t>& BucketQiList(uint32_t b) const {
    return bucket_qi_[b];
  }
  /// Sorted distinct SA instances of bucket b.
  const std::vector<uint32_t>& BucketSaList(uint32_t b) const {
    return bucket_sa_[b];
  }

  /// Number of buckets indexed.
  size_t num_buckets() const { return bucket_qi_.size(); }

  /// Human-readable "P(q1,s2,b1)" label for diagnostics.
  std::string TermName(uint32_t var,
                       const anonymize::BucketizedTable& table) const;

 private:
  std::vector<Term> terms_;
  std::vector<uint32_t> bucket_offsets_;       // size m+1
  std::vector<std::vector<uint32_t>> bucket_qi_;  // sorted distinct per bucket
  std::vector<std::vector<uint32_t>> bucket_sa_;
};

}  // namespace pme::constraints

#endif  // PME_CONSTRAINTS_TERM_INDEX_H_
