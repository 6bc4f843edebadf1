// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CONSTRAINTS_INVARIANTS_H_
#define PME_CONSTRAINTS_INVARIANTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "constraints/constraint.h"
#include "constraints/term_index.h"

namespace pme::constraints {

/// Options for invariant generation.
struct InvariantOptions {
  /// Theorem 3 (Conciseness): each bucket's g+h base invariants contain
  /// exactly one redundant row. When true, the first SA-invariant of every
  /// bucket is dropped, leaving a minimal (linearly independent) set.
  /// Redundancy is harmless for correctness (default keeps everything,
  /// like the paper's implementation), but dropping shrinks the dual.
  bool drop_redundant_row = false;
};

/// One invariant row of a bucket: coefficient 1 on the `len` variables
/// first, first + stride, ..., first + (len − 1)·stride, equal to `rhs`.
struct InvariantRow {
  ConstraintSource source;  ///< kQiInvariant or kSaInvariant
  uint32_t first;
  uint32_t stride;
  uint32_t len;
  double rhs;
};

/// The one statement of the Section 5 layout: calls emit(InvariantRow)
/// for each invariant row of bucket `b`, a pure function of its counts.
/// With the bucket's g·h variables ranked QI-major from f (the first of
/// index.BucketRange(b)), first come the g QI-invariants (Eq. 4)
/// Σ_s P(q, s, b) = P(q, b), h consecutive variables from f + q·h, then
/// the SA-invariants (Eq. 5) Σ_q P(q, s, b) = P(s, b), g variables from
/// f + s at stride h. Theorem 3: one row per bucket is redundant, and
/// options.drop_redundant_row drops the SA row of s = 0.
template <typename Emit>
void ForEachInvariantRow(const anonymize::BucketizedTable& table,
                         const TermIndex& index, uint32_t b,
                         const InvariantOptions& options, Emit&& emit) {
  // The index lists bucket b's instances in the order of the table's
  // runs, so the count of rank r is run r's.
  const auto qi_runs = table.BucketQiCounts(b);
  const auto sa_runs = table.BucketSaCounts(b);
  const uint32_t g = static_cast<uint32_t>(qi_runs.size());
  const uint32_t h = static_cast<uint32_t>(sa_runs.size());
  const uint32_t first = index.BucketRange(b).first;
  for (uint32_t q = 0; q < g; ++q) {
    emit(InvariantRow{ConstraintSource::kQiInvariant, first + q * h, 1, h,
                      table.CountProb(qi_runs[q].count)});
  }
  for (uint32_t s = options.drop_redundant_row ? 1 : 0; s < h; ++s) {
    emit(InvariantRow{ConstraintSource::kSaInvariant, first + s, h, g,
                      table.CountProb(sa_runs[s].count)});
  }
}

/// The number of rows ForEachInvariantRow emits for bucket `b`.
inline size_t NumInvariantRows(const anonymize::BucketizedTable& table,
                               uint32_t b, const InvariantOptions& options) {
  return table.BucketQiCounts(b).size() + table.BucketSaCounts(b).size() -
         (options.drop_redundant_row ? 1 : 0);
}

/// The complete data constraints of Section 5 as LinearConstraint rows:
/// ForEachInvariantRow's rows, bucket by bucket, unlabelled. Zero-
/// invariant equations (Eq. 6) are structural — the TermIndex never
/// materializes those terms — so none are emitted.
std::vector<LinearConstraint> GenerateInvariants(
    const anonymize::BucketizedTable& table, const TermIndex& index,
    const InvariantOptions& options = {});

}  // namespace pme::constraints

#endif  // PME_CONSTRAINTS_INVARIANTS_H_
