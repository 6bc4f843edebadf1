// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CONSTRAINTS_BK_COMPILER_H_
#define PME_CONSTRAINTS_BK_COMPILER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "constraints/term_index.h"
#include "data/dataset.h"
#include "knowledge/knowledge_base.h"

namespace pme::constraints {

/// Result of compiling a knowledge base into ME constraints.
struct CompiledKnowledge {
  std::vector<LinearConstraint> constraints;
  /// Statements skipped because their Qv matches no QI instance in the
  /// published table (zero support — vacuous knowledge).
  size_t num_vacuous = 0;
};

/// Posting lists over the interned QI tuples of a TupleEncoder: for each
/// tuple position and attribute value, the ascending ids of the tuples
/// carrying that value. Values are dictionary codes, so each position's
/// offset table is dense in the value.
class QiPostings {
 public:
  static QiPostings Build(const data::TupleEncoder& encoder);

  /// Tuple ids with `value` at `position`, ascending, as [begin, end).
  std::pair<const uint32_t*, const uint32_t*> Find(size_t position,
                                                   uint32_t value) const;

 private:
  struct Position {
    std::vector<uint32_t> offsets;  // value -> start in ids; max value + 2
    std::vector<uint32_t> ids;
  };
  std::vector<Position> positions_;
};

/// Compiles distribution knowledge (Section 4.1) into ME constraints.
///
/// A statement P(S-set | Qv) = c expands, per the paper's derivation, to
///
///   Σ_{B} Σ_{Q−} Σ_{s ∈ S-set} P(Qv, Q−, s, B)  =  c · P(Qv),
///
/// where the sum over Q− ranges over every full-QI instance consistent
/// with Qv. In TermIndex space this is: for every QI instance q matching
/// Qv, every bucket containing q, and every s in the S-set, add the
/// materialized term P(q, s, B) with coefficient 1; terms that are
/// Zero-invariants are dropped (they are structurally zero). The RHS
/// constant c · P(Qv) uses the sample probability P(Qv) = Σ_matching P(q),
/// observable from the published table because QI values are in clear.
///
/// `qi_encoder` maps raw attribute subsets to QI instances; it may be null
/// when every statement is in abstract mode (worked examples).
/// `qi_postings`, when non-null, must be QiPostings::Build(*qi_encoder)
/// (a table artifact keeps one); otherwise it is built on first use.
///
/// Inequality statements (Section 4.5) compile to kLe/kGe rows unchanged.
/// Individual statements are NOT handled here — they need the expanded
/// pseudonym variable space of Section 6 (see core::IndividualModel).
///
/// Errors with kInfeasible when a statement asserts positive probability
/// over an empty term set (the published table flatly contradicts it).
Result<CompiledKnowledge> CompileKnowledge(
    const knowledge::KnowledgeBase& kb,
    const anonymize::BucketizedTable& table, const TermIndex& index,
    const data::TupleEncoder* qi_encoder = nullptr,
    const QiPostings* qi_postings = nullptr);

/// Resolves the QI instances matching a dataset-mode statement's Qv, in
/// ascending order, by intersecting the posting lists of the statement's
/// (attribute, value) pairs, shortest first.
Result<std::vector<uint32_t>> MatchQiInstances(
    const knowledge::ConditionalStatement& stmt,
    const data::TupleEncoder& qi_encoder, const QiPostings& qi_postings);


}  // namespace pme::constraints

#endif  // PME_CONSTRAINTS_BK_COMPILER_H_
