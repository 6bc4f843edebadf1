// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CONSTRAINTS_BK_COMPILER_H_
#define PME_CONSTRAINTS_BK_COMPILER_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/hash.h"
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
  /// Statements whose terms came from the StatementTermMemo.
  size_t memo_hits = 0;
};

/// The table-side half of one compiled statement: the variables of its
/// row, strictly ascending, and P(Qv), summed over the matched QI
/// instances in ascending order. Neither depends on the statement's
/// probability or relation. Ascending variables make the row canonical
/// (constraints::ConstraintRowSignature hashes it as it stands) and keep
/// it in column order in every block problem, whose columns ascend with
/// the variables.
struct StatementTerms {
  std::vector<uint32_t> vars;
  double prob_qv = 0.0;
};

/// A byte-bounded memo from a statement's canonical term key to its
/// StatementTerms, for one table: the key is the sorted (attribute,
/// value) pairs of Qv (or the abstract QI instance) and the sorted,
/// de-duplicated S-set, so a repeated statement — or one with only its
/// probability or relation changed — skips the Qv match and term
/// emission. A TableArtifact owns one, shared by every request on it.
///
/// Thread-safe: one mutex guards the map. Entries are handed out as
/// shared_ptr, so eviction never pulls terms from under a reader. LRU
/// eviction keeps the resident bytes within the budget. The process-wide
/// counters compile.memo_hits / compile.memo_misses count lookups, and
/// the gauge compile.memo_bytes sums every memo's resident bytes.
class StatementTermMemo {
 public:
  /// The budget a TableArtifact's memo runs with: 32 MiB, the terms of
  /// ~8·10⁶ matched variables.
  static constexpr size_t kByteBudget = size_t{32} << 20;

  explicit StatementTermMemo(size_t byte_budget = kByteBudget);
  ~StatementTermMemo();

  StatementTermMemo(const StatementTermMemo&) = delete;
  StatementTermMemo& operator=(const StatementTermMemo&) = delete;

  /// The entry for `key`, or null. A hit refreshes its LRU position.
  std::shared_ptr<const StatementTerms> Find(const Hash128& key);

  /// Inserts (or replaces) the entry for `key`, then evicts least
  /// recently used entries until the budget holds — the new entry too,
  /// when it alone exceeds the budget.
  void Insert(const Hash128& key, std::shared_ptr<const StatementTerms> terms);

  size_t resident_bytes() const;
  size_t size() const;

  /// Resident bytes charged for one entry: its variables plus a fixed
  /// allowance for the map, LRU and control-block nodes.
  static size_t EntryBytes(const StatementTerms& terms);

 private:
  struct Entry {
    std::shared_ptr<const StatementTerms> terms;
    std::list<Hash128>::iterator lru_pos;  // MRU at the front
  };

  const size_t byte_budget_;
  mutable std::mutex mutex_;
  std::unordered_map<Hash128, Entry, Hash128Hasher> entries_;
  std::list<Hash128> lru_;
  size_t resident_bytes_ = 0;
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
/// `memo`, when non-null, must only ever see this table, index and
/// encoder (a table artifact keeps one): each statement's terms are
/// looked up there first and inserted on a miss. Rows are the same with
/// or without it, down to the bits of the rhs.
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
    const QiPostings* qi_postings = nullptr,
    StatementTermMemo* memo = nullptr);

/// Resolves the QI instances matching a dataset-mode statement's Qv, in
/// ascending order: the shortest posting list of the statement's
/// (attribute, value) pairs, filtered by each candidate tuple's values.
Result<std::vector<uint32_t>> MatchQiInstances(
    const knowledge::ConditionalStatement& stmt,
    const data::TupleEncoder& qi_encoder, const QiPostings& qi_postings);

}  // namespace pme::constraints

#endif  // PME_CONSTRAINTS_BK_COMPILER_H_
