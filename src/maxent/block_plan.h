// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_BLOCK_PLAN_H_
#define PME_MAXENT_BLOCK_PLAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "constraints/system.h"
#include "constraints/term_index.h"
#include "maxent/solution_cache.h"
#include "maxent/solver.h"

namespace pme::maxent {

/// Table-side rows by the one bucket each is supported in: the rows of
/// bucket b are [offsets[b], offsets[b+1]). Invariant rows (Eqs. 4-5)
/// never span buckets and are generated bucket by bucket, so a request
/// takes the rows of its coupled buckets from here instead of scanning
/// all of them.
struct BucketRowIndex {
  std::vector<uint32_t> offsets;  // num_buckets + 1

  /// Errors when a row has no supported variable, spans two buckets, or
  /// lies in a lower bucket than the row before it.
  static Result<BucketRowIndex> Build(
      const constraints::TermIndex& index,
      const std::vector<constraints::LinearConstraint>& rows);
};

/// One knowledge-coupled block of a request: a connected component of
/// the bucket coupling graph that some non-invariant row touches.
struct PlanBlock {
  /// Buckets of the block, ascending.
  std::vector<uint32_t> buckets;
  /// The block's variables, ascending: the buckets' variable ranges
  /// concatenated (TermIndex numbers variables bucket-major). Local
  /// column j of the block problem is variable cols[j]. Empty in a
  /// monolithic plan.
  std::vector<uint32_t> cols;
  /// Rows routed to the block, in the order the matrix form of the whole
  /// system lists them (table rows, then request rows; equality rows and
  /// inequality rows separately).
  std::vector<const constraints::LinearConstraint*> eq_rows;
  std::vector<const constraints::LinearConstraint*> ineq_rows;

  // Filled by BlockPlan::ConsultCache when a solution cache is on.
  /// Content signatures aligned with eq_rows / ineq_rows.
  std::vector<Hash128> eq_row_sigs;
  std::vector<Hash128> ineq_row_sigs;
  /// Variable-structure digest (bucket ids and their variable counts,
  /// plus an index-shape guard): equal vars_hash ⇒ identical column
  /// layout, so a cached dual means the same thing.
  Hash128 vars_hash;
  /// vars_hash plus the sorted multiset of row signatures: equal
  /// rows_hash ⇒ identical block problem.
  Hash128 rows_hash;
  /// Cache keys: the digests above under the solve knobs and namespace.
  Hash128 exact_key;
  Hash128 vars_key;
  /// The cached solution when the exact key hit; no solve runs.
  std::shared_ptr<const CachedComponentSolution> cached;
  /// Warm-start dual in the block's original stacked row space, matched
  /// row by row from a cached entry with the same variables; empty when
  /// nothing matched.
  std::vector<double> warm_start;
};

/// Everything a decomposed request decides before any block solves
/// (Section 5.5): which buckets the knowledge couples into blocks, which
/// rows each block owns, the blocks' cache keys and cache answers, and
/// whether one block is so large that the monolithic solve is cheaper.
///
/// Built by union-find over only the buckets the request rows touch:
/// every other bucket is its own uncoupled component, exact under the
/// Theorem-5 closed form. Blocks are numbered by their smallest bucket.
/// A request row joins the block of its first supported variable (union-
/// find put all of its buckets there); table rows join through the
/// bucket index. Work and memory scale with the request rows and the
/// coupled buckets, never with the table.
class BlockPlan {
 public:
  /// Plans `request_rows` over `index`. `table_rows`, when non-null, are
  /// the table-side invariant rows indexed by `bucket_rows`; each coupled
  /// bucket's rows join its block, and the rows of every other bucket are
  /// left out (the closed form satisfies them exactly). A row of
  /// `request_rows` marks its buckets coupled unless its source is an
  /// invariant. `monolithic_fraction` is
  /// SolverOptions::monolithic_fallback_fraction.
  static BlockPlan Build(
      const constraints::TermIndex& index,
      const std::vector<constraints::LinearConstraint>* table_rows,
      const BucketRowIndex* bucket_rows,
      const std::vector<constraints::LinearConstraint>& request_rows,
      double monolithic_fraction);

  /// Plans a whole system: every row is routed as a request row.
  static BlockPlan Build(const constraints::TermIndex& index,
                         const constraints::ConstraintSystem& system,
                         double monolithic_fraction) {
    return Build(index, nullptr, nullptr, system.constraints(),
                 monolithic_fraction);
  }

  /// Computes every block's row signatures and cache keys and looks each
  /// block up in options.solution_cache — serially, in block order, so
  /// the census is the same for any thread count. No-op when the cache
  /// is off.
  void ConsultCache(const SolverOptions& options);

  const constraints::TermIndex& index() const { return *index_; }
  const std::vector<PlanBlock>& blocks() const { return blocks_; }

  /// True when the largest block holds more than the monolithic fraction
  /// of all variables: decomposing would save nothing. A monolithic plan
  /// carries its blocks' buckets (for the census) but no columns or
  /// rows.
  bool monolithic() const { return monolithic_; }

  /// Request rows with no supported variable, in order.
  const std::vector<const constraints::LinearConstraint*>& unsupported_rows()
      const {
    return unsupported_rows_;
  }

  /// Component census: uncoupled singleton buckets plus the components
  /// among the touched buckets.
  size_t num_buckets() const { return index_->num_buckets(); }
  size_t num_components() const { return num_components_; }

  /// Block and local column of the first variable of `bucket`; false
  /// when the bucket belongs to no block.
  bool LocateBucket(uint32_t bucket, uint32_t* block, uint32_t* col) const;

  bool cache_enabled() const { return cache_enabled_; }
  size_t cache_exact_hits() const { return cache_exact_hits_; }
  size_t cache_warm_hits() const { return cache_warm_hits_; }
  size_t cache_misses() const { return cache_misses_; }

 private:
  const constraints::TermIndex* index_ = nullptr;
  std::vector<PlanBlock> blocks_;
  std::vector<const constraints::LinearConstraint*> unsupported_rows_;
  // Every coupled bucket, ascending, with its block and the local column
  // of its first variable.
  std::vector<uint32_t> coupled_buckets_;
  std::vector<uint32_t> coupled_block_;
  std::vector<uint32_t> coupled_col_;
  size_t num_components_ = 0;
  bool monolithic_ = false;
  bool cache_enabled_ = false;
  size_t cache_exact_hits_ = 0;
  size_t cache_warm_hits_ = 0;
  size_t cache_misses_ = 0;
};

}  // namespace pme::maxent

#endif  // PME_MAXENT_BLOCK_PLAN_H_
