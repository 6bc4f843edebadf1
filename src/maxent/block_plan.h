// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_BLOCK_PLAN_H_
#define PME_MAXENT_BLOCK_PLAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/id_set.h"
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
/// all of them. The rows' content signatures are computed here, once per
/// table, so a block's cache key costs one digest per bucket instead of
/// a hash of every table row it holds.
struct BucketRowIndex {
  std::vector<uint32_t> offsets;  // num_buckets + 1
  /// constraints::ConstraintRowSignature of each row, in row order.
  std::vector<Hash128> sigs;
  /// Per bucket: the digest of its rows' count and signatures, in row
  /// order.
  std::vector<Hash128> digests;

  /// Errors when a row is not an equality, has no supported variable,
  /// spans two buckets, or lies in a lower bucket than the row before it.
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
  /// column j of the block problem is variable cols[j].
  std::vector<uint32_t> cols;
  /// Rows routed to the block in the stacked layout (maxent/problem.h):
  /// the first `num_eq` are its equality rows, each part with table rows
  /// before request rows.
  std::vector<const constraints::LinearConstraint*> rows;
  size_t num_eq = 0;

  // Filled by BlockPlan::ConsultCache when a solution cache is on.
  /// Content signatures aligned with `rows`; filled on a cache miss only,
  /// for the warm lookup and the insertion after the solve.
  std::vector<Hash128> row_sigs;
  /// Variable-structure digest (bucket ids and their variable counts,
  /// plus an index-shape guard): equal vars_hash ⇒ identical column
  /// layout, so a cached dual means the same thing.
  Hash128 vars_hash;
  /// vars_hash, the table-row digest of each bucket in bucket order
  /// (BucketRowIndex::digests), and the sorted multiset of the request
  /// rows' signatures: equal rows_hash ⇒ identical block problem.
  Hash128 rows_hash;
  /// Cache keys: the digests above under the solve knobs and namespace.
  Hash128 exact_key;
  Hash128 vars_key;
  /// The cached solution when the exact key hit; no solve runs.
  std::shared_ptr<const CachedComponentSolution> cached;
  /// Warm-start dual aligned with `rows`, matched row by row from a
  /// cached entry with the same variables; empty when nothing matched or
  /// the block is dominant.
  std::vector<double> warm_start;
};

/// A block holding more than this fraction of the table's variables is
/// answered from the cache on an exact hit but never warm-started. The
/// dual tolerance bounds each row's violation in absolute mass, and a
/// posterior divides that mass by P(q): on a near-whole-table block a
/// warm and a cold start can stop up to ~4e-5 apart in posterior units.
/// Solving the dominant block cold keeps a re-analysis identical to one
/// on a fresh cache; tolerances measured in record units would lift this.
inline constexpr double kDominantBlockFraction = 0.8;

/// Everything a request decides before any block solves (Section 5.5):
/// which buckets the knowledge couples into blocks, which rows each block
/// owns, and the blocks' cache keys and cache answers.
///
/// Built by union-find over only the buckets the request rows touch:
/// every other bucket is its own uncoupled component, exact under the
/// Theorem-5 closed form. Blocks are numbered by their smallest bucket.
/// A request row joins the block of its first supported variable (union-
/// find put all of its buckets there); table rows join through the
/// bucket index. Work and memory scale with the request rows and the
/// coupled buckets; the table adds only the IdSets' one bit per bucket,
/// for O(1) bucket lookups.
class BlockPlan {
 public:
  /// Plans `request_rows` over `index`. `table_rows`, when non-null, are
  /// the table-side invariant rows indexed by `bucket_rows`; each coupled
  /// bucket's rows join its block, and the rows of every other bucket are
  /// left out (the closed form satisfies them exactly). A row of
  /// `request_rows` marks its buckets coupled unless its source is an
  /// invariant. With `one_block`, every bucket joins a single block: the
  /// whole table as one problem (Section 7.2's baseline without the
  /// decomposition), whose columns are the identity and whose rows are
  /// BuildProblem's over the table rows followed by the request rows.
  static BlockPlan Build(
      const constraints::TermIndex& index,
      const std::vector<constraints::LinearConstraint>* table_rows,
      const BucketRowIndex* bucket_rows,
      const std::vector<constraints::LinearConstraint>& request_rows,
      bool one_block = false);

  /// Plans a whole system: every row is routed as a request row.
  static BlockPlan Build(const constraints::TermIndex& index,
                         const constraints::ConstraintSystem& system) {
    return Build(index, nullptr, nullptr, system.constraints());
  }

  /// Computes every block's cache keys and looks each block up in
  /// options.solution_cache — serially, in block order, so the census is
  /// the same for any thread count. Only request rows are hashed; table
  /// rows enter through their buckets' precomputed digests. A missed
  /// block also gathers its row signatures. A dominant block (see
  /// kDominantBlockFraction) skips the warm lookup. No-op when the cache
  /// is off.
  void ConsultCache(const SolverOptions& options);

  const constraints::TermIndex& index() const { return *index_; }
  const std::vector<PlanBlock>& blocks() const { return blocks_; }

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
  /// when the bucket belongs to no block. O(1): the evaluation looks up a
  /// bucket for every QI instance it recomputes, in no bucket order.
  bool LocateBucket(uint32_t bucket, uint32_t* block, uint32_t* col) const {
    if (!coupled_.Contains(bucket)) return false;
    const uint32_t k = coupled_.Rank(bucket);
    *block = coupled_block_[k];
    *col = coupled_col_[k];
    return true;
  }

  bool cache_enabled() const { return cache_enabled_; }
  size_t cache_exact_hits() const { return cache_exact_hits_; }
  size_t cache_warm_hits() const { return cache_warm_hits_; }
  size_t cache_misses() const { return cache_misses_; }
  /// Missed dominant blocks that were not offered a warm start.
  size_t warm_withheld() const { return warm_withheld_; }
  /// Rows whose signature ConsultCache computed: the blocks' request
  /// rows. Table rows are never rehashed.
  size_t rows_hashed() const { return rows_hashed_; }

 private:
  const constraints::TermIndex* index_ = nullptr;
  // The index of the table rows; null when the plan has none.
  const BucketRowIndex* bucket_rows_ = nullptr;
  std::vector<PlanBlock> blocks_;
  std::vector<const constraints::LinearConstraint*> unsupported_rows_;
  // The coupled buckets. The k-th (ascending) lies in block
  // coupled_block_[k], its first variable at local column coupled_col_[k].
  IdSet coupled_;
  std::vector<uint32_t> coupled_block_;
  std::vector<uint32_t> coupled_col_;
  size_t num_components_ = 0;
  bool cache_enabled_ = false;
  size_t cache_exact_hits_ = 0;
  size_t cache_warm_hits_ = 0;
  size_t cache_misses_ = 0;
  size_t warm_withheld_ = 0;
  size_t rows_hashed_ = 0;
};

}  // namespace pme::maxent

#endif  // PME_MAXENT_BLOCK_PLAN_H_
