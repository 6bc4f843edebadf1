// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_BLOCK_PLAN_H_
#define PME_MAXENT_BLOCK_PLAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/hash.h"
#include "common/id_set.h"
#include "common/status.h"
#include "constraints/constraint.h"
#include "constraints/invariants.h"
#include "constraints/system.h"
#include "constraints/term_index.h"
#include "maxent/solution_cache.h"
#include "maxent/solver.h"

namespace pme::maxent {

/// One knowledge-coupled block of a request: a connected component of
/// the bucket coupling graph that some request row touches.
///
/// The block problem is its buckets plus its request rows: in the stacked
/// layout (maxent/problem.h), the `num_table_rows` invariant rows of its
/// buckets (ForEachInvariantRow's, all equalities, never stored), then
/// problem row num_table_rows + j is request row rows[j].
struct PlanBlock {
  /// Buckets of the block, ascending.
  std::vector<uint32_t> buckets;
  /// The block's variables, ascending: the buckets' variable ranges
  /// concatenated (TermIndex numbers variables bucket-major). Local
  /// column j of the block problem is variable cols[j].
  std::vector<uint32_t> cols;
  /// Invariant rows of `buckets`, leading the block problem.
  size_t num_table_rows = 0;
  /// Request rows routed to the block, stacked: the first `num_eq` are
  /// its equality request rows.
  std::vector<const constraints::LinearConstraint*> rows;
  size_t num_eq = 0;

  /// Rows of the block problem.
  size_t num_rows() const { return num_table_rows + rows.size(); }

  // Filled by BlockPlan::ConsultCache when a solution cache is on.
  /// Content signatures aligned with `rows`; filled on a cache miss only,
  /// for the warm lookup and the insertion after the solve.
  std::vector<Hash128> row_sigs;
  /// Digest of the block's buckets: each bucket's id, g, h and count
  /// runs, the table's record count and the invariant options, plus an
  /// index-shape guard. Equal vars_hash ⇒ identical columns and identical
  /// invariant rows, so a cached dual means the same thing on them.
  Hash128 vars_hash;
  /// vars_hash and the sorted multiset of the request rows' signatures:
  /// equal rows_hash ⇒ identical block problem.
  Hash128 rows_hash;
  /// Cache keys: the digests above under the solve knobs and namespace.
  Hash128 exact_key;
  Hash128 vars_key;
  /// The cached solution when the exact key hit; no solve runs.
  std::shared_ptr<const CachedComponentSolution> cached;
  /// Warm-start dual aligned with the block problem's rows: the cached
  /// invariant multipliers by position, the request rows' matched by
  /// signature; empty when there was no warm entry or the block is
  /// dominant.
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
/// which buckets the knowledge couples into blocks, which request rows
/// each block owns, and the blocks' cache keys and cache answers.
///
/// Built by union-find over only the buckets the request rows touch:
/// every other bucket is its own uncoupled component, exact under the
/// Theorem-5 closed form. Blocks are numbered by their smallest bucket.
/// A request row joins the block of its first supported variable (union-
/// find put all of its buckets there); a block's invariant rows are
/// implied by its buckets. Work and memory scale with the request rows
/// and the coupled buckets; the table adds only the IdSets' one bit per
/// bucket, for O(1) bucket lookups.
class BlockPlan {
 public:
  /// Plans `request_rows` over the published `table` and its `index`;
  /// every request row couples the buckets it supports. Each block's
  /// invariant rows are those of its buckets under `invariant_options`;
  /// every other bucket's are left out (the closed form satisfies them
  /// exactly). With `one_block`, every bucket joins a single block: the
  /// whole table as one problem (Section 7.2's baseline without the
  /// decomposition), whose columns are the identity and whose rows are
  /// BuildProblem's over GenerateInvariants' rows followed by the request
  /// rows. `table`, `index` and `request_rows` must outlive the plan.
  static BlockPlan Build(
      const anonymize::BucketizedTable& table,
      const constraints::TermIndex& index,
      const constraints::InvariantOptions& invariant_options,
      const std::vector<constraints::LinearConstraint>& request_rows,
      bool one_block = false);

  /// Plans a whole system over `table`: its invariant rows must be
  /// GenerateInvariants(table, index)'s (every row kept), and are left to
  /// the table; every other row is routed as a request row. Errors with
  /// kInvalidArgument when the system's invariant-row count differs from
  /// the table's. `table`, `index` and `system` must outlive the plan.
  static Result<BlockPlan> Build(const anonymize::BucketizedTable& table,
                                 const constraints::TermIndex& index,
                                 const constraints::ConstraintSystem& system);

  /// Computes every block's cache keys and looks each block up in
  /// options.solution_cache — serially, in block order, so the census is
  /// the same for any thread count. Only request rows are hashed; the
  /// invariant rows enter through their buckets' counts. A missed block
  /// also keeps its request rows' signatures. A dominant block (see
  /// kDominantBlockFraction) skips the warm lookup. No-op when the cache
  /// is off.
  void ConsultCache(const SolverOptions& options);

  const anonymize::BucketizedTable& table() const { return *table_; }
  const constraints::TermIndex& index() const { return *index_; }
  const constraints::InvariantOptions& invariant_options() const {
    return invariant_options_;
  }
  const std::vector<PlanBlock>& blocks() const { return blocks_; }

  /// Request rows with no supported variable, in order.
  const std::vector<const constraints::LinearConstraint*>& unsupported_rows()
      const {
    return unsupported_rows_;
  }

  /// Component census: uncoupled singleton buckets plus the components
  /// among the touched buckets.
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
  /// rows.
  size_t rows_hashed() const { return rows_hashed_; }

 private:
  static BlockPlan BuildFromRows(
      const anonymize::BucketizedTable& table,
      const constraints::TermIndex& index,
      const constraints::InvariantOptions& invariant_options,
      const std::vector<const constraints::LinearConstraint*>& request_rows,
      bool one_block);

  const anonymize::BucketizedTable* table_ = nullptr;
  const constraints::TermIndex* index_ = nullptr;
  constraints::InvariantOptions invariant_options_;
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
